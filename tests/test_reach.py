"""tools/reach.py: its list of defined functions, its summary of synthetic
reach lines and its profile hook on a small package.  No benchmark runs here."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

PACKAGE = {
    "alpha.py": (
        "def used():\n    return 1\n\n\n"
        "def unused():\n    def inner():\n        pass\n    return inner\n\n\n"
        "class Thing:\n    def __repr__(self):\n        return 'Thing'\n\n"
        "    def method(self):\n        return used()\n"
    ),
    "oracle.py": "def naive():\n    pass\n",
}


def write_package(tmp_path) -> Path:
    package = tmp_path / "pkg"
    package.mkdir()
    for name, source in PACKAGE.items():
        (package / name).write_text(source, encoding="utf-8")
    return package


def test_defined_names_every_function_by_module_and_qualname(tmp_path):
    assert reach.defined(write_package(tmp_path)) == [
        "alpha.used", "alpha.unused", "alpha.unused.<locals>.inner", "alpha.Thing.__repr__",
        "alpha.Thing.method", "oracle.naive",
    ]


def test_summary_flags_only_what_no_rule_allows():
    functions = ["cli.main", "cli.run", "cli._cmd_gone", "algebra.Spec.__reduce__", "algebra.Spec.helper",
                 "oracle.brute", "localmod.is_local", "lattice.in_dual", "_table.scan_structure",
                 "algebra.Spec.helper.<locals>.solve"]
    # Lines repeat across processes, carry line ends and may name what no longer exists.
    lines = ["cli.run\n", "cli.run", "algebra.Spec.helper", "", "gone.function"]
    assert reach.summarize(functions, lines) == {
        "functions": 10,
        "reached": 2,
        "flagged": ["cli._cmd_gone", "algebra.Spec.helper.<locals>.solve"],
        "allowed": ["cli.main", "algebra.Spec.__reduce__", "oracle.brute", "localmod.is_local",
                    "lattice.in_dual", "_table.scan_structure"],
    }
    assert reach.summarize(functions, functions)["flagged"] == []


def test_only_protocol_dunders_are_allowed_unreached(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "beta.py").write_text(
        "from collections.abc import Sequence\n\n\n"
        "class Row(Sequence, Record):\n"
        "    def __getitem__(self, i): ...\n"
        "    def __len__(self): ...\n"
        "    def __neg__(self): ...\n"
        "    def __repr__(self): ...\n\n\n"
        "class Flag(Record):\n"
        "    def __bool__(self): ...\n"
        "    def __len__(self): ...\n"
        "    def __reduce__(self): ...\n",
        encoding="utf-8",
    )
    src = reach.defined(package)
    summary = reach.summarize(src, [], reach.class_bases(package))
    # __neg__ is no Sequence's, and __bool__ and __len__ are no Record's or object's.
    assert summary["flagged"] == ["beta.Row.__neg__", "beta.Flag.__bool__", "beta.Flag.__len__"]
    assert summary["allowed"] == ["beta.Row.__getitem__", "beta.Row.__len__", "beta.Row.__repr__",
                                  "beta.Flag.__reduce__"]
    # Without its bases a class has only object's and Record's dunders, and
    # a dunder that Record defines counts on every class.
    assert reach.summarize(src, [])["allowed"] == ["beta.Row.__repr__", "beta.Flag.__reduce__"]
    record = ["_record.Record.__bool__"]
    assert reach.summarize(record + src, record)["allowed"] == [
        "beta.Row.__repr__", "beta.Flag.__bool__", "beta.Flag.__reduce__"]


def test_the_readme_names_every_allowed_function():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for name in reach.ALLOWED:
        assert f"`{name.rpartition('.')[2]}`" in readme, name


@pytest.mark.skipif(sys.version_info < (3, 11), reason="the hook reads co_qualname")
def test_the_hook_records_the_package_functions_a_process_calls(tmp_path):
    package = write_package(tmp_path)
    hook, out = tmp_path / "hook", tmp_path / "out"
    hook.mkdir()
    out.mkdir()
    env = reach.hooked_env(str(hook), str(out), package)
    code = "import sys; sys.path.insert(0, sys.argv[1]); import alpha; alpha.Thing().method(); alpha.unused()"
    done = subprocess.run([sys.executable, "-c", code, str(package)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    # Module and class bodies run as calls too, under <module> and the class's name.
    assert sorted(reach.read_lines(str(out))) == ["alpha.<module>", "alpha.Thing", "alpha.Thing.method",
                                                  "alpha.unused", "alpha.used"]
    summary = reach.summarize(reach.defined(package), reach.read_lines(str(out)))
    assert summary["flagged"] == ["alpha.unused.<locals>.inner"]
