#!/usr/bin/env python3
"""Which functions of src/uproll real runs reach.

    python3 tools/reach.py [--check] [--root DIR]

For each of the seeds 1-3 it runs ``python3 perfbench/run.py --seed S
--seconds 1``, every workload of the benchmark in its own process, answer
key included; then it replays each request of ``tests/data/cli_corpus.json``
as ``python -m uproll.cli`` with its stdin.  Every one of those processes, the
benchmark's own children included, starts with a profile hook: a
``sitecustomize`` module on its ``PYTHONPATH`` that notes the code object
of each Python call and, at exit, writes one reach line per function of
``src/uproll`` it called, ``<module>.<qualname>`` (for example
``algebra.AlgebraSpec.__init__``).  Nothing under ``perfbench/`` changes.

It then lists each function that an ``ast`` walk finds defined in
``src/uproll`` (nested functions included) and that no reach line names.
With ``--check`` it exits 1 when one of them is not allowed: allowed are
the dunders that ``object``, ``Record`` or one of the class's own
``collections.abc`` bases defines (protocol methods, which callers reach
through the language), everything in ``oracle.py`` (the naive
cross-checks, which the test suite runs) and the names in ALLOWED, each of
which README.md names with its reason.  With ``--check`` it also exits 1
when a run reaches a name in ALLOWED, whose allowance has then outlived its
reason.  It exits 2 when a run fails: a benchmark run that is not correct,
or a corpus request whose exit code or stdout differs from the corpus's.  ``--root`` points it at another
checkout, such as a ``git archive`` copy of an earlier commit.  It needs
Python 3.11 or later, whose code objects carry their qualified names.
"""

from __future__ import annotations

import argparse
import ast
import collections.abc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)

# Unreached on purpose; README.md says why for each.
ALLOWED = {
    "localmod.is_local": "the paper's locality test, kept as library API",
    "lattice.in_dual": "the kernel of is_local",
    "cartan.Weight.__neg__": "weight negation, with + and - the weight arithmetic of the library API",
    "extensions.ExtWeight.__add__": "the sum of current-Fock weights, library API that the tests use",
    "localmod.RibbonVerdict.__bool__": "a ribbon verdict's truth, as every other verdict record has",
}

# Written to a directory put first on each child's PYTHONPATH.  Code objects
# are kept by id, which costs less per call than hashing them, and kept
# alive, so that no id is reused for another function.
HOOK = '''\
import atexit, os, sys, threading

_src = os.environ["UPROLL_REACH_SRC"]
_codes = {}


def _hook(frame, event, arg, codes=_codes):
    if event == "call":
        code = frame.f_code
        codes[id(code)] = code


def _write():
    sys.setprofile(None)
    names = {
        os.path.basename(c.co_filename)[:-3] + "." + c.co_qualname
        for c in _codes.values()
        if c.co_filename.startswith(_src)
    }
    path = os.path.join(os.environ["UPROLL_REACH_OUT"], f"{os.getpid()}.txt")
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(f"{name}\\n" for name in sorted(names))


sys.setprofile(_hook)
threading.setprofile(_hook)
atexit.register(_write)
'''


def defined(src: Path) -> list[str]:
    """Every function defined in the package, as <module>.<qualname>."""
    names = []

    def walk(node, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return names


def class_bases(src: Path) -> dict[str, tuple[str, ...]]:
    """The names of the bases of every class defined in the package, by
    <module>.<qualname>."""
    bases = {}
    for path in sorted(src.glob("*.py")):
        todo = [(ast.parse(path.read_text(encoding="utf-8")), "")]
        while todo:
            node, prefix = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    names = tuple(getattr(base, "id", getattr(base, "attr", None)) for base in child.bases)
                    bases[f"{path.stem}.{prefix}{child.name}"] = names
                    todo.append((child, f"{prefix}{child.name}."))
                elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    todo.append((child, prefix))
    return bases


def is_protocol(name: str, bases: dict, record: set) -> bool:
    """Whether name is a dunder that object, Record (whose dunders are
    record) or one of its class's collections.abc bases defines."""
    owner, _, last = name.rpartition(".")
    if not (last.startswith("__") and last.endswith("__")):
        return False
    abcs = [getattr(collections.abc, base) for base in bases.get(owner, ()) if base in collections.abc.__all__]
    return last in record or any(hasattr(cls, last) for cls in (object, *abcs))


def summarize(functions, reach_lines, bases=None) -> dict:
    """The reached count, the unreached functions split into those --check
    flags and those it allows, and the names in ALLOWED that a run reached
    (stale); bases maps each class to the names of its bases (class_bases)."""
    reached = {line.strip() for line in reach_lines}
    missed = [name for name in functions if name not in reached]
    record = {name.rpartition(".")[2] for name in functions if name.startswith("_record.Record.")}
    allowed = [name for name in missed if name.partition(".")[0] == "oracle" or name in ALLOWED
               or is_protocol(name, bases or {}, record)]
    return {
        "functions": len(functions),
        "reached": len(functions) - len(missed),
        "flagged": [name for name in missed if name not in allowed],
        "allowed": allowed,
        "stale": [name for name in ALLOWED if name in reached],
    }


def hooked_env(hook: str, out: str, package: Path) -> dict:
    """The environment of a process that writes, at exit, the reach lines of
    the functions it called from the package's directory into out; the hook
    module is written into the directory hook, first on PYTHONPATH."""
    Path(hook, "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    path = os.pathsep.join(filter(None, [hook, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, UPROLL_REACH_SRC=f"{package}{os.sep}", UPROLL_REACH_OUT=out, PYTHONPATH=path)


def read_lines(out: str) -> list[str]:
    """The reach lines that the processes wrote into out."""
    return [line for part in sorted(Path(out).iterdir()) for line in part.read_text(encoding="utf-8").splitlines()]


def trace(root: Path) -> tuple[list[str], list[str]]:
    """Run the benchmark on each seed and replay the corpus under the hook:
    (reach lines of every process, descriptions of the runs that failed)."""
    src = root / "src"
    corpus = json.loads((root / "tests" / "data" / "cli_corpus.json").read_text(encoding="utf-8"))
    failures = []
    with tempfile.TemporaryDirectory() as hook, tempfile.TemporaryDirectory() as out:
        env = hooked_env(hook, out, src / "uproll")
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--seed", str(seed), "--seconds", "1"],
                cwd=root, env=env, capture_output=True, text=True, timeout=1800,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
                failures.append(f"perfbench seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            print(f"perfbench seed {seed}: exit {proc.returncode}", file=sys.stderr)
        env["PYTHONPATH"] = os.pathsep.join([str(src), env["PYTHONPATH"]])
        for entry in corpus:
            proc = subprocess.run(
                [sys.executable, "-m", "uproll.cli", *entry["argv"]], input=entry["stdin"],
                cwd=root, env=env, capture_output=True, text=True, timeout=600,
            )
            digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
            if (proc.returncode, digest) != (entry["exit"], entry["sha256"]):
                failures.append(f"corpus {entry['name']}: exit {proc.returncode}, expected {entry['exit']}")
        print(f"corpus: {len(corpus)} requests", file=sys.stderr)
        return read_lines(out), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unreached function not allowed, or on an allowed one reached")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to trace (default: this one)")
    args = parser.parse_args(argv)
    if sys.version_info < (3, 11):
        parser.error("the hook reads co_qualname, which needs Python 3.11 or later")
    root = args.root.resolve()
    lines, failures = trace(root)
    src = root / "src" / "uproll"
    summary = summarize(defined(src), lines, class_bases(src))
    print(f"{summary['reached']} of {summary['functions']} functions reached")
    for name in summary["allowed"]:
        print(f"unreached, allowed: {name}")
    for name in summary["flagged"]:
        print(f"unreached: {name}")
    for name in summary["stale"]:
        print(f"reached, but allowed: {name}")
    if failures:
        print("runs that failed:", *failures, sep="\n", file=sys.stderr)
        return 2
    return 1 if args.check and (summary["flagged"] or summary["stale"]) else 0


if __name__ == "__main__":
    sys.exit(main())
