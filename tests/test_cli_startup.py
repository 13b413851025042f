"""What a fresh interpreter loads to start the CLI.

Every CLI request starts a new interpreter, so a module imported at
start-up is paid for on each request.  These checks name the modules
that must stay out of that path, and check that the names loaded on
first use still resolve.
"""

import gc
import json
import sys

from helpers import run_cli

import uproll

ORACLE_NAMES = (
    "Box",
    "brute_census_order",
    "brute_cocycle",
    "brute_commutativity",
    "brute_transparent_reps",
    "is_multiple",
    "pairing",
)


def test_cli_import_leaves_out_dataclasses_inspect_and_the_oracle():
    done = run_cli([
        "-c",
        "import json, sys, uproll.cli; "
        "print(json.dumps([[m for m in ('dataclasses', 'inspect', 'uproll.oracle') "
        "if m in sys.modules], sorted(m for m in sys.modules if m.split('.')[0] == 'uproll')]))",
    ])
    assert done.returncode == 0, done.stderr
    left_out, loaded = json.loads(done.stdout)
    assert left_out == []
    # Each of these is compiled on every request from a checkout without
    # bytecode, so a new start-up module has to be a deliberate change.
    # Library modules load on first use, inside the command that uses them.
    assert loaded == ["uproll", "uproll.cli", "uproll.errors"]


def test_package_import_loads_no_submodule():
    done = run_cli(["-c", "import json, sys, uproll; "
                          "print(json.dumps(sorted(m for m in sys.modules if m.startswith('uproll'))))"])
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["uproll"]


# A request run in a fresh interpreter; the last stdout line holds the exit
# code and the uproll modules loaded by then.
REQUEST = """
import json, sys, uproll.cli
code = uproll.cli.run(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'uproll')]))
"""
A1_DOC = {"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]],
          "ext_weights": [{"qg": ["0"], "fock": ["0"]}]}
DATUM_MODULES = {"uproll", "uproll.cli", "uproll.errors", "uproll.cartan", "uproll._linalg",
                 "uproll._record"}
CENSUS_MODULES = DATUM_MODULES | {"uproll.lattice", "uproll.algebra", "uproll.localmod",
                                  "uproll._census"}


def _loaded_by(*argv):
    done = run_cli(["-c", REQUEST, *argv], json.dumps(A1_DOC))
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    return set(loaded)


def test_each_command_loads_only_the_modules_it_uses():
    assert _loaded_by("datum", "--series", "A", "--rank", "2", "--ell", "6") == DATUM_MODULES
    assert _loaded_by("census", "--format", "tsv") == CENSUS_MODULES
    bq = _loaded_by("bq")
    assert "uproll.extensions" in bq and bq <= CENSUS_MODULES | {"uproll.extensions"}
    assert _loaded_by("triplet", "--series", "A", "--rank", "2", "--r", "2") == (
        CENSUS_MODULES | {"uproll.extensions"})


# Reads every public name once in a fresh interpreter, and prints those
# that are not their defining module's object or not kept in the package.
RESOLVE = """
import json, sys, types, uproll
wrong = []
for name in uproll.__all__:
    unread = name not in vars(uproll)
    value = getattr(uproll, name)
    if isinstance(value, types.ModuleType):
        home, same = value, value is sys.modules["uproll." + name]
    else:
        home = sys.modules[value.__module__]
        same = unread and getattr(home, name) is value
    if not (same and home.__name__.startswith("uproll.") and vars(uproll)[name] is value):
        wrong.append(name)
print(json.dumps([len(uproll.__all__), wrong]))
"""


def test_every_public_name_resolves_to_its_module_object_and_is_kept():
    done = run_cli(["-c", RESOLVE])
    assert done.returncode == 0, done.stderr
    count, wrong = json.loads(done.stdout)
    assert count == len(set(uproll.__all__)) > 60
    assert wrong == []
    assert uproll.Weight is uproll.cartan.Weight
    assert set(uproll.__all__) <= set(dir(uproll))


def test_main_freezes_the_heap_once_after_run_returns(monkeypatch):
    from uproll import cli

    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "exit", lambda code: events.append(("exit", code)))
    monkeypatch.setattr(cli, "run", lambda argv=None: events.append("run") or 3)
    cli.main()
    assert events == ["run", "freeze", ("exit", 3)]


def test_run_never_freezes_the_heap(monkeypatch, capsys):
    from uproll import cli

    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    assert cli.run(["datum", "--series", "A", "--rank", "2", "--ell", "6"]) == 0
    assert cli.run(["datum", "--series", "X", "--rank", "2", "--ell", "6"]) == 2
    assert cli.run(["triplet", "--series", "A", "--rank", "1", "--r", "2"]) == 0
    capsys.readouterr()
    assert frozen == []


def test_oracle_names_resolve_on_first_use():
    from uproll import oracle

    assert uproll.brute_commutativity is oracle.brute_commutativity
    assert uproll.Box is oracle.Box
    listed = dir(uproll)
    for name in ORACLE_NAMES:
        assert name in uproll.__all__
        assert name in listed
        assert getattr(uproll, name) is getattr(oracle, name)


def test_cli_import_leaves_out_the_table_storage():
    done = run_cli(["-c", "import sys, uproll.cli; print('uproll._table' in sys.modules)"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_table_names_resolve_on_first_use():
    from uproll import _table, algebra

    assert uproll.CocycleTable is _table.CocycleTable
    # The package hook is the only lazy one.
    assert not hasattr(algebra, "CocycleTable")
    assert "CocycleTable" in uproll.__all__ and "CocycleTable" in dir(uproll)


def test_cli_import_leaves_out_the_census_views():
    done = run_cli(["-c", "import sys, uproll.cli; print('uproll._census' in sys.modules)"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_census_names_resolve_on_first_use():
    from uproll import _census, lattice

    assert uproll.CensusReps is _census.CensusReps
    assert uproll.CensusTwists is _census.CensusTwists
    for name in ("CensusReps", "CensusTwists"):
        assert name in uproll.__all__ and name in dir(uproll)
    assert not hasattr(lattice, "CensusReps")


def test_unknown_attribute_is_still_an_attribute_error():
    assert not hasattr(uproll, "no_such_name")
    assert not hasattr(uproll.algebra, "no_such_name")


def test_star_import_exports_the_oracle_names():
    namespace = {}
    exec("from uproll import *", namespace)
    for name in ORACLE_NAMES:
        assert namespace[name] is getattr(uproll, name)


def test_oracle_command_is_unknown():
    # The oracles are for tests; no command runs them.
    doc = {"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]}
    done = run_cli(["-m", "uproll.cli", "oracle", "--box", "2"], json.dumps(doc))
    assert done.returncode == 2
    assert done.stdout == ""
    assert "invalid choice: 'oracle'" in done.stderr and "Traceback" not in done.stderr
