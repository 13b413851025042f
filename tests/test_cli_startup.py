"""What a fresh interpreter loads to start the CLI.

Every CLI request starts a new interpreter, so a module imported at
start-up is paid for on each request.  These checks name the modules
that must stay out of that path, and check that the names loaded on
first use still resolve.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import uproll

ROOT = Path(__file__).resolve().parents[1]
ORACLE_NAMES = (
    "Box",
    "brute_census_order",
    "brute_cocycle",
    "brute_commutativity",
    "brute_transparent_reps",
)


def _python(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120, **kwargs
    )


def test_cli_import_leaves_out_dataclasses_inspect_and_the_oracle():
    done = _python(
        "-c",
        "import json, sys, uproll.cli; "
        "print(json.dumps([[m for m in ('dataclasses', 'inspect', 'uproll.oracle') "
        "if m in sys.modules], sorted(m for m in sys.modules if m.split('.')[0] == 'uproll')]))",
    )
    assert done.returncode == 0, done.stderr
    left_out, loaded = json.loads(done.stdout)
    assert left_out == []
    # Each of these is compiled on every request from a checkout without
    # bytecode, so a new start-up module has to be a deliberate change.
    assert loaded == ["uproll"] + [
        f"uproll.{m}"
        for m in ("_linalg", "_record", "algebra", "cartan", "cli", "errors", "extensions",
                  "lattice", "localmod")
    ]


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
    done = _python("-c", "import sys, uproll.cli; print('uproll._table' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_table_names_resolve_on_first_use():
    from uproll import _table, algebra

    assert uproll.CocycleTable is _table.CocycleTable
    # The package hook is the only lazy one.
    assert not hasattr(algebra, "CocycleTable")
    assert "CocycleTable" in uproll.__all__ and "CocycleTable" in dir(uproll)


def test_cli_import_leaves_out_the_census_views():
    done = _python("-c", "import sys, uproll.cli; print('uproll._census' in sys.modules)")
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


def test_oracle_command_still_runs():
    doc = {"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]}
    done = _python("-m", "uproll.cli", "oracle", "--box", "2", input=json.dumps(doc))
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["brute_commutativity"] is True
    assert out["brute_census_order"] == 4
