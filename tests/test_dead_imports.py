"""No module of the package imports a name it never reads.

A name bound by an import and read nowhere in its module is dead weight:
it costs import time in every CLI request and hides what a module really
depends on.  The package __init__ is exempt for its public names, which
it imports only to re-export them.
"""

import ast
from pathlib import Path

import uproll

SRC = Path(uproll.__file__).parent


def unread_imports(path: Path) -> list[str]:
    """The names the module's imports bind that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    if path.name == "__init__.py":
        read |= {name for name in bound if not name.startswith("_")}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_every_imported_name_is_read():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10  # the walk finds the package's modules
    dead = [entry for path in modules for entry in unread_imports(path)]
    assert dead == []


def test_the_guard_sees_an_unread_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from math import gcd, lcm\nimport os.path\n\nlcm(2, 3)\nos.path\n")
    assert unread_imports(path) == ["module.py:1 gcd"]
