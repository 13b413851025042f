"""Every name of uproll that the frozen benchmark reads keeps working.

perfbench/workloads.py and perfbench/answers.py reach the library as
``u = p.uproll`` and ``u = self.u``; an ``ast`` walk collects every
attribute chain read off ``u`` (``u.build_cartan_datum``,
``u.errors.NotInSimpleCurrentLattice``, ``u.Weight.zero``) and each must
resolve on the package.  The reads that go through a returned value, which
the walk cannot follow, are pinned by hand.
"""

import ast
from fractions import Fraction
from pathlib import Path

import uproll

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def chains_read_off(source: str, root: str = "u") -> set[str]:
    """The dotted attribute chains read off the name root, as "a.b"."""
    chains = set()
    for node in ast.walk(ast.parse(source)):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == root:
            chains.add(".".join(reversed(parts)))
    return chains


def test_the_walk_finds_chains_read_off_u():
    source = "u = p.uproll\nu.errors.X\nu.Weight.zero(2)\nv.other\nu.f(1).value\n"
    assert chains_read_off(source) == {"errors.X", "errors", "Weight.zero", "Weight", "f"}


def test_every_name_the_benchmark_reads_resolves():
    chains = set()
    for name in ("workloads.py", "answers.py"):
        chains |= chains_read_off((PERFBENCH / name).read_text(encoding="utf-8"))
    # The walk sees the reads of both files, the frozen answer key's oracle included.
    assert {"brute_commutativity", "errors.NotInSimpleCurrentLattice", "CocycleTable", "exponent"} <= chains
    missing = []
    for chain in sorted(chains):
        value = uproll
        for part in chain.split("."):
            if not hasattr(value, part):
                missing.append(chain)
                break
            value = getattr(value, part)
    assert missing == []


def test_values_the_benchmark_reads_off_returned_objects():
    # answers.py rebuilds a perturbed table from a dict, reading each exponent's value.
    datum = uproll.build_cartan_datum("A", 2, 6)
    spec = uproll.AlgebraSpec(datum, [3 * r for r in datum.simple_roots])
    table = uproll.structure_constant_table(spec, 1)
    broken = dict(table.entries)
    key = ((1, 0), (0, 1))
    assert type(broken[key].value) is Fraction
    broken[key] = uproll.exponent(broken[key].value + 1, 6)
    rebuilt = uproll.CocycleTable(table.generators, 1, 6, broken)
    assert rebuilt.entries[key] == uproll.exponent(1, 6)
    assert not uproll.cocycle_check(rebuilt, datum).valid
    # Its verdict key runs the oracle's commutativity scan at box 1.
    assert uproll.brute_commutativity(spec, 1) is True
    a1_4 = uproll.build_cartan_datum("A", 1, 4)
    assert uproll.brute_commutativity(uproll.AlgebraSpec(a1_4, a1_4.simple_roots), 1) is False
