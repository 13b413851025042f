"""Brute-force checkers for the closed-form verdicts.

These enumerate bounded coefficient boxes or census representatives and
test the defining conditions directly.  Beyond the evaluation of the
bilinear form (``cartan.pairing`` and ``cartan.bilinear``) and, for the
census-based checks, the census itself, they share no code with the
closed forms they validate; they take no shortcuts and are deliberately
naive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import AlgebraSpec, structure_constant_table
from .cartan import Weight, bilinear, is_multiple, pairing
from .errors import InfiniteCensus
from .lattice import coset_reduce, scaled_dual
from .localmod import simple_census


@dataclass(frozen=True)
class Box:
    """All coefficient vectors in [-bound, bound]^dimension, lexicographic."""

    bound: int
    dimension: int

    def __post_init__(self):
        # A negative bound gives an empty box, on which every check is vacuous.
        if self.bound < 0:
            raise ValueError(f"box bound must be >= 0, got {self.bound}")

    def __iter__(self):
        return product(range(-self.bound, self.bound + 1), repeat=self.dimension)


def _as_box(box, dimension: int) -> Box:
    if isinstance(box, Box):
        return box
    return Box(int(box), dimension)


def brute_commutativity(spec: AlgebraSpec, box=3) -> bool:
    """Check the full-lattice commutativity conditions on a box.

    Tests <lam, lam> in ell*Z and 2<lam, mu> in ell*Z for every pair of
    box combinations of the even generators, not just the generators.
    """
    gens = spec.generators
    b = _as_box(box, len(gens))
    ell = spec.datum.ell
    pairs = [[pairing(spec.datum, x, y) for y in gens] for x in gens]

    vecs = list(b)
    for u in vecs:
        if (bilinear(pairs, u, u) / ell).denominator != 1:
            return False
    for i, u in enumerate(vecs):
        for v in vecs[i:]:
            if (2 * bilinear(pairs, u, v) / ell).denominator != 1:
                return False
    return True


def brute_cocycle(spec: AlgebraSpec, box=3) -> bool:
    """Build the normal-form table and grind through its congruences.

    Verifies the unit rows, associativity on every in-box triple, and
    the ungraded commutation relation e(a, b) = e(b, a) + <a, b>, all
    mod ell.  Supercommutative specs fail the last relation on odd-odd
    pairs by design; this oracle targets the commutative case.
    """
    b = _as_box(box, len(spec.ordered_basis))
    table = structure_constant_table(spec, b.bound)
    ell = spec.datum.ell
    gens = table.generators
    pairs = [[pairing(spec.datum, x, y) for y in gens] for x in gens]

    vecs = list(table.vectors())
    zero = (0,) * table.dimension
    for v in vecs:
        if table.lookup(v, zero).canonical or table.lookup(zero, v).canonical:
            return False
    for v1 in vecs:
        for v2 in vecs:
            delta = (
                table.lookup(v1, v2).value
                - table.lookup(v2, v1).value
                - bilinear(pairs, v1, v2)
            )
            if delta % ell:
                return False
            v12 = tuple(a + c for a, c in zip(v1, v2))
            if not table.in_box(v12):
                continue
            e12 = table.lookup(v1, v2).value
            for v3 in vecs:
                v23 = tuple(a + c for a, c in zip(v2, v3))
                if not table.in_box(v23):
                    continue
                lhs = table.lookup(v12, v3).value + e12
                rhs = table.lookup(v1, v23).value + table.lookup(v2, v3).value
                if (lhs - rhs) % ell:
                    return False
    return True


def brute_census_order(spec: AlgebraSpec, box=None) -> int:
    """Count simple local modules by coset enumeration.

    Enumerates non-negative combinations of the dual basis up to a side
    length wide enough for one fundamental domain (the largest invariant
    factor, since that multiple of the dual falls back into the lattice)
    and counts distinct cosets by direct membership tests.  A smaller
    caller-supplied box yields a lower bound.
    """
    census = simple_census(spec)
    if not census.finite:
        raise InfiniteCensus("coset enumeration needs a finite quotient")
    side = int(box) if box is not None else max(census.invariant_factors, default=1)
    lat = spec.extended_lattice
    dual = scaled_dual(spec.datum, lat)
    rows = dual.lattice_part.canonical_rows
    found = set()
    for combo in product(range(side), repeat=len(rows)):
        x = Weight.zero(spec.datum.rank)
        for c, w in zip(combo, rows):
            if c:
                x = x + c * w
        found.add(coset_reduce(lat, x))
    return len(found)


def brute_transparent_reps(spec: AlgebraSpec) -> tuple[Weight, ...]:
    """Transparent census representatives by pairing every two of them.

    A representative lam is transparent when <lam, gamma> lies in
    (ell/2)*Z for every representative gamma; testing representatives
    suffices because the pairing descends to cosets for weights in the
    dual group.
    """
    census = simple_census(spec)
    if not census.finite:
        raise InfiniteCensus("transparency scan needs a finite census")
    datum = spec.datum
    half = Fraction(datum.ell, 2)
    reps = census.reps
    return tuple(
        lam
        for lam in reps
        if all(is_multiple(pairing(datum, lam, gamma), half) for gamma in reps)
    )
