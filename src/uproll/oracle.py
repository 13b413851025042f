"""Brute-force checkers for the closed-form verdicts.

These enumerate bounded coefficient boxes or census representatives and
test the defining conditions directly: pairing evaluates the form on whole
weights, one Fraction per pair, and is_multiple tests each value; both live
here, and no verdict calls them.  Beyond the integer kernel cartan.bilinear
under pairing and, for the census-based checks, the census itself, they
share no code with the closed forms they validate; they take no shortcuts
and are deliberately naive.  No CLI command runs them; the test suite
does.  A box of more than ``algebra.MAX_TABLE_ENTRIES`` pairs (stage
"box"), a cocycle scan of more triples than that ("cocycle scan"), or a
coset search over a census or combinations past
``lattice.MAX_CENSUS_ORDER`` ("census", "coset search") is refused before
anything is enumerated.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from ._record import Record
from .algebra import MAX_TABLE_ENTRIES, AlgebraSpec, check_box_budget, structure_constant_table
from .cartan import CartanDatum, Weight, _ratio, bilinear, scaled_coords
from .errors import InfiniteCensus, check_budget
from .lattice import MAX_CENSUS_ORDER, coset_reduce, scaled_dual
from .localmod import simple_census


def pairing(datum: CartanDatum, lam: Weight, mu: Weight) -> Fraction:
    """The normalized bilinear form <lam, mu>, exact."""
    x, dx = scaled_coords(datum, lam)
    y, dy = scaled_coords(datum, mu)
    return Fraction(bilinear(datum.scaled_gram, x, y), datum.gram_denominator * dx * dy)


def is_multiple(x, step) -> bool:
    """True when x lies in step * Z, for a nonzero rational step."""
    return (Fraction(*_ratio(x)) / Fraction(*_ratio(step))).denominator == 1


class Box(Record):
    """All coefficient vectors in [-bound, bound]^dimension, lexicographic."""

    bound: int
    dimension: int

    def __init__(self, bound: int, dimension: int):
        super().__init__(bound, dimension)
        check_box_budget(self.bound, self.dimension)

    def __iter__(self):
        return product(range(-self.bound, self.bound + 1), repeat=self.dimension)


def _weight_of(vec, gens, rank: int) -> Weight:
    total = Weight.zero(rank)
    for c, g in zip(vec, gens):
        total = total + c * g
    return total


def brute_commutativity(spec: AlgebraSpec, box=3) -> bool:
    """Check the full-lattice commutativity conditions on a box.

    Tests <lam, lam> in ell*Z and 2<lam, mu> in ell*Z for every pair of
    box combinations of the even generators, not just the generators.
    """
    gens = spec.generators
    b = Box(int(box), len(gens))
    datum = spec.datum
    ell = datum.ell
    lams = [_weight_of(u, gens, datum.rank) for u in b]
    for lam in lams:
        if not is_multiple(pairing(datum, lam, lam), ell):
            return False
    for i, lam in enumerate(lams):
        for mu in lams[i:]:
            if not is_multiple(2 * pairing(datum, lam, mu), ell):
                return False
    return True


def brute_cocycle(spec: AlgebraSpec, box=3) -> bool:
    """Build the normal-form table and grind through its congruences.

    Verifies the unit rows, associativity on every in-box triple, and
    the ungraded commutation relation e(a, b) = e(b, a) + <a, b>, all
    mod ell.  Supercommutative specs fail the last relation on odd-odd
    pairs by design; this oracle targets the commutative case.  Past
    MAX_TABLE_ENTRIES triples it is refused before the table is built:
    the scan visits (sum_{|t| <= box} (2 box + 1 - |t|)^2)^d of them (b
    has entry t, a and c one of 2 box + 1 - |t|), never fewer than the
    pairs of this box or of brute_commutativity's, which has no more axes.
    """
    b = Box(int(box), len(spec.ordered_basis))
    B, m = b.bound, 2 * b.bound + 1
    triples = (m * m + (2 * B * m * (4 * B + 1) - B * (B + 1) * m) // 3) ** b.dimension
    check_budget("cocycle scan", triples, f"associativity triples in box {B}", MAX_TABLE_ENTRIES)
    table = structure_constant_table(spec, B)
    datum = spec.datum
    ell = datum.ell

    # Every exponent read once; the table stores them as integer rows.
    e = {key: x.value for key, x in table.entries.items()}
    vecs = list(b)
    lams = {v: _weight_of(v, table.generators, datum.rank) for v in vecs}
    zero = (0,) * b.dimension
    for v in vecs:
        if e[v, zero] % ell or e[zero, v] % ell:
            return False
    for v1 in vecs:
        for v2 in vecs:
            delta = e[v1, v2] - e[v2, v1] - pairing(datum, lams[v1], lams[v2])
            if delta % ell:
                return False
            v12 = tuple(a + c for a, c in zip(v1, v2))
            if not all(-B <= c <= B for c in v12):
                continue
            for v3 in vecs:
                v23 = tuple(a + c for a, c in zip(v2, v3))
                if not all(-B <= c <= B for c in v23):
                    continue
                if (e[v12, v3] + e[v1, v2] - e[v1, v23] - e[v2, v3]) % ell:
                    return False
    return True


def brute_census_order(spec: AlgebraSpec, box=None) -> int:
    """Count simple local modules by coset enumeration.

    Enumerates non-negative combinations of the dual basis up to a side
    length wide enough for one fundamental domain (the largest invariant
    factor, since that multiple of the dual falls back into the lattice)
    and counts distinct cosets by direct membership tests.  A smaller
    caller-supplied box yields a lower bound.  Its census is refused past
    MAX_CENSUS_ORDER like any other, and so is a search over more
    combinations.
    """
    census = simple_census(spec)
    if not census.finite:
        raise InfiniteCensus("coset enumeration needs a finite quotient")
    side = int(box) if box is not None else max(census.invariant_factors, default=1)
    lat = spec.extended_lattice
    dual = scaled_dual(spec.datum, lat)
    rows = [Weight.over(row, dual.denominator) for row in dual.hnf]
    check_budget("coset search", max(side, 0) ** len(rows), "coset combinations", MAX_CENSUS_ORDER)
    found = set()
    for combo in product(range(side), repeat=len(rows)):
        found.add(coset_reduce(lat, _weight_of(combo, rows, spec.datum.rank)))
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
    reps = tuple(census.reps)
    return tuple(
        lam
        for lam in reps
        if all(is_multiple(pairing(datum, lam, gamma), half) for gamma in reps)
    )
