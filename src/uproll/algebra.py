"""(Super)commutative algebra structures on lattice simple-current sums.

A spec fixes an ordered generator list for the even lattice L, plus an
optional odd generator mu with mu not in L and 2*mu in L.  Structure
constants of the algebra product are pure powers of q and are handled
entirely in exponent space: the normal form on a pair of elements with
generator coefficients n, m is

    e(n, m) = sum over k of < lam^{>k}, mu^k >,

where lam^{>k} collects the generator components of index greater than k
and mu^k is the k-th component.  Gauge-equivalent tables differ by the
coboundary of a 1-cochain phi, and the normalization recursion recovers
the normal form from any valid table.

The odd-odd sign of a superalgebra is an exponent shift of ell/2 when
ell is even; for odd ell no power of q equals -1, so the sign is kept as
separate bookkeeping by callers and the exponent tables stay unsigned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import add

from . import _linalg
from .cartan import (
    CartanDatum,
    ExponentModL,
    Weight,
    bilinear,
    in_simple_current_lattice,
    is_multiple,
    pairing,
)
from .errors import (
    DependentGenerators,
    IncompleteTable,
    MuNotHalfOdd,
    NotInLattice,
    NotInSimpleCurrentLattice,
)
from .lattice import adjoin, canonical_basis


class AlgebraSpec:
    """An algebra of simple currents: ordered even generators, optional odd one.

    The generator order is significant: the structure-constant normal
    form depends on it, though different orders give isomorphic algebras.
    """

    def __init__(self, datum: CartanDatum, generators, mu: Weight | None = None):
        self.datum = datum
        self.generators = tuple(generators)
        self.mu = mu
        for g in self.generators:
            if not in_simple_current_lattice(datum, g):
                raise NotInSimpleCurrentLattice(
                    f"generator {g!r} is outside the simple-current lattice"
                )
        self.lattice = canonical_basis(datum, self.generators)
        if mu is None:
            self.extended_lattice = self.lattice
        else:
            if not in_simple_current_lattice(datum, mu):
                raise NotInSimpleCurrentLattice(
                    f"odd generator {mu!r} is outside the simple-current lattice"
                )
            joined = adjoin(self.lattice, mu)
            if joined.mu_in_lattice:
                raise MuNotHalfOdd(f"odd generator {mu!r} already lies in L")
            if not joined.two_mu_in_lattice:
                raise MuNotHalfOdd(f"twice the odd generator {mu!r} must lie in L")
            self.extended_lattice = joined.lattice

    @property
    def ordered_basis(self) -> tuple[Weight, ...]:
        """Even generators followed by the odd one when present."""
        if self.mu is None:
            return self.generators
        return self.generators + (self.mu,)

    @cached_property
    def _pairs(self) -> tuple[tuple[Fraction, ...], ...]:
        basis = self.ordered_basis
        return tuple(tuple(pairing(self.datum, a, b) for b in basis) for a in basis)

    @cached_property
    def _lower_pairs(self) -> tuple[tuple[Fraction, ...], ...]:
        # Row i keeps columns < i, the strictly lower part for cartan.bilinear.
        return tuple(row[:i] for i, row in enumerate(self._pairs))

    def pair_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Pairings of the ordered basis against itself."""
        return self._pairs

    @cached_property
    def verdict(self) -> CommutativityVerdict | SuperVerdict:
        """The validity check, commutative or supercommutative, run once."""
        if self.mu is None:
            return check_commutative(self)
        return check_supercommutative(self)

    def coefficients(self, lam: Weight) -> tuple[int, ...]:
        """Canonical generator coefficients of a lattice element.

        For a superalgebra the odd coefficient is reduced into {0, 1}.
        Raises NotInLattice when the weight is outside the algebra and
        DependentGenerators when the even generators are not a basis.
        """
        rows = [list(g.coords) for g in self.generators]

        def solve(target: Weight):
            try:
                combo = _linalg.combination_in_rows(rows, list(target.coords))
            except ValueError as exc:
                raise DependentGenerators(str(exc)) from None
            if combo is None or any(c.denominator != 1 for c in combo):
                return None
            return tuple(int(c) for c in combo)

        even = solve(lam)
        if self.mu is None:
            if even is None:
                raise NotInLattice(f"{lam!r} is not in the algebra lattice")
            return even
        if even is not None:
            return even + (0,)
        odd = solve(lam - self.mu)
        if odd is not None:
            return odd + (1,)
        raise NotInLattice(f"{lam!r} is not in the extended algebra lattice")


@dataclass(frozen=True)
class Witness:
    """One failed congruence, with the exact offending value."""

    kind: str
    i: int
    j: int
    value: Fraction


@dataclass(frozen=True)
class CommutativityVerdict:
    commutative: bool
    witnesses: tuple[Witness, ...]

    def __bool__(self) -> bool:
        return self.commutative


@dataclass(frozen=True)
class SuperVerdict:
    supercommutative: bool
    witnesses: tuple[Witness, ...]

    def __bool__(self) -> bool:
        return self.supercommutative


def _commutative_witnesses(spec: AlgebraSpec) -> list[Witness]:
    ell = spec.datum.ell
    pairs = spec.pair_matrix()
    m = len(spec.generators)
    out = []
    for i in range(m):
        val = pairs[i][i]
        if not is_multiple(val, ell):
            out.append(Witness("diagonal", i, i, val))
        for j in range(i + 1, m):
            val = 2 * pairs[i][j]
            if not is_multiple(val, ell):
                out.append(Witness("off_diagonal", i, j, val))
    return out


def check_commutative(spec: AlgebraSpec) -> CommutativityVerdict:
    """Commutativity of the even algebra, decided on generators.

    True exactly when <g_i, g_i> lies in ell*Z for every generator and
    2<g_i, g_j> lies in ell*Z for every pair; the generator conditions
    propagate to the whole lattice by bilinearity.
    """
    if spec.mu is not None:
        raise ValueError("check_commutative expects a spec without an odd generator")
    bad = _commutative_witnesses(spec)
    return CommutativityVerdict(not bad, tuple(bad))


def check_supercommutative(spec: AlgebraSpec) -> SuperVerdict:
    """Supercommutativity of the two-graded algebra attached to (L, mu).

    Requires the even part to be commutative, 2<mu, mu> in ell*Z but not
    in 2*ell*Z, and 2<mu, g> in ell*Z for every even generator g.
    """
    if spec.mu is None:
        raise ValueError("check_supercommutative expects a spec with an odd generator")
    ell = spec.datum.ell
    bad = _commutative_witnesses(spec)
    m = len(spec.generators)
    odd = spec.pair_matrix()[m]
    val = 2 * odd[m]
    if not is_multiple(val, ell) or is_multiple(val, 2 * ell):
        bad.append(Witness("odd_diagonal", m, m, val))
    for j in range(m):
        val = 2 * odd[j]
        if not is_multiple(val, ell):
            bad.append(Witness("odd_even", m, j, val))
    return SuperVerdict(not bad, tuple(bad))


def spec_verdict(spec: AlgebraSpec):
    """The spec's own validity check: commutative or supercommutative."""
    return spec.verdict


def exponent_from_coefficients(spec: AlgebraSpec, left, right) -> ExponentModL:
    """Normal-form exponent for elements given by generator coefficients:
    the sum of left_i <b_i, b_k> right_k over basis indices i > k."""
    return ExponentModL(bilinear(spec._lower_pairs, left, right), spec.datum.ell)


def structure_constant_exponent(spec: AlgebraSpec, lam: Weight, mu: Weight) -> ExponentModL:
    """Normal-form structure-constant exponent on a pair of lattice elements."""
    return exponent_from_coefficients(
        spec, spec.coefficients(lam), spec.coefficients(mu)
    )


@dataclass
class CocycleTable:
    """Structure-constant exponents on a bounded coefficient box.

    Entries are keyed by pairs of generator-coefficient vectors with all
    coefficients in [-box, box]; the value at (n, m) is the exponent of
    the product scalar on the corresponding pair of summands.
    """

    generators: tuple[Weight, ...]
    box: int
    ell: int
    entries: dict[tuple[tuple[int, ...], tuple[int, ...]], ExponentModL]

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def vectors(self):
        span = range(-self.box, self.box + 1)
        return product(span, repeat=self.dimension)

    def in_box(self, vec) -> bool:
        return all(-self.box <= c <= self.box for c in vec)

    def lookup(self, left, right) -> ExponentModL:
        try:
            return self.entries[(tuple(left), tuple(right))]
        except KeyError:
            raise IncompleteTable(f"no entry for pair ({left}, {right})") from None

    def weight_of(self, vec) -> Weight:
        total = Weight.zero(len(self.generators[0]) if self.generators else 0)
        for c, g in zip(vec, self.generators):
            if c:
                total = total + c * g
        return total


def structure_constant_table(spec: AlgebraSpec, box: int) -> CocycleTable:
    """The normal-form table on all coefficient pairs within the box."""
    vecs = list(
        product(range(-box, box + 1), repeat=len(spec.ordered_basis))
    )
    entries = {
        (n, m): exponent_from_coefficients(spec, n, m)
        for n in vecs
        for m in vecs
    }
    return CocycleTable(spec.ordered_basis, box, spec.datum.ell, entries)


def _in_box_pairs(table: CocycleTable) -> dict:
    """Each in-box vector, mapped to the (vector, sum) pairs of the in-box
    vectors whose sum with it stays in the box; all in lexicographic order."""
    vecs = list(table.vectors())
    inside = set(vecs)
    return {
        v1: [(v2, v12) for v2 in vecs if (v12 := tuple(map(add, v1, v2))) in inside]
        for v1 in vecs
    }


@dataclass(frozen=True)
class CocycleVerdict:
    valid: bool
    commutative: bool
    first_violation: tuple | None


def cocycle_check(table: CocycleTable, datum: CartanDatum) -> CocycleVerdict:
    """Verify the algebra-object congruences on all in-box triples.

    Checks associativity e(a+b, c) + e(a, b) = e(a, b+c) + e(b, c), the
    unit rows e(a, 0) = e(0, a) = 0, and the ungraded commutation
    relation e(a, b) = e(b, a) + <a, b>, all modulo ell.  Validity means
    associativity plus unit; the commutation relation is reported
    separately (tables of supercommutative algebras fail it on odd-odd
    pairs by the half-shift, which is the expected sign).
    """
    ell = table.ell
    zero = (0,) * table.dimension
    gens = table.generators
    pairs = tuple(tuple(pairing(datum, a, b) for b in gens) for a in gens)
    in_box = _in_box_pairs(table)

    def value(left, right) -> Fraction:
        return table.lookup(left, right).value

    structure_violation = next(
        (("unit", v) for v in in_box if value(v, zero) % ell or value(zero, v) % ell), None
    ) or next(
        (
            ("associativity", v1, v2, v3)
            for v1, row in in_box.items()
            for v2, v12 in row
            for v3, v23 in in_box[v2]
            if (value(v12, v3) + value(v1, v2) - value(v1, v23) - value(v2, v3)) % ell
        ),
        None,
    )
    commutative_violation = next(
        (
            ("commutativity", v1, v2)
            for v1 in in_box
            for v2 in in_box
            if (value(v1, v2) - value(v2, v1) - bilinear(pairs, v1, v2)) % ell
        ),
        None,
    )
    return CocycleVerdict(
        valid=structure_violation is None,
        commutative=commutative_violation is None,
        first_violation=structure_violation or commutative_violation,
    )


def apply_coboundary(table: CocycleTable, phi: dict) -> CocycleTable:
    """Twist a table by the coboundary of a 1-cochain on coefficient vectors.

    phi maps coefficient vectors to ExponentModL values and must cover
    every in-box pair sum (so, the box of width 2*box) with phi(0) = 0.
    """
    def phi_at(vec) -> Fraction:
        try:
            return phi[tuple(vec)].value
        except KeyError:
            raise IncompleteTable(f"coboundary cochain missing {vec}") from None

    entries = {}
    for (v1, v2), e in table.entries.items():
        v12 = tuple(a + b for a, b in zip(v1, v2))
        shifted = e.value + phi_at(v12) - phi_at(v1) - phi_at(v2)
        entries[(v1, v2)] = ExponentModL(shifted, table.ell)
    return CocycleTable(table.generators, table.box, table.ell, entries)


@dataclass(frozen=True)
class GaugeResult:
    """Gauge 1-cochain (on coefficient vectors) and the normalized table."""

    phi: dict
    normalized: CocycleTable


def gauge_normalize(table: CocycleTable, spec: AlgebraSpec) -> GaugeResult:
    """Normalize a valid table by the gauge recursion.

    The cochain starts from phi = 0 on each generator and is extended by

        phi(n g_i) = phi((n-1) g_i) + phi(g_i) - e((n-1) g_i, g_i)

    for ascending n, by the reindexed relation downward for negative n,
    and by splitting off the last nonzero component for mixed vectors.
    The normalized table carries entries for every in-box pair whose sum
    stays in the box, and on those pairs it agrees with the normal form.
    """
    if spec.ordered_basis != table.generators:
        raise ValueError("table generators do not match the spec's ordered basis")
    ell = table.ell
    dims = table.dimension
    box = table.box
    phi: dict[tuple[int, ...], ExponentModL] = {}
    zero = (0,) * dims
    phi[zero] = ExponentModL(Fraction(0), ell)

    def unit_vec(i: int, n: int) -> tuple[int, ...]:
        v = [0] * dims
        v[i] = n
        return tuple(v)

    for i in range(dims):
        if box < 1:
            continue
        phi[unit_vec(i, 1)] = ExponentModL(Fraction(0), ell)
        for n in range(2, box + 1):
            prev = unit_vec(i, n - 1)
            phi[unit_vec(i, n)] = ExponentModL(
                phi[prev].value
                + phi[unit_vec(i, 1)].value
                - table.lookup(prev, unit_vec(i, 1)).value,
                ell,
            )
        for n in range(-1, -box - 1, -1):
            cur = unit_vec(i, n)
            phi[cur] = ExponentModL(
                phi[unit_vec(i, n + 1)].value
                + table.lookup(cur, unit_vec(i, 1)).value
                - phi[unit_vec(i, 1)].value,
                ell,
            )

    def phi_of(vec: tuple[int, ...]) -> Fraction:
        got = phi.get(vec)
        if got is not None:
            return got.value
        k = max(i for i, c in enumerate(vec) if c)
        head = vec[:k] + (0,) * (dims - k)
        tail = unit_vec(k, vec[k])
        val = phi_of(head) + phi_of(tail) - table.lookup(head, tail).value
        phi[vec] = ExponentModL(val, ell)
        return val

    for vec in table.vectors():
        phi_of(vec)

    entries = {
        (v1, v2): ExponentModL(
            table.lookup(v1, v2).value + phi[v12].value - phi[v1].value - phi[v2].value,
            ell,
        )
        for v1, row in _in_box_pairs(table).items()
        for v2, v12 in row
    }
    normalized = CocycleTable(table.generators, box, ell, entries)
    return GaugeResult(phi, normalized)
