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

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from operator import add

from . import _linalg
from ._record import Record
from .cartan import (
    CartanDatum,
    ExponentModL,
    Weight,
    bilinear,
    in_simple_current_lattice,
    pairing_matrix,
)
from .errors import (
    BudgetExceeded,
    DependentGenerators,
    IncompleteTable,
    MuNotHalfOdd,
    NotInLattice,
    NotInSimpleCurrentLattice,
)
from .lattice import adjoin, canonical_basis

# The most entries a structure-constant table may hold.  The brute-force
# oracles and the CLI monodromy table are held to the same bound.
MAX_TABLE_ENTRIES = 100_000


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
    def pair_matrix(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Pairings of the ordered basis against itself, as an integer
        matrix P over one denominator p: <b_i, b_j> = P_ij / p."""
        return pairing_matrix(self.datum, self.ordered_basis)

    @cached_property
    def _lower_pairs(self) -> tuple[tuple[int, ...], ...]:
        # Row i keeps columns < i, the strictly lower part for cartan.bilinear.
        return tuple(row[:i] for i, row in enumerate(self.pair_matrix[0]))

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


class Witness(Record):
    """One failed congruence, with the exact offending value."""

    kind: str
    i: int
    j: int
    value: Fraction


class CommutativityVerdict(Record):
    commutative: bool
    witnesses: tuple[Witness, ...]

    def __bool__(self) -> bool:
        return self.commutative


class SuperVerdict(Record):
    supercommutative: bool
    witnesses: tuple[Witness, ...]

    def __bool__(self) -> bool:
        return self.supercommutative


def _commutative_witnesses(spec: AlgebraSpec) -> list[Witness]:
    pairs, den = spec.pair_matrix
    step = spec.datum.ell * den
    m = len(spec.generators)
    out = []
    for i in range(m):
        if pairs[i][i] % step:
            out.append(Witness("diagonal", i, i, Fraction(pairs[i][i], den)))
        for j in range(i + 1, m):
            if 2 * pairs[i][j] % step:
                out.append(Witness("off_diagonal", i, j, Fraction(2 * pairs[i][j], den)))
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
    bad = _commutative_witnesses(spec)
    m = len(spec.generators)
    pairs, den = spec.pair_matrix
    step = spec.datum.ell * den
    odd = [2 * x for x in pairs[m]]
    if odd[m] % step or not odd[m] % (2 * step):
        bad.append(Witness("odd_diagonal", m, m, Fraction(odd[m], den)))
    for j in range(m):
        if odd[j] % step:
            bad.append(Witness("odd_even", m, j, Fraction(odd[j], den)))
    return SuperVerdict(not bad, tuple(bad))


def spec_verdict(spec: AlgebraSpec):
    """The spec's own validity check: commutative or supercommutative."""
    return spec.verdict


def exponent_from_coefficients(spec: AlgebraSpec, left, right) -> ExponentModL:
    """Normal-form exponent for elements given by generator coefficients:
    the sum of left_i <b_i, b_k> right_k over basis indices i > k."""
    return ExponentModL(
        Fraction(bilinear(spec._lower_pairs, left, right), spec.pair_matrix[1]),
        spec.datum.ell,
    )


def structure_constant_exponent(spec: AlgebraSpec, lam: Weight, mu: Weight) -> ExponentModL:
    """Normal-form structure-constant exponent on a pair of lattice elements."""
    return exponent_from_coefficients(
        spec, spec.coefficients(lam), spec.coefficients(mu)
    )


class CocycleTable(Record):
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


def check_box_budget(box: int, dimension: int) -> None:
    """Raise BudgetExceeded when a box has more than MAX_TABLE_ENTRIES pairs."""
    size = (2 * box + 1) ** (2 * dimension)
    if size > MAX_TABLE_ENTRIES:
        raise BudgetExceeded(f"box {box} has {size} coefficient pairs, over {MAX_TABLE_ENTRIES}")


def structure_constant_table(spec: AlgebraSpec, box: int) -> CocycleTable:
    """The normal-form table on all coefficient pairs within the box."""
    check_box_budget(box, len(spec.ordered_basis))
    vecs = list(
        product(range(-box, box + 1), repeat=len(spec.ordered_basis))
    )
    entries = {
        (n, m): exponent_from_coefficients(spec, n, m)
        for n in vecs
        for m in vecs
    }
    return CocycleTable(spec.ordered_basis, box, spec.datum.ell, entries)


def _in_box_pairs(vecs: list) -> list:
    """For each vector of the box, listed in lexicographic order as vecs,
    the index pairs (j, k) with vecs[j] in the box and vecs[k] its sum
    with that vector, for every sum that stays in the box."""
    index = {v: i for i, v in enumerate(vecs)}
    return [
        [(j, k) for j, v2 in enumerate(vecs) if (k := index.get(tuple(map(add, v1, v2)))) is not None]
        for v1 in vecs
    ]


class CocycleVerdict(Record):
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

    The in-box exponents and the pairings are read once as integers over
    one common denominator M, and tested on integers modulo M * ell; a
    missing in-box entry raises IncompleteTable, the first one in
    lexicographic order.
    """
    pairs, p = pairing_matrix(datum, table.generators)
    vecs = list(table.vectors())
    values = [[table.lookup(v1, v2).value for v2 in vecs] for v1 in vecs]
    den = lcm(p, *(x.denominator for row in values for x in row))
    e = [[x.numerator * (den // x.denominator) for x in row] for row in values]
    scale, mod = den // p, den * table.ell
    z = vecs.index((0,) * table.dimension)
    in_box = _in_box_pairs(vecs)

    structure_violation = next(
        (("unit", v) for i, v in enumerate(vecs) if e[i][z] % mod or e[z][i] % mod), None
    ) or next(
        (
            ("associativity", vecs[i1], vecs[i2], vecs[i3])
            for i1, row in enumerate(in_box)
            for i2, i12 in row
            for i3, i23 in in_box[i2]
            if (e[i12][i3] + e[i1][i2] - e[i1][i23] - e[i2][i3]) % mod
        ),
        None,
    )
    commutative_violation = next(
        (
            ("commutativity", v1, v2)
            for i1, v1 in enumerate(vecs)
            for i2, v2 in enumerate(vecs)
            if (e[i1][i2] - e[i2][i1] - scale * bilinear(pairs, v1, v2)) % mod
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


class GaugeResult(Record):
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

    vecs = list(table.vectors())
    # Fewer nonzero components first, so each head is known before its vector.
    for vec in sorted(vecs, key=lambda v: len(v) - v.count(0)):
        if vec not in phi:
            k = max(i for i, c in enumerate(vec) if c)
            head = vec[:k] + (0,) * (dims - k)
            tail = unit_vec(k, vec[k])
            phi[vec] = ExponentModL(
                phi[head].value + phi[tail].value - table.lookup(head, tail).value, ell
            )

    entries = {}
    for v1, row in zip(vecs, _in_box_pairs(vecs)):
        for j, k in row:
            v2 = vecs[j]
            entries[(v1, v2)] = ExponentModL(
                table.lookup(v1, v2).value + phi[vecs[k]].value - phi[v1].value - phi[v2].value,
                ell,
            )
    normalized = CocycleTable(table.generators, box, ell, entries)
    return GaugeResult(phi, normalized)
