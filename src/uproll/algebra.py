"""(Super)commutative algebra structures on lattice simple-current sums.

A spec fixes an ordered generator list for the even lattice L, plus an
optional odd generator mu with mu not in L and 2*mu in L.  Structure
constants of the algebra product are pure powers of q and are handled
entirely in exponent space: the normal form on a pair of elements with
generator coefficients n, m is

    e(n, m) = sum over k of < lam^{>k}, mu^k >,

where lam^{>k} collects the generator components of index greater than k
and mu^k is the k-th component; structure_constant_table(spec, box)
holds it at every pair (n, m) of the box as entries[(n, m)].
Gauge-equivalent tables differ by the coboundary of a 1-cochain phi, and
the normalization recursion recovers the normal form from any valid table.

A table on the coefficient box [-box, box]^d is stored as a form plus a
cochain, integers over one denominator den: B's strictly lower matrix and
a cochain f on the doubled box, zero at 0, with e = B + f(a + b) - f(a) - f(b).
Building a table stores B, twisting adds to f, and normalizing reads its gauge
cochain off f and returns B, so none of them writes a row per box vector;
ExponentModL values appear only at the boundary: a table built from a
mapping, read through its mapping view, or a gauge cochain returned.

The odd-odd sign of a superalgebra is an exponent shift of ell/2 when
ell is even; for odd ell no power of q equals -1, so the sign is kept as
separate bookkeeping by callers and the exponent tables stay unsigned.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING

from ._record import Record
from .cartan import CartanDatum, ExponentModL, Weight, in_simple_current_lattice, pairing_matrix
from .errors import MuNotHalfOdd, NotInSimpleCurrentLattice, check_budget
from .lattice import RationalLattice, adjoin, canonical_basis, contains

if TYPE_CHECKING:
    from ._table import CocycleTable

# The most entries a structure-constant table may hold.  A spec's pair
# matrix, the brute-force oracles and the CLI pair lists share the bound.
MAX_TABLE_ENTRIES = 100_000


class AlgebraSpec(Record):
    """An algebra of simple currents: ordered even generators, optional odd one.

    The generator order is significant: the structure-constant normal
    form depends on it, though different orders give isomorphic algebras.
    With k generators, mu included, and k**2 above MAX_TABLE_ENTRIES, it
    raises BudgetExceeded before its lattice is built.  After its checks it
    takes, once, the pair matrix of the ordered basis as integers P over one
    denominator p, <b_i, b_j> = P_ij / p, and its verdict.  It equals, and
    pickles as, a spec built from the same datum, generators and mu.
    """

    datum: CartanDatum
    generators: tuple[Weight, ...]
    mu: Weight | None
    lattice: RationalLattice
    extended_lattice: RationalLattice
    pair_matrix: tuple[tuple[tuple[int, ...], ...], int]
    verdict: CommutativityVerdict | SuperVerdict

    def __init__(self, datum: CartanDatum, generators, mu: Weight | None = None):
        generators = tuple(generators)
        k = len(generators) + (mu is not None)
        check_budget("spec", k * k, f"pairs of {k} generators", MAX_TABLE_ENTRIES)
        for g in generators:
            if not in_simple_current_lattice(datum, g):
                raise NotInSimpleCurrentLattice(f"generator {g!r} is outside the simple-current lattice")
        lattice = extended = canonical_basis(datum, generators)
        if mu is not None:
            if not in_simple_current_lattice(datum, mu):
                raise NotInSimpleCurrentLattice(f"odd generator {mu!r} is outside the simple-current lattice")
            extended = adjoin(lattice, mu)
            if contains(lattice, mu):
                raise MuNotHalfOdd(f"odd generator {mu!r} already lies in L")
            if not contains(lattice, 2 * mu):
                raise MuNotHalfOdd(f"twice the odd generator {mu!r} must lie in L")
        pairs = pairing_matrix(datum, generators if mu is None else generators + (mu,))
        # The checks read the six fields before the verdict, so those are written first.
        for set_field, value in zip(self._setters, (datum, generators, mu, lattice, extended, pairs)):
            set_field(self, value)
        self._setters[-1](self, check_commutative(self) if mu is None else check_supercommutative(self))

    def __reduce__(self):
        return type(self), (self.datum, self.generators, self.mu)

    @property
    def ordered_basis(self) -> tuple[Weight, ...]:
        """Even generators followed by the odd one when present."""
        return self.generators if self.mu is None else self.generators + (self.mu,)


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


def commutativity_witnesses(pairs, den: int, ell: int, m: int) -> list[Witness]:
    """The failures of P_ii / den and 2 P_ij / den in ell*Z for i, j < m."""
    step = ell * den
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
    bad = commutativity_witnesses(*spec.pair_matrix, spec.datum.ell, len(spec.generators))
    return CommutativityVerdict(not bad, tuple(bad))


def check_supercommutative(spec: AlgebraSpec) -> SuperVerdict:
    """Supercommutativity of the two-graded algebra attached to (L, mu).

    Requires the even part to be commutative, 2<mu, mu> in ell*Z but not
    in 2*ell*Z, and 2<mu, g> in ell*Z for every even generator g.
    """
    if spec.mu is None:
        raise ValueError("check_supercommutative expects a spec with an odd generator")
    m = len(spec.generators)
    pairs, den = spec.pair_matrix
    bad = commutativity_witnesses(pairs, den, spec.datum.ell, m)
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


def check_box_budget(box: int, dimension: int) -> None:
    """Refuse a negative box (ValueError: it would be empty, and every check
    on it vacuous) and one of more than MAX_TABLE_ENTRIES pairs."""
    if box < 0:
        raise ValueError(f"box bound must be >= 0, got {box}")
    check_budget("box", (2 * box + 1) ** (2 * dimension), f"coefficient pairs in box {box}", MAX_TABLE_ENTRIES)


def structure_constant_table(spec: AlgebraSpec, box: int) -> CocycleTable:
    """The normal-form table on all coefficient pairs within the box: row n
    is e(n, m) = w.m, with w = n P_lower the integer row of n against the
    strictly lower pair matrix."""
    from ._table import CocycleTable, TableEntries, box_grid

    pairs, den = spec.pair_matrix
    lower = tuple(tuple(x if k < i else 0 for k, x in enumerate(row)) for i, row in enumerate(pairs))
    grid = box_grid(len(spec.ordered_basis), box)
    entries = TableEntries(grid, spec.datum.ell, lower, None, den, False, None)
    return CocycleTable(spec.ordered_basis, box, spec.datum.ell, entries)


class CocycleVerdict(Record):
    valid: bool
    commutative: bool
    first_violation: tuple | None


def cocycle_check(table: CocycleTable, datum: CartanDatum) -> CocycleVerdict:
    """Verify the algebra-object congruences of a table on its box.

    Checks the unit rows e(a, 0) = e(0, a) = 0, associativity
    e(a+b, c) + e(a, b) = e(a, b+c) + e(b, c) on every triple of box
    vectors with a+b and b+c in the box (a+b+c may leave it: e(a+b, c)
    and e(a, b+c) are read all the same), and the ungraded commutation
    relation e(a, b) = e(b, a) + <a, b> on every pair, all modulo ell.
    Validity means unit plus associativity; the commutation relation is
    reported separately (tables of supercommutative algebras fail it on
    odd-odd pairs by the half-shift, which is the expected sign).

    A table the library built is B plus a coboundary on every pair, and so
    is a table read from a mapping that factors that way (see
    uproll._table.factored).  Then the unit rows and associativity hold, as
    every cochain is zero at 0, and the commutation defect is bilinear, so
    the unit pairs decide it.  Any other table is scanned in
    lexicographic order, which fixes first_violation.  The first missing
    entry raises IncompleteTable.
    """
    from ._table import violations

    if datum.ell != table.ell:
        raise ValueError(f"table at order {table.ell} of q, datum at order {datum.ell}")
    structure, commutation = violations(table.entries, *pairing_matrix(datum, table.generators))
    return CocycleVerdict(structure is None, commutation is None, structure or commutation)


def apply_coboundary(table: CocycleTable, phi: dict) -> CocycleTable:
    """Twist a table by the coboundary of a 1-cochain on coefficient vectors.

    phi maps coefficient vectors to ExponentModL values at the table's
    order of q and must cover every in-box pair sum (so, the box of width
    2*box), with phi(0) = 0 modulo ell, taken as 0 (ValueError names any
    other value).  It is read once into integers over one denominator,
    listed by mixed-radix position in that doubled box, and added to the
    table's cochain.
    """
    from ._table import CocycleTable, coboundary

    return CocycleTable(table.generators, table.box, table.ell, coboundary(table.entries, phi))


class GaugeResult(Record):
    """Gauge 1-cochain (read-only, on coefficient vectors) and the normalized table."""

    phi: MappingProxyType
    normalized: CocycleTable

    def __init__(self, phi, normalized: CocycleTable):
        super().__init__(MappingProxyType(dict(phi)), normalized)

    def __reduce__(self):
        return type(self), (dict(self.phi), self.normalized)


def gauge_normalize(table: CocycleTable, spec: AlgebraSpec) -> GaugeResult:
    """Normalize a valid table by the gauge recursion.

    The cochain starts from phi = 0 on each generator and is extended by

        phi(n g_i) = phi((n-1) g_i) + phi(g_i) - e((n-1) g_i, g_i)

    for ascending n, by the reindexed relation downward for negative n,
    and by splitting off the last nonzero component for mixed vectors.
    The normalized table carries entries for every in-box pair whose sum
    stays in the box, and on those pairs it agrees with the normal form.
    The recursion is linear and zero on the form B, so on a table B + f(a +
    b) - f(a) - f(b) it gives phi(v) = sum_i v_i f(g_i) - f(v) and the
    normalized table B; it runs (uproll._table.gauge_cochain) only on the
    residual rows of a table read from a mapping that is not of that shape.
    phi is returned as a read-only mapping of ExponentModL.
    """
    from ._table import CocycleTable, normalize

    if spec.ordered_basis != table.generators:
        raise ValueError("table generators do not match the spec's ordered basis")
    entries, ell = table.entries, table.ell
    f, normalized = normalize(entries)
    phi = {v: ExponentModL.over(x, entries.den, ell) for v, x in zip(entries.grid.vecs, f)}
    return GaugeResult(phi, CocycleTable(table.generators, table.box, ell, normalized))
