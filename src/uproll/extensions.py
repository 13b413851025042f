"""The two flagship extensions: the triplet algebra on r*Q and the
Heisenberg-augmented algebra on r*P.

The triplet construction takes an ADE type at ell = 2r, extends along
r times the root lattice, and reports the full local-module structure
together with the expected simple count det(A) * r^rank.

The augmented construction pairs each current of weight lam with a Fock
module of weight a*lam where a**2 = -1/r.  The imaginary constant a is
never evaluated: every formula is pre-substituted with a**2, so a Fock
weight a*gamma is stored through its rational shadow gamma (the "tilde"
coordinate) and all exponents stay rational.  Pairings acquire a factor
a**2 = -1/r per Fock slot, which is where the minus signs below come
from.  The currents are an AlgebraSpec: the generator check, the integer
pair matrix and the commutativity scan are the algebra layer's.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .algebra import AlgebraSpec, CommutativityVerdict, commutativity_witnesses
from .cartan import (
    CartanDatum,
    ExponentModL,
    Weight,
    _ratio,
    bilinear,
    build_cartan_datum,
    cartan_determinant,
    in_root_lattice,
    scaled_coords,
)
from .errors import NonADESeries, NotLocal, OddEll
from .lattice import RationalLattice
from .localmod import LocalReport, local_report, monodromy_exponent, twist_exponent


class TripletReport(Record):
    """Local-module structure of the extension along r times the root lattice."""

    series: str
    rank: int
    r: int
    ell: int
    commutative: CommutativityVerdict
    report: LocalReport
    expected_order: int
    match: bool


def triplet_report(series: str, rank: int, r: int) -> TripletReport:
    """Build the r*Q extension for an ADE type and report its structure.

    The expected simple count is det(A) * r^rank; match records whether
    the census agrees.
    """
    series = str(series).upper()
    if series not in ("A", "D", "E"):
        raise NonADESeries(f"triplet extension needs series A, D or E, got {series!r}")
    datum = build_cartan_datum(series, rank, 2 * r)
    spec = AlgebraSpec(datum, [r * alpha for alpha in datum.simple_roots])
    report = local_report(spec)
    expected = cartan_determinant(series, datum.rank) * r ** datum.rank
    return TripletReport(
        series=series,
        rank=datum.rank,
        r=r,
        ell=datum.ell,
        commutative=spec.verdict,
        report=report,
        expected_order=expected,
        match=report.census.order == expected,
    )


class ExtWeight(Record):
    """Weight of a current-Fock pair.

    fock_tilde is the rational shadow of the Fock weight: the actual
    Fock weight is a * fock_tilde with a**2 = -1/r, and only the shadow
    is ever stored.
    """

    qg: Weight
    fock_tilde: Weight

    def __add__(self, other: "ExtWeight") -> "ExtWeight":
        return ExtWeight(self.qg + other.qg, self.fock_tilde + other.fock_tilde)


class BqSpec(Record):
    """Augmented extension data: the currents' AlgebraSpec and a**2.

    a**2 feeds bq_check_commutative and is_standard only: bq_twist_exponent
    and bq_monodromy_exponent take the datum alone, at a**2 = -1/r.  It is
    built, and pickles, as BqSpec(datum, generators or r*P, a**2 or -1/r).
    """

    algebra: AlgebraSpec
    a_squared: Fraction
    # Whether the locality formula of bq_is_local applies: the lattice is r*P and a**2 = -1/r.
    is_standard: bool

    def __init__(self, datum: CartanDatum, generators=None, a_squared=None):
        if datum.ell % 2:
            raise OddEll("the augmented construction needs ell = 2r even")
        n = datum.rank
        # r*P as the rows r*I over 1, which are also its Hermite form.
        r_identity = tuple(tuple(datum.r * (i == j) for j in range(n)) for i in range(n))
        if generators is None:
            generators = [Weight.over(row, 1) for row in r_identity]
        algebra = AlgebraSpec(datum, generators)
        special = Fraction(-1, datum.r)
        a_squared = special if a_squared is None else Fraction(*_ratio(a_squared))
        standard = algebra.lattice == RationalLattice(n, r_identity, 1) and a_squared == special
        super().__init__(algebra, a_squared, standard)

    def __reduce__(self):
        return type(self), (self.algebra.datum, self.algebra.generators, self.a_squared)


def bq_check_commutative(spec: BqSpec) -> bool:
    """Commutativity of the augmented algebra on its generators.

    With c = 1 + r * a**2 the conditions are c<g, g> in 2r*Z on each
    generator and c<g, h> in r*Z on distinct pairs; bilinearity then
    covers the whole lattice.  As ell = 2r, they are the even algebra's
    congruences, c<g, g> in ell*Z and 2c<g, h> in ell*Z, on the pair
    matrix scaled by c.
    """
    a2 = spec.a_squared
    c = a2.denominator + spec.algebra.datum.r * a2.numerator  # c / a2.denominator = 1 + r * a**2
    pairs, den = spec.algebra.pair_matrix
    scaled = [[c * x for x in row] for row in pairs]
    return not commutativity_witnesses(scaled, den * a2.denominator, spec.algebra.datum.ell, len(pairs))


def bq_is_local(spec: BqSpec, w: ExtWeight) -> bool:
    """Locality of an induced current-Fock module over the r*P extension.

    With a**2 = -1/r the condition reduces to qg - fock_tilde lying in
    the root lattice.  Raises ValueError for another lattice or another
    a**2, where the formula does not apply.
    """
    if not spec.is_standard:
        raise ValueError("the locality formula is specific to the lattice r*P and a**2 = -1/r")
    return in_root_lattice(spec.algebra.datum, w.qg - w.fock_tilde)


def bq_equivalent(spec: BqSpec, w: ExtWeight, other: ExtWeight) -> bool:
    """Whether two local weights induce the same simple module.

    The identifications shift both slots by the same element of r*P, so
    in tilde coordinates the difference must be diagonal and r-divisible.
    """
    for candidate in (w, other):
        if not bq_is_local(spec, candidate):
            raise NotLocal(f"{candidate!r} does not induce a local module")
    dq = other.qg - w.qg
    step = spec.algebra.datum.r * dq.den
    return dq == other.fock_tilde - w.fock_tilde and all(a % step == 0 for a in dq.row)


def bq_monodromy_exponent(datum: CartanDatum, w: ExtWeight, other: ExtWeight) -> ExponentModL:
    """Double-braiding exponent 2<qg, qg'> - 2<t, t'> mod ell = 2r.

    The Fock slots contribute 2r<a t, a t'> = -2<t, t'> after the
    substitution a**2 = -1/r.
    """
    if datum.ell % 2:
        raise OddEll("the augmented monodromy needs ell = 2r even")
    return monodromy_exponent(datum, w.qg, other.qg) - monodromy_exponent(
        datum, w.fock_tilde, other.fock_tilde
    )


def bq_twist_exponent(datum: CartanDatum, w: ExtWeight) -> ExponentModL:
    """Twist exponent <qg, qg + 2(1-r) rho> - <t, t> mod 2r."""
    if datum.ell % 2:
        raise OddEll("the augmented twist needs ell = 2r even")
    t, den = scaled_coords(datum, w.fock_tilde)
    square = bilinear(datum.scaled_gram, t, t)
    fock = ExponentModL.over(square, datum.gram_denominator * den * den, datum.ell)
    return twist_exponent(datum, w.qg) - fock


def bq_transparent(spec: BqSpec, w: ExtWeight) -> bool:
    """Transparency of a local weight against the whole local family.

    The transparent weights are exactly the unit orbit, so this is
    equivalence with the unit (0, 0).  No monodromy probe can say more: a
    unit-orbit weight (r lam, r lam) and a local weight (x, y) have
    monodromy 2r<lam, x - y> with x - y in the root lattice, which is
    0 mod 2r because <omega_i, alpha_j> = d_j delta_ij.  Raises NotLocal
    for a weight that is not local.
    """
    zero = Weight.zero(spec.algebra.datum.rank)
    return bq_equivalent(spec, w, ExtWeight(zero, zero))


def bq_ribbon_verdict(datum: CartanDatum) -> str:
    """"ribbon" when r is odd or rho lies in the root lattice, else
    "inconclusive" (the criterion is sufficient only)."""
    if datum.r % 2 == 1 or in_root_lattice(datum, datum.rho):
        return "ribbon"
    return "inconclusive"
