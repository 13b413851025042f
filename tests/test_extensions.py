import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uproll._linalg
from uproll import (
    AlgebraSpec,
    BqSpec,
    ExtWeight,
    RationalLattice,
    Weight,
    bq_check_commutative,
    bq_equivalent,
    bq_is_local,
    bq_monodromy_exponent,
    bq_ribbon_verdict,
    bq_transparent,
    bq_twist_exponent,
    build_cartan_datum,
    triplet_report,
    weight,
)
from uproll.errors import NonADESeries, NotLocal, OddEll

A1_4 = build_cartan_datum("A", 1, 4)
A2_4 = build_cartan_datum("A", 2, 4)


def ext(a, b):
    return ExtWeight(weight(a), weight(b))


class TestTripletReport:
    @pytest.mark.parametrize(
        "series,rank,r,order",
        [("A", 1, 2, 4), ("A", 1, 3, 6), ("A", 1, 4, 8), ("A", 2, 2, 12), ("A", 3, 2, 32)],
    )
    def test_counts(self, series, rank, r, order):
        report = triplet_report(series, rank, r)
        assert report.commutative.commutative
        assert report.report.census.order == order
        assert report.expected_order == order
        assert report.match

    def test_a2_invariant_factors(self):
        report = triplet_report("A", 2, 2)
        assert report.report.census.invariant_factors == (2, 6)

    def test_structure_verdicts(self):
        report = triplet_report("A", 2, 2)
        assert report.report.ribbon.status == "ribbon"
        assert report.report.muger.transparent_reps == (weight([0, 0]),)
        assert report.report.muger.trivial

    def test_non_ade_rejected(self):
        for series in ("B", "C", "F", "G"):
            with pytest.raises(NonADESeries):
                triplet_report(series, 2, 2)

    def test_d4_matches_formula(self):
        report = triplet_report("D", 4, 2)
        assert report.match
        assert report.report.census.order == 4 * 2**4


class TestBqSpec:
    def test_default_is_r_times_weight_lattice(self):
        spec = BqSpec(A1_4)
        assert spec.algebra.lattice == RationalLattice(1, ((2,),), 1)
        assert spec.a_squared == Fraction(-1, 2)

    def test_odd_order_rejected(self):
        with pytest.raises(OddEll):
            BqSpec(build_cartan_datum("A", 1, 5))

    def test_commutative_at_the_special_value(self):
        for datum in (A1_4, A2_4, build_cartan_datum("A", 1, 6), build_cartan_datum("A", 2, 6)):
            assert bq_check_commutative(BqSpec(datum))

    def test_commutative_fails_off_the_special_value(self):
        spec = BqSpec(A1_4, a_squared=Fraction(-1, 4))
        assert not bq_check_commutative(spec)

    def test_empty_lattice_commutative(self):
        spec = BqSpec(A1_4, generators=())
        assert bq_check_commutative(spec)


@pytest.mark.parametrize("series,rank,ell", [("A", 1, 4), ("A", 2, 6), ("B", 2, 8), ("G", 2, 8)])
def test_bq_verdicts_on_the_standard_spec_and_on_twice_it(series, rank, ell, monkeypatch):
    # The standard flag is read off the algebra's own lattice; r*P as a second
    # lattice would cost a Hermite form that AlgebraSpec does not need.
    datum = build_cartan_datum(series, rank, ell)
    r, n = datum.r, datum.rank
    forms = []
    real = uproll._linalg.row_hermite_form
    monkeypatch.setattr(uproll._linalg, "row_hermite_form", lambda rows: forms.append(1) or real(rows))

    def scaled_identity(k):
        return [[k * r * (i == j) for j in range(n)] for i in range(n)]

    for generators, standard in ((None, True), ([Weight.over(row, 1) for row in scaled_identity(2)], False)):
        forms.clear()
        spec = BqSpec(datum, generators)
        bq_forms = len(forms)
        forms.clear()
        AlgebraSpec(datum, spec.algebra.generators)
        assert bq_forms == len(forms)
        assert spec.is_standard is standard
        assert spec.algebra.lattice == RationalLattice(n, scaled_identity(1 if standard else 2), 1)
        assert bq_check_commutative(spec)
        zero, diagonal = ext([0] * n, [0] * n), ext([1] + [0] * (n - 1), [1] + [0] * (n - 1))
        if standard:
            assert bq_is_local(spec, zero) and bq_is_local(spec, diagonal)
            assert bq_transparent(spec, zero) and not bq_transparent(spec, diagonal)
            assert not bq_equivalent(spec, zero, diagonal)
        else:
            for check in (bq_is_local, bq_transparent):
                with pytest.raises(ValueError, match="r\\*P"):
                    check(spec, zero)
    assert not BqSpec(datum, a_squared=Fraction(1, r)).is_standard


class TestBqLocality:
    def test_diagonal_is_local(self):
        assert bq_is_local(BqSpec(A1_4), ext([1], [1]))

    def test_mixed_is_not(self):
        assert not bq_is_local(BqSpec(A1_4), ext([1], [0]))

    def test_unit_is_local(self):
        assert bq_is_local(BqSpec(A1_4), ext([0], [0]))

    def test_requires_full_weight_lattice(self):
        spec = BqSpec(A1_4, generators=[weight([4])])
        with pytest.raises(ValueError):
            bq_is_local(spec, ext([0], [0]))


class TestBqEquivalence:
    def test_diagonal_shift(self):
        spec = BqSpec(A1_4)
        assert bq_equivalent(spec, ext([1], [1]), ext([3], [3]))

    def test_off_diagonal_shift_fails(self):
        spec = BqSpec(A1_4)
        assert not bq_equivalent(spec, ext([1], [1]), ext([1], [3]))

    def test_reflexive(self):
        spec = BqSpec(A1_4)
        w = ext([2], [0])
        assert bq_equivalent(spec, w, w)

    def test_not_local_rejected(self):
        spec = BqSpec(A1_4)
        with pytest.raises(NotLocal):
            bq_equivalent(spec, ext([1], [0]), ext([0], [0]))

    def test_equivalence_relation_on_random_locals(self):
        rng = random.Random(41)
        spec = BqSpec(A2_4)
        datum = A2_4

        def random_local():
            qg = weight([rng.randint(-4, 4), rng.randint(-4, 4)])
            shift = sum(
                (rng.randint(-2, 2) * datum.simple_root(i) for i in range(2)),
                Weight.zero(2),
            )
            return ExtWeight(qg, qg - shift)

        for _ in range(30):
            a, b, c = random_local(), random_local(), random_local()
            assert bq_equivalent(spec, a, a)
            assert bq_equivalent(spec, a, b) == bq_equivalent(spec, b, a)
            if bq_equivalent(spec, a, b) and bq_equivalent(spec, b, c):
                assert bq_equivalent(spec, a, c)


class TestBqExponents:
    def test_monodromy_examples(self):
        assert bq_monodromy_exponent(A1_4, ext([0], [0]), ext([3], [1])).canonical == 0
        assert bq_monodromy_exponent(A1_4, ext([2], [0]), ext([1], [1])).canonical == 2
        assert bq_monodromy_exponent(A1_4, ext([1], [1]), ext([1], [1])).canonical == 0

    def test_twist_examples(self):
        assert bq_twist_exponent(A1_4, ext([0], [0])).canonical == 0
        assert bq_twist_exponent(A1_4, ext([2], [2])).value == -2
        assert bq_twist_exponent(A1_4, ext([1], [1])).value == -1

    def test_twist_needs_even_order(self):
        with pytest.raises(OddEll):
            bq_twist_exponent(build_cartan_datum("A", 1, 5), ext([0], [0]))

    def test_balancing_identity(self):
        rng = random.Random(77)
        for _ in range(60):
            a = ext(
                [rng.randint(-5, 5), rng.randint(-5, 5)],
                [rng.randint(-5, 5), rng.randint(-5, 5)],
            )
            b = ext(
                [rng.randint(-5, 5), rng.randint(-5, 5)],
                [rng.randint(-5, 5), rng.randint(-5, 5)],
            )
            lhs = (
                bq_twist_exponent(A2_4, a + b)
                - bq_twist_exponent(A2_4, a)
                - bq_twist_exponent(A2_4, b)
            )
            assert lhs == bq_monodromy_exponent(A2_4, a, b)

    def test_monodromy_invariant_under_equivalent_shift(self):
        rng = random.Random(3)
        spec = BqSpec(A1_4)
        r = A1_4.r
        for _ in range(40):
            qg = weight([rng.randint(-4, 4)])
            probe = ExtWeight(qg, qg - rng.randint(-2, 2) * A1_4.simple_root(0))
            w = ExtWeight(weight([rng.randint(-4, 4)]), Weight.zero(1))
            shift = weight([r * rng.randint(-2, 2)])
            shifted = ExtWeight(w.qg + shift, w.fock_tilde + shift)
            before = bq_monodromy_exponent(A1_4, w, probe)
            after = bq_monodromy_exponent(A1_4, shifted, probe)
            assert before == after


class TestBqTransparency:
    def test_unit_is_transparent(self):
        assert bq_transparent(BqSpec(A1_4), ext([0], [0]))

    def test_unit_orbit_is_transparent(self):
        assert bq_transparent(BqSpec(A1_4), ext([2], [2]))

    def test_off_orbit_detected_by_probe(self):
        assert not bq_transparent(BqSpec(A1_4), ext([2], [0]))

    def test_not_local_rejected(self):
        with pytest.raises(NotLocal):
            bq_transparent(BqSpec(A1_4), ext([1], [0]))

    def test_matches_unit_orbit_on_exhaustive_box(self):
        spec = BqSpec(A1_4)
        unit = ext([0], [0])
        for a, b in product(range(-2, 3), repeat=2):
            w = ext([a], [b])
            if not bq_is_local(spec, w):
                continue
            assert bq_transparent(spec, w) == bq_equivalent(spec, w, unit)


# Even orders ell = 2r that satisfy the datum hypothesis r > max gcd(d_i, r).
UNIT_ORBIT_TYPES = [
    ("A", 1, 4), ("A", 2, 4), ("A", 3, 6), ("A", 4, 4),
    ("B", 2, 6), ("C", 2, 6), ("G", 2, 4), ("D", 4, 6),
]


class TestUnitOrbitMonodromy:
    """The unit orbit (r lam, r lam) braids trivially with every local weight.

    For a local probe (x, y) the monodromy is 2r<lam, x - y> with x - y in
    the root lattice, hence 0 mod 2r; this is why transparency reduces to
    equivalence with the unit.
    """

    @pytest.mark.parametrize("series,rank,ell", UNIT_ORBIT_TYPES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_unit_orbit_has_zero_monodromy_with_local_probes(self, series, rank, ell, data):
        datum = build_cartan_datum(series, rank, ell)
        spec = BqSpec(datum)
        ints = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
        rationals = st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            min_size=rank, max_size=rank,
        )
        orbit = datum.r * weight(data.draw(ints))
        w = ExtWeight(orbit, orbit)
        x = weight(data.draw(rationals))
        root = sum(
            (k * alpha for k, alpha in zip(data.draw(ints), datum.simple_roots)),
            Weight.zero(rank),
        )
        probe = ExtWeight(x, x - root)
        assert bq_is_local(spec, probe)
        assert bq_transparent(spec, w)
        assert bq_monodromy_exponent(datum, w, probe).canonical == 0


class TestBqRibbonVerdict:
    def test_even_r_rho_outside_root_lattice(self):
        assert bq_ribbon_verdict(A1_4) == "inconclusive"

    def test_even_r_rho_in_root_lattice(self):
        assert bq_ribbon_verdict(A2_4) == "ribbon"

    def test_odd_r(self):
        assert bq_ribbon_verdict(build_cartan_datum("A", 1, 6)) == "ribbon"
