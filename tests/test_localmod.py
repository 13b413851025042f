import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ALL_TYPES,
    TRIPLET_CASES,
    TYPE_POOL,
    draw_commutativity_specs,
    draw_super_specs,
    random_weight,
    sympy_form,
    sympy_gram,
)
from uproll import (
    AlgebraSpec,
    brute_transparent_reps,
    build_cartan_datum,
    check_commutative,
    check_ribbon,
    contains,
    is_local,
    local_report,
    monodromy_exponent,
    muger_center,
    simple_census,
    triplet_report,
    twist_exponent,
    weight,
)
from uproll import algebra, localmod
from uproll.errors import AlgebraInvalid, InfiniteCensus, InternalError
from uproll.lattice import Census, RationalLattice, discriminant_matrix, in_dual, quotient_census, scaled_dual
from uproll.oracle import is_multiple, pairing

A1_4 = build_cartan_datum("A", 1, 4)
A2_4 = build_cartan_datum("A", 2, 4)


def doubled_root_spec():
    return AlgebraSpec(A1_4, [2 * A1_4.simple_root(0)])


def super_spec():
    alpha = A1_4.simple_root(0)
    return AlgebraSpec(A1_4, [2 * alpha], mu=alpha)


class TestIsLocal:
    def test_fundamental_is_local(self):
        assert is_local(doubled_root_spec(), weight([1]))

    def test_half_fundamental_is_not(self):
        assert not is_local(doubled_root_spec(), weight(["1/2"]))

    def test_zero_is_local(self):
        assert is_local(super_spec(), weight([0]))

    def test_invalid_spec_rejected(self):
        bad = AlgebraSpec(A1_4, [A1_4.simple_root(0)])
        with pytest.raises(AlgebraInvalid):
            is_local(bad, weight([0]))

    def test_root_translation_invariance(self):
        rng = random.Random(17)
        spec = AlgebraSpec(A2_4, [2 * A2_4.simple_root(0), 2 * A2_4.simple_root(1)])
        for _ in range(40):
            lam = weight(
                [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(2)]
            )
            base = is_local(spec, lam)
            for i in range(2):
                assert is_local(spec, lam + A2_4.simple_root(i)) == base


def test_is_local_matches_the_definition_and_the_dual():
    # is_local tests the HNF rows of the extended lattice; the definition
    # quantifies over the ordered basis, which spans the same group.
    rng = random.Random(41)
    specs = [doubled_root_spec(), super_spec()] + [
        spec for spec in draw_commutativity_specs(41, 30) if spec.verdict
    ]
    checked = {True: 0, False: 0}
    for spec in specs:
        datum = spec.datum
        census = simple_census(spec)
        probes = [random_weight(rng, datum.rank, span=12, den=6) for _ in range(12)]
        probes += [Fraction(1, rng.randint(1, 6)) * w for w in probes[:4]]
        probes += list(census.reps or ())[:6]
        for lam in probes:
            expected = all(
                is_multiple(2 * pairing(datum, lam, b), datum.ell)
                for b in spec.ordered_basis
            )
            assert is_local(spec, lam) == expected
            assert in_dual(datum, spec.extended_lattice, lam.row, lam.den) == expected
            checked[expected] += 1
    assert min(checked.values()) >= 20


class TestSimpleCensus:
    def test_doubled_root(self):
        census = simple_census(doubled_root_spec())
        assert census.order == 4
        assert census.reps == (weight([0]), weight([1]), weight([2]), weight([3]))

    def test_super_census_is_unit_only(self):
        census = simple_census(super_spec())
        assert census.finite and census.order == 1
        assert census.reps == (weight([0]),)

    def test_empty_spec_is_infinite_over_the_whole_space(self):
        a2_6 = build_cartan_datum("A", 2, 6)
        census = simple_census(AlgebraSpec(a2_6, []))
        assert census == Census(False, (), None, None, 2)

    def test_rank_deficit_infinite(self):
        spec = AlgebraSpec(A2_4, [2 * A2_4.simple_root(0)])
        census = simple_census(spec)
        assert not census.finite

    def test_rank_deficit_takes_no_dual_or_change_of_basis(self, monkeypatch):
        # 2<2 alpha, 2 alpha>/4 = 4: one factor 4 and a line of complement.
        for name in ("scaled_dual", "quotient_census"):
            monkeypatch.setattr(localmod, name, lambda *args, name=name: pytest.fail(f"{name} was called"))
        census = simple_census(AlgebraSpec(A2_4, [2 * A2_4.simple_root(0)]))
        assert census == Census(False, (4,), None, None, 1)

    def test_a_fractional_discriminant_entry_is_an_internal_error(self):
        # <omega, omega> = 1/2 on A1, so 2<,>/4 is 1/4 on the lattice Z omega,
        # a lattice that no valid spec has.
        lattice = AlgebraSpec(A1_4, [2 * A1_4.simple_root(0)]).extended_lattice
        assert discriminant_matrix(A1_4, lattice) == [[4]]
        with pytest.raises(InternalError) as info:
            discriminant_matrix(A1_4, RationalLattice(1, ((1,),), 1))
        assert str(info.value) == "census: entry (0, 0) of 2<,>/ell on the lattice's Hermite basis is not an integer"

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), pool=st.sampled_from([TYPE_POOL, ALL_TYPES]))
    def test_factors_match_the_quotient_of_the_scaled_dual(self, seed, pool):
        # Full-rank, super and rank-deficient specs alike: the Smith form of
        # the discriminant matrix against the dual's change of basis.
        specs = draw_commutativity_specs(seed, 4, pool)
        for spec in specs + draw_super_specs(specs):
            if not spec.verdict:
                continue
            lattice = spec.extended_lattice
            census = simple_census(spec)
            expected = quotient_census(scaled_dual(spec.datum, lattice), lattice)
            assert census.invariant_factors == expected.invariant_factors
            assert census.complement_dimension == expected.complement_dimension
            assert census.finite == (lattice.rank == spec.datum.rank)

    def test_reps_are_local_and_distinct(self):
        for spec in (doubled_root_spec(), super_spec()):
            census = simple_census(spec)
            reps = census.reps
            lat = spec.extended_lattice
            for i, rep in enumerate(reps):
                assert is_local(spec, rep)
                for other in reps[i + 1 :]:
                    assert not contains(lat, rep - other)


class TestTwistAndMonodromy:
    def test_twist_examples(self):
        assert twist_exponent(A1_4, weight([0])).canonical == 0
        assert twist_exponent(A1_4, weight([1])).value == Fraction(-1, 2)
        assert twist_exponent(A1_4, weight([2])).canonical == 0

    def test_monodromy_examples(self):
        assert monodromy_exponent(A1_4, weight([0]), weight([3])).canonical == 0
        assert monodromy_exponent(A1_4, weight([1]), weight([1])).value == 1
        assert monodromy_exponent(A1_4, weight([1]), weight([2])).value == 2

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=2, max_size=2),
        b=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=2, max_size=2),
    )
    def test_balancing_identity(self, a, b):
        datum = build_cartan_datum("G", 2, 7)
        wa, wb = weight(a), weight(b)
        lhs = (
            twist_exponent(datum, wa + wb)
            - twist_exponent(datum, wa)
            - twist_exponent(datum, wb)
        )
        assert lhs == monodromy_exponent(datum, wa, wb)
        # also exact, before any reduction mod ell
        raw = (
            pairing(datum, wa + wb, wa + wb + (2 * (1 - datum.r)) * datum.rho)
            - pairing(datum, wa, wa + (2 * (1 - datum.r)) * datum.rho)
            - pairing(datum, wb, wb + (2 * (1 - datum.r)) * datum.rho)
        )
        assert raw == 2 * pairing(datum, wa, wb)

    @pytest.mark.parametrize("series,rank,r,order", TRIPLET_CASES)
    def test_twists_and_monodromy_match_sympy_on_triplet_census(self, series, rank, r, order):
        pytest.importorskip("sympy")
        datum = build_cartan_datum(series, rank, 2 * r)
        gram = sympy_gram(datum)
        shift = weight([2 * (1 - r)] * rank)
        reps = simple_census(AlgebraSpec(datum, [r * a for a in datum.simple_roots])).reps
        assert len(reps) == order
        for lam in reps:
            # the exact value, not only its class mod ell
            assert twist_exponent(datum, lam).value == sympy_form(gram, lam, lam + shift)
        for lam, mu in zip(reps, reps[::-1]):
            assert monodromy_exponent(datum, lam, mu).value == 2 * sympy_form(gram, lam, mu)


class TestCheckRibbon:
    def test_doubled_root_is_ribbon(self):
        assert check_ribbon(doubled_root_spec()).status == "ribbon"

    def test_super_spec_is_ribbon(self):
        assert check_ribbon(super_spec()).status == "ribbon"

    def test_inconclusive_case(self):
        datum = build_cartan_datum("A", 1, 8)
        spec = AlgebraSpec(datum, [weight([4])])
        verdict = check_ribbon(spec)
        assert verdict.status == "inconclusive"
        assert verdict.witnesses

    def test_generator_twists_vanish_on_ribbon_specs(self):
        specs = [doubled_root_spec()]
        for series, rank, r in [("A", 1, 3), ("A", 2, 2), ("A", 3, 2)]:
            datum = build_cartan_datum(series, rank, 2 * r)
            specs.append(AlgebraSpec(datum, [r * a for a in datum.simple_roots]))
        for spec in specs:
            assert check_ribbon(spec).status == "ribbon"
            for g in spec.generators:
                assert twist_exponent(spec.datum, g).canonical == 0


class TestMugerCenter:
    def test_doubled_root(self):
        report = muger_center(doubled_root_spec())
        assert report.transparent_reps == (weight([0]),)
        assert report.trivial
        assert not report.hypothesis_ok  # r = 2 divides 2*d

    def test_a2_doubled_roots(self):
        spec = AlgebraSpec(A2_4, [2 * A2_4.simple_root(0), 2 * A2_4.simple_root(1)])
        report = muger_center(spec)
        assert report.transparent_reps == (weight([0, 0]),)
        assert report.trivial

    def test_unit_only_census(self):
        report = muger_center(super_spec())
        assert report.transparent_reps == (weight([0]),)
        assert report.trivial

    def test_infinite_census_rejected(self):
        spec = AlgebraSpec(A2_4, [2 * A2_4.simple_root(0)])
        with pytest.raises(InfiniteCensus):
            muger_center(spec)

    def test_hypothesis_flag_true_case(self):
        datum = build_cartan_datum("A", 1, 6)
        spec = AlgebraSpec(datum, [3 * datum.simple_root(0)])
        assert muger_center(spec).hypothesis_ok  # r = 3 does not divide 2


def muger_cross_check_specs():
    """Triplet, doubled-root, super and hypothesis-flag specs, plus the valid
    full-rank random specs."""
    specs = []
    for series, rank, r, _ in TRIPLET_CASES:
        datum = build_cartan_datum(series, rank, 2 * r)
        specs.append(AlgebraSpec(datum, [r * a for a in datum.simple_roots]))
    a1_6 = build_cartan_datum("A", 1, 6)
    specs += [
        doubled_root_spec(),
        super_spec(),
        AlgebraSpec(A2_4, [2 * A2_4.simple_root(0), 2 * A2_4.simple_root(1)]),
        AlgebraSpec(a1_6, [3 * a1_6.simple_root(0)]),
    ]
    specs += [
        s for s in draw_commutativity_specs(20250809, 200)
        if check_commutative(s) and s.extended_lattice.rank == s.datum.rank
    ]
    return specs


class TestMugerClosedForm:
    def test_matches_the_pairwise_scan(self):
        specs = muger_cross_check_specs()
        assert any(not muger_center(s).hypothesis_ok for s in specs)
        assert len(specs) > 40
        for spec in specs:
            assert muger_center(spec).transparent_reps == brute_transparent_reps(spec)

    def test_both_reject_an_infinite_census(self):
        spec = AlgebraSpec(A2_4, [2 * A2_4.simple_root(0)])
        for check in (muger_center, brute_transparent_reps):
            with pytest.raises(InfiniteCensus):
                check(spec)

    def test_invalid_spec_rejected(self):
        with pytest.raises(AlgebraInvalid):
            muger_center(AlgebraSpec(A1_4, [A1_4.simple_root(0)]))

    def test_census_is_built_once_per_report(self, monkeypatch):
        calls = []
        real = localmod.quotient_census

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(localmod, "quotient_census", counting)
        muger_center(doubled_root_spec())
        assert len(calls) == 0
        local_report(doubled_root_spec())
        assert len(calls) == 1
        triplet_report("A", 2, 2)
        assert len(calls) == 2


class TestLocalReport:
    def test_shape(self):
        report = local_report(doubled_root_spec())
        assert report.census.order == 4
        assert set(report.twists) == set(report.census.reps)
        assert report.ribbon.status == "ribbon"
        assert report.muger.trivial

    def test_infinite_rejected(self):
        spec = AlgebraSpec(A2_4, [2 * A2_4.simple_root(0)])
        with pytest.raises(InfiniteCensus):
            local_report(spec)

    def test_spec_is_validated_once_per_report(self, monkeypatch):
        calls = []
        real = algebra.commutativity_witnesses

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(algebra, "commutativity_witnesses", counting)
        local_report(doubled_root_spec())
        assert len(calls) == 1
        local_report(super_spec())
        assert len(calls) == 2
        triplet_report("A", 2, 2)
        assert len(calls) == 3
