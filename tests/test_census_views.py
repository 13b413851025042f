"""The census views: representatives held as their mixed-radix system
(CensusReps) and the census twists held as the census's quadratic form
(CensusTwists).

Each view is checked against what it stands for: the tuple of Weights
that the Hermite-box enumeration gives, a brute expansion of the radix,
and the dict of twist_exponent values taken one representative at a time.
"""

import pickle
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TRIPLET_CASES, draw_commutativity_specs, draw_super_specs
from uproll import (
    AlgebraSpec,
    CensusReps,
    CensusTwists,
    ExponentModL,
    Weight,
    _linalg,
    brute_transparent_reps,
    build_cartan_datum,
    census_twists,
    local_report,
    monodromy_exponent,
    muger_center,
    quotient_census,
    scaled_dual,
    simple_census,
    triplet_report,
    twist_exponent,
    weight,
)
from uproll import _census, cli, lattice, localmod
from uproll.errors import InfiniteCensus
from uproll.lattice import Census, _change_of_basis

# Triplet cases small enough to check rep by rep: (series, rank, r).
SMALL_TRIPLETS = [("D", 4, 3), ("E", 8, 2), ("A", 2, 2)]


def box_reps(datum, lat) -> tuple:
    """The representatives as Weights, enumerated by the rule they follow:
    every coefficient vector c with 0 <= c_i < H_ii, H the Hermite form of
    the change of basis, last coefficient fastest, over the dual's HNF
    rows."""
    part = scaled_dual(datum, lat)
    box = _linalg.row_hermite_form(_change_of_basis(part, lat))
    rows = [Weight(tuple(Fraction(x, part.denominator) for x in row)) for row in part.hnf]
    reps = []
    for coeffs in product(*(range(row[i]) for i, row in enumerate(box))):
        rep = Weight.zero(datum.rank)
        for c, step in zip(coeffs, rows):
            rep = rep + c * step
        reps.append(rep)
    return tuple(reps)


def a2_census():
    datum = build_cartan_datum("A", 2, 4)
    lat = lattice.canonical_basis(datum, [2 * a for a in datum.simple_roots])
    return datum, lat, quotient_census(scaled_dual(datum, lat), lat)


def valid_finite(specs):
    return [s for s in specs if s.verdict and simple_census(s).finite]


class TestCensusTwists:
    @pytest.mark.parametrize("series,rank,r", SMALL_TRIPLETS)
    def test_every_triplet_twist_equals_twist_exponent(self, series, rank, r):
        datum = build_cartan_datum(series, rank, 2 * r)
        report = triplet_report(series, rank, r)
        twists = report.report.twists
        assert isinstance(twists, CensusTwists)
        seen = 0
        for rep, e in twists.items():
            assert e.value == twist_exponent(datum, rep).value
            assert e.modulus == datum.ell
            seen += 1
        assert seen == len(twists) == report.expected_order

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_census_twists_equal_twist_exponent_on_helper_specs(self, seed):
        specs = draw_commutativity_specs(seed, 4)
        for spec in valid_finite(specs + draw_super_specs(specs)):
            census = simple_census(spec)
            twists = census_twists(spec.datum, census)
            assert len(twists) == census.order
            for rep, e in zip(census.reps, twists.values()):
                assert e.value == twist_exponent(spec.datum, rep).value
                assert twists[rep].value == e.value

    def test_mapping_reads(self):
        datum, lat, census = a2_census()
        twists = census_twists(datum, census)
        ref = {rep: twist_exponent(datum, rep) for rep in box_reps(datum, lat)}
        assert dict(twists) == ref
        assert [e.value for e in dict(twists).values()] == [e.value for e in ref.values()]
        assert list(twists) == list(ref)
        assert list(twists.items()) == list(ref.items())
        assert twists == ref
        outsider = weight(["1/2", 0])
        assert twists.get(outsider) is None
        assert outsider not in twists
        with pytest.raises(KeyError):
            twists[outsider]
        assert twists.get(weight([0, 0])).value == 0
        assert twists.get(weight([0, 0, 0])) is None
        assert twists.get("not a weight") is None

    def test_values_and_membership_solve_for_no_digits(self, monkeypatch):
        datum, _, census = a2_census()
        twists = census_twists(datum, census)
        ref = [twist_exponent(datum, rep) for rep in census.reps]
        monkeypatch.setattr(CensusReps, "digits",
                            lambda *args: pytest.fail("iteration solved for a rep's digits"))
        assert list(twists.values()) == ref
        assert [e for _, e in twists.items()] == ref
        monkeypatch.undo()

        built = []
        over = ExponentModL.over.__func__

        def counting_over(cls, *args):
            built.append(args)
            return over(cls, *args)

        monkeypatch.setattr(ExponentModL, "over", classmethod(counting_over))
        assert all(rep in twists for rep in census.reps)
        assert weight(["1/2", 0]) not in twists and "not a weight" not in twists
        assert built == []

    def test_a_report_on_a_big_census_enumerates_nothing(self, monkeypatch):
        def refuse(*args):
            pytest.fail("a report enumerated the census")

        monkeypatch.setattr(_census, "box_dots", refuse)
        a1 = build_cartan_datum("A", 1, 99856)
        reports = [(build_cartan_datum("E", 8, 8), triplet_report("E", 8, 4).report, 65536),
                   (a1, local_report(AlgebraSpec(a1, [weight([99856])])), 99856)]
        for datum, report, order in reports:
            reps, twists = report.census.reps, report.twists
            assert len(twists) == len(reps) == order
            assert twists.get(Weight.zero(datum.rank)).is_zero
            for i in (1, 2, 12345, order // 2, order - 2, -1):
                assert twists[reps[i]] == twist_exponent(datum, reps[i])

    def test_a_triplet_report_seeds_the_form_once_per_step(self, monkeypatch):
        calls = []
        real = localmod.twist_exponent
        monkeypatch.setattr(localmod, "twist_exponent",
                            lambda datum, lam: calls.append(lam) or real(datum, lam))
        report = triplet_report("E", 6, 3)
        steps = [Weight.over(step, report.report.census.reps.den)
                 for _, step in report.report.census.reps.radix]
        assert calls == steps and len(calls) == 6

    def test_infinite_census_has_no_twists(self):
        datum = build_cartan_datum("A", 2, 4)
        census = simple_census(AlgebraSpec(datum, [2 * datum.simple_root(0)]))
        assert not census.finite
        with pytest.raises(InfiniteCensus):
            census_twists(datum, census)

    def test_local_report_and_cli_read_census_twists(self, monkeypatch, tmp_path, capsys):
        from uproll import localmod

        calls = []
        real = localmod.census_twists

        def counting(datum, census):
            calls.append(census.order)
            return real(datum, census)

        monkeypatch.setattr(localmod, "census_twists", counting)
        local_report(AlgebraSpec(build_cartan_datum("A", 1, 4), [weight([4])]))
        path = tmp_path / "p.json"
        path.write_text('{"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]}')
        for argv in (["twists"], ["census", "--format", "tsv"], ["twists", "--format", "tsv"]):
            assert cli.run(argv + ["--input", str(path)]) == 0
        capsys.readouterr()
        assert calls == [4, 4, 4, 4]


def radical(twists) -> list:
    """The digit vectors c of the census box with Sum_i c_i twice[i][k] = 0
    mod ell * den for every step k, by a brute scan of the box."""
    mod = twists.ell * twists.den
    box = product(*(range(s) for s, _ in twists.reps.radix))
    return [c for c in box if all(sum(map(mul, c, col)) % mod == 0 for col in zip(*twists.twice))]


def check_radical(spec):
    """The census form's pairings are the steps' monodromies, and its
    radical is the zero digit vector alone, as muger_center's closed form
    says."""
    datum, census = spec.datum, simple_census(spec)
    twists = census_twists(datum, census)
    steps = [Weight.over(step, twists.reps.den) for _, step in twists.reps.radix]
    for a, row in zip(steps, twists.twice):
        for b, p in zip(steps, row):
            assert monodromy_exponent(datum, a, b).value == Fraction(p, twists.den)
    assert radical(twists) == [(0,) * len(steps)]
    muger = muger_center(spec)
    assert muger.trivial and muger.transparent_reps == (Weight.zero(datum.rank),)


class TestCensusFormRadical:
    @pytest.mark.parametrize("series,rank,r", SMALL_TRIPLETS)
    def test_triplet_censuses(self, series, rank, r):
        check_radical(triplet_spec(series, rank, r))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_drawn_commutative_specs(self, seed):
        for spec in valid_finite(draw_commutativity_specs(seed, 4)):
            if simple_census(spec).order <= 4374:
                check_radical(spec)


class TestCensusReps:
    def test_order_matches_the_weight_enumeration(self):
        for series, rank, r in SMALL_TRIPLETS:
            datum = build_cartan_datum(series, rank, 2 * r)
            lat = lattice.canonical_basis(datum, [r * a for a in datum.simple_roots])
            reps = quotient_census(scaled_dual(datum, lat), lat).reps
            assert isinstance(reps, CensusReps)
            assert tuple(reps) == box_reps(datum, lat)
            assert [reps[i] for i in range(len(reps))] == list(box_reps(datum, lat))

    def test_sequence_reads(self):
        datum, lat, census = a2_census()
        reps, ref = census.reps, box_reps(datum, lat)
        assert len(reps) == 12 and reps
        assert reps[-1] == ref[-1] and reps[-12] == ref[0]
        with pytest.raises(IndexError):
            reps[12]
        assert reps[2:7] == ref[2:7]
        assert reps[::-1] == ref[::-1]
        assert reps[-3:] == ref[-3:]
        assert reps[5:2] == ()
        for i, w in enumerate(ref):
            assert w in reps
            assert reps.index(w) == i
        for outsider in (weight(["1/2", 0]), weight([1, 0, 0]), weight([7, 7]), "text"):
            assert outsider not in reps
            with pytest.raises(ValueError):
                reps.index(outsider)

    def test_equality_and_hash_follow_the_tuple(self):
        datum, lat, census = a2_census()
        ref = box_reps(datum, lat)
        assert census.reps == ref and ref == census.reps
        assert hash(census.reps) == hash(ref)
        assert census.reps != ref[:-1]
        assert census.reps != ref[::-1]
        assert census.reps != list(ref)
        built = Census(census.finite, census.invariant_factors, ref, census.order, 0)
        assert census == built and built == census
        assert hash(census) == hash(built)
        # the same weights over a doubled denominator
        radix = [(s, tuple(2 * x for x in step)) for s, step in census.reps.radix]
        doubled = CensusReps(radix, 2 * census.reps.den, datum.rank)
        assert doubled == census.reps

    def test_pickle_round_trip(self):
        _, _, census = a2_census()
        again = pickle.loads(pickle.dumps(census))
        assert again == census
        assert isinstance(again.reps, CensusReps)
        assert again.reps.index(census.reps[5]) == 5
        assert Census._fields == ("finite", "invariant_factors", "reps", "order",
                                  "complement_dimension")

    def test_oracle_and_monodromy_read_the_reps_once(self, monkeypatch, tmp_path, capsys):
        reads = []
        real_iter, real_item = CensusReps.__iter__, CensusReps.__getitem__
        monkeypatch.setattr(CensusReps, "__iter__", lambda self: reads.append("iter") or real_iter(self))
        monkeypatch.setattr(CensusReps, "__getitem__",
                            lambda self, i: reads.append("item") or real_item(self, i))
        datum = build_cartan_datum("A", 2, 4)
        spec = AlgebraSpec(datum, [2 * a for a in datum.simple_roots])
        assert brute_transparent_reps(spec) == (weight([0, 0]),)
        assert reads == ["iter"]
        reads.clear()
        path = tmp_path / "p.json"
        path.write_text('{"series": "A", "rank": 2, "ell": 4, "lattice": [[4, -2], [-2, 4]]}')
        assert cli.run(["monodromy", "--input", str(path)]) == 0
        assert len(capsys.readouterr().out) > 0
        assert reads == ["iter"]


def brute_radix(reps) -> tuple:
    """Every combination of the steps with digits below their
    factors, last digit fastest, as Weights over the census denominator."""
    out = []
    for digits in product(*(range(s) for s, _ in reps.radix)):
        row = [0] * reps.rank
        for c, (_, step) in zip(digits, reps.radix):
            row = [y + c * x for y, x in zip(row, step)]
        out.append(Weight.over(row, reps.den))
    return tuple(out)


def check_views(spec) -> list:
    """Every read of the census views of a valid finite spec against the
    brute expansion of its radix, and the outsiders that each lookup must
    refuse; returns those outsiders."""
    datum, census = spec.datum, simple_census(spec)
    reps, twists = census.reps, census_twists(datum, census)
    brute = brute_radix(reps)
    n = len(brute)
    assert len(reps) == n == census.order and tuple(reps) == brute
    assert [reps[i] for i in range(n)] == list(brute)
    assert [reps[-k] for k in range(1, n + 1)] == [brute[-k] for k in range(1, n + 1)]
    for cut in (slice(None), slice(2, 7), slice(None, None, -1), slice(-3, None),
                slice(None, None, 3), slice(5, 2), slice(1, -1, 2)):
        assert reps[cut] == brute[cut]
    for i, w in enumerate(brute):
        assert w in reps and reps.index(w) == i == reps.position(w)
        assert twists[w] == twist_exponent(datum, w)
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            reps[bad]
    rank, den = reps.rank, reps.den
    outsiders = [
        Weight.zero(rank + 1),  # a wrong length
        Weight.over([1] + [0] * (rank - 1), 2 * den),  # a denominator not dividing den
    ]
    # Representatives moved by s steps along one digit, or by one step below 0.
    for s, step in reps.radix:
        a = Weight.over(step, den)
        outsiders += [brute[0] + s * a, brute[-1] + s * a, brute[0] - a]
    # A unit row over den outside the dual's lattice part has a digit that
    # is no integer, or lies outside the span of the steps.
    part = scaled_dual(datum, spec.extended_lattice)
    for j in range(rank):
        w = Weight.over([int(i == j) for i in range(rank)], den)
        if not lattice.contains(part, w):
            outsiders.append(w)
    for w in outsiders:
        assert w not in brute
        assert reps.position(w) is None and w not in reps
        assert twists.get(w) is None
        with pytest.raises(ValueError):
            reps.index(w)
        with pytest.raises(KeyError):
            twists[w]
    return outsiders


def triplet_spec(series, rank, r):
    datum = build_cartan_datum(series, rank, 2 * r)
    return AlgebraSpec(datum, [r * a for a in datum.simple_roots])


class TestMixedRadixViews:
    @pytest.mark.parametrize("series,rank,r,order", TRIPLET_CASES)
    def test_triplet_censuses(self, series, rank, r, order):
        check_views(triplet_spec(series, rank, r))

    @pytest.mark.parametrize("seed", [0, 1, 8, 11, 14])
    def test_super_and_half_integer_helper_censuses(self, seed):
        specs = draw_commutativity_specs(seed, 4)
        finite = valid_finite(specs + draw_super_specs(specs))
        assert finite
        for spec in finite:
            check_views(spec)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_drawn_specs(self, seed):
        specs = draw_commutativity_specs(seed, 3)
        for spec in valid_finite(specs + draw_super_specs(specs)):
            check_views(spec)

    def test_a_non_integral_digit(self):
        # B2 at ell 9, super: the steps are (1, 0) / 2 and (0, 2) / 2, so
        # (0, 1) / 2 solves to the digits (0, 1/2).
        datum = build_cartan_datum("B", 2, 9)
        spec = AlgebraSpec(datum, [weight([9, 0]), weight([18, -9])], mu=weight(["9/2", 0]))
        assert simple_census(spec).reps.radix == ((9, (1, 0)), (9, (0, 2)))
        assert weight([0, "1/2"]) in check_views(spec)

    def test_a_weight_outside_the_span(self):
        # A cyclic census of rank 2: one step, (1, 1).
        datum = build_cartan_datum("A", 2, 6)
        spec = AlgebraSpec(datum, [weight([3, 0]), weight([0, 3])])
        assert simple_census(spec).reps.radix == ((3, (1, 1)),)
        outsiders = check_views(spec)
        assert weight([1, 0]) in outsiders and weight([0, 1]) in outsiders

    def test_order_one_census_has_an_empty_radix(self):
        datum = build_cartan_datum("B", 1, 4)
        spec = AlgebraSpec(datum, [weight([4])], mu=weight([2]))
        reps = simple_census(spec).reps
        assert reps.radix == () and len(reps) == 1
        assert tuple(reps) == (weight([0]),) == reps[:] == reps[::-1]
        assert reps[0] == reps[-1] == weight([0])
        assert reps.index(weight([0])) == 0 and weight([1]) not in reps
        check_views(spec)
        with pytest.raises(IndexError):
            CensusReps((), 1, 3)[1]
        assert list(CensusReps((), 1, 3)) == [Weight.zero(3)]

    def test_repr_lists_the_representatives(self):
        datum = build_cartan_datum("A", 1, 4)
        lat = lattice.canonical_basis(datum, [weight([4])])
        reps = quotient_census(scaled_dual(datum, lat), lat).reps
        assert repr(reps) == "CensusReps((Weight(0), Weight(1), Weight(2), Weight(3)))"
        assert repr(CensusReps((), 1, 3)) == "CensusReps((Weight(0, 0, 0),))"

    def test_a_triplet_report_builds_no_row_table(self, monkeypatch):
        assert CensusReps.__slots__ == ("radix", "den", "rank")

        def refuse(name):
            return lambda *args: pytest.fail(f"CensusReps.{name} read the rows")

        for name in ("__iter__", "__getitem__"):
            monkeypatch.setattr(CensusReps, name, refuse(name))
        solves = []
        real = _linalg.combination_in_rows
        monkeypatch.setattr(_linalg, "combination_in_rows",
                            lambda *args: solves.append(args) or real(*args))
        report = triplet_report("E", 7, 3)
        solves.clear()
        reps = report.report.census.reps
        assert not hasattr(reps, "__dict__")
        assert report.report.twists.get(Weight.zero(7)).is_zero
        assert solves == []
        assert len(reps) == report.expected_order == 4374
