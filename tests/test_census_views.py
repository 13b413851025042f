"""The census views: representatives held as integer rows (CensusReps) and
the census twists computed by running sums (CensusTwists).

Each view is checked against what it stands for: the tuple of Weights
that the Smith-adapted enumeration gives, and the dict of
twist_exponent values taken one representative at a time.
"""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import draw_commutativity_specs, draw_super_specs
from uproll import (
    AlgebraSpec,
    CensusReps,
    CensusTwists,
    Weight,
    _linalg,
    brute_transparent_reps,
    build_cartan_datum,
    census_twists,
    local_report,
    quotient_census,
    scaled_dual,
    simple_census,
    triplet_report,
    twist_exponent,
    weight,
)
from uproll import cli, lattice
from uproll.errors import InfiniteCensus
from uproll.lattice import Census, _change_of_basis

# Triplet cases small enough to check rep by rep: (series, rank, r).
SMALL_TRIPLETS = [("D", 4, 3), ("E", 8, 2), ("A", 2, 2)]


def old_reps(datum, lat) -> tuple:
    """The representatives as Weights, enumerated as the census did before
    it held integer rows: every non-negative coefficient vector below the
    invariant factors, last coefficient fastest, over the Smith-adapted
    dual basis."""
    part = scaled_dual(datum, lat).lattice_part
    diag, vinv = _linalg.smith_normal_form(_change_of_basis(part, lat))
    reps = [Weight.zero(datum.rank)]
    for s, row in zip(diag, vinv):
        step = Weight(tuple(
            Fraction(sum(v * h[j] for v, h in zip(row, part.hnf)), part.denominator)
            for j in range(datum.rank)
        ))
        reps = [rep + c * step for rep in reps for c in range(s)]
    return tuple(reps)


def a2_census():
    datum = build_cartan_datum("A", 2, 4)
    lat = lattice.canonical_basis(datum, [2 * a for a in datum.simple_roots])
    return datum, lat, quotient_census(datum, scaled_dual(datum, lat), lat)


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
        old = {rep: twist_exponent(datum, rep) for rep in old_reps(datum, lat)}
        assert dict(twists) == old
        assert [e.value for e in dict(twists).values()] == [e.value for e in old.values()]
        assert list(twists) == list(old)
        assert list(twists.items()) == list(old.items())
        assert twists == old
        outsider = weight(["1/2", 0])
        assert twists.get(outsider) is None
        assert outsider not in twists
        with pytest.raises(KeyError):
            twists[outsider]
        assert twists.get(weight([0, 0])).value == 0
        assert twists.get(weight([0, 0, 0])) is None
        assert twists.get("not a weight") is None

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
        monkeypatch.setattr(cli, "census_twists", counting)
        local_report(AlgebraSpec(build_cartan_datum("A", 1, 4), [weight([4])]))
        path = tmp_path / "p.json"
        path.write_text('{"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]}')
        for argv in (["twists"], ["census", "--format", "tsv"], ["twists", "--format", "tsv"]):
            assert cli.run(argv + ["--input", str(path)]) == 0
        capsys.readouterr()
        assert calls == [4, 4, 4, 4]


class TestCensusReps:
    def test_order_matches_the_weight_enumeration(self):
        for series, rank, r in SMALL_TRIPLETS:
            datum = build_cartan_datum(series, rank, 2 * r)
            lat = lattice.canonical_basis(datum, [r * a for a in datum.simple_roots])
            reps = quotient_census(datum, scaled_dual(datum, lat), lat).reps
            assert isinstance(reps, CensusReps)
            assert tuple(reps) == old_reps(datum, lat)
            assert [reps[i] for i in range(len(reps))] == list(old_reps(datum, lat))

    def test_sequence_reads(self):
        datum, lat, census = a2_census()
        reps, old = census.reps, old_reps(datum, lat)
        assert len(reps) == 12 and reps
        assert reps[-1] == old[-1] and reps[-12] == old[0]
        with pytest.raises(IndexError):
            reps[12]
        assert reps[2:7] == old[2:7]
        assert reps[::-1] == old[::-1]
        assert reps[-3:] == old[-3:]
        assert reps[5:2] == ()
        for i, w in enumerate(old):
            assert w in reps
            assert reps.index(w) == i
        for outsider in (weight(["1/2", 0]), weight([1, 0, 0]), weight([7, 7]), "text"):
            assert outsider not in reps
            with pytest.raises(ValueError):
                reps.index(outsider)

    def test_equality_and_hash_follow_the_tuple(self):
        datum, lat, census = a2_census()
        old = old_reps(datum, lat)
        assert census.reps == old and old == census.reps
        assert hash(census.reps) == hash(old)
        assert census.reps != old[:-1]
        assert census.reps != old[::-1]
        assert census.reps != list(old)
        built = Census(census.finite, census.invariant_factors, old, census.order, 0)
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
