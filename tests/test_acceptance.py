"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from helpers import TRIPLET_CASES, draw_commutativity_specs
from uproll import (
    AlgebraSpec,
    BqSpec,
    ExtWeight,
    Weight,
    apply_coboundary,
    bq_check_commutative,
    bq_equivalent,
    bq_is_local,
    bq_monodromy_exponent,
    bq_transparent,
    bq_twist_exponent,
    brute_census_order,
    brute_cocycle,
    brute_commutativity,
    build_cartan_datum,
    check_commutative,
    check_supercommutative,
    contains,
    coset_reduce,
    exponent,
    gauge_normalize,
    is_local,
    monodromy_exponent,
    simple_census,
    structure_constant_table,
    triplet_report,
    twist_exponent,
    weight,
)
from uproll.cli import run
from uproll.oracle import _weight_of, pairing


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    print(f"criterion {number:2d}: PASS  {description}")


def test_criterion_1_triplet_counts():
    with criterion(1, "triplet census orders equal det(A) * r^rank"):
        for series, rank, r, expected in TRIPLET_CASES:
            report = triplet_report(series, rank, r)
            assert report.report.census.order == expected
            assert report.expected_order == expected
            assert report.match


def test_criterion_2_triplet_structure():
    with criterion(2, "triplet cases are ribbon with only the unit transparent"):
        flags = {}
        for series, rank, r, _ in TRIPLET_CASES:
            report = triplet_report(series, rank, r)
            assert report.report.ribbon.status == "ribbon"
            assert report.report.muger.transparent_reps == (Weight.zero(rank),)
            flags[(series, rank, r)] = report.report.muger.hypothesis_ok
        # the flag is recorded but not required to be true (r = 2 cases fail it)
        assert flags[("A", 1, 3)] and flags[("A", 1, 4)]
        assert not flags[("A", 1, 2)]


def test_criterion_3_classification_iff():
    with criterion(3, "generator test matches box-3 brute force on 50 random specs"):
        specs = draw_commutativity_specs(20250809, 50)
        assert len(specs) == 50
        for spec in specs:
            assert bool(check_commutative(spec)) == brute_commutativity(spec, 3)


def test_criterion_4_cocycle_validity():
    with criterion(4, "normal-form tables of commutative specs pass box-2 brute cocycle"):
        specs = [s for s in draw_commutativity_specs(20250809, 50) if check_commutative(s)]
        assert specs
        for spec in specs:
            assert brute_cocycle(spec, 2)


def test_criterion_5_gauge_round_trip():
    with criterion(5, "gauge normalization undoes 20 random coboundary perturbations"):
        datum = build_cartan_datum("A", 2, 6)
        spec = AlgebraSpec(datum, [3 * datum.simple_root(0), 3 * datum.simple_root(1)])
        table = structure_constant_table(spec, 2)
        rng = random.Random(555)
        for _ in range(20):
            psi = {
                vec: exponent(0 if not any(vec) else rng.randrange(6), 6)
                for vec in product(range(-4, 5), repeat=2)
            }
            perturbed = apply_coboundary(table, psi)
            normalized = gauge_normalize(perturbed, spec).normalized
            assert normalized.entries
            for key, value in normalized.entries.items():
                assert value == table.entries[key]


def test_criterion_6_balancing_identity():
    with criterion(6, "twist additivity defect equals the monodromy exponent"):
        rng = random.Random(606)
        for series, rank, ell in [("A", 1, 4), ("A", 2, 6), ("G", 2, 7)]:
            datum = build_cartan_datum(series, rank, ell)
            for _ in range(200):
                a = weight(
                    [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(rank)]
                )
                b = weight(
                    [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(rank)]
                )
                defect = (
                    twist_exponent(datum, a + b)
                    - twist_exponent(datum, a)
                    - twist_exponent(datum, b)
                )
                assert defect == monodromy_exponent(datum, a, b)


def test_criterion_7_supercommutativity():
    with criterion(7, "superalgebra verdicts and the odd-odd half-shift sign law"):
        a1 = build_cartan_datum("A", 1, 4)
        alpha = a1.simple_root(0)
        good = AlgebraSpec(a1, [2 * alpha], mu=alpha)
        assert check_supercommutative(good).supercommutative

        a16 = build_cartan_datum("A", 1, 6)
        bad = AlgebraSpec(a16, [3 * a16.simple_root(0)], mu=weight([3]))
        assert not check_supercommutative(bad).supercommutative

        table = structure_constant_table(good, 2)
        ell = a1.ell
        half = Fraction(ell, 2)
        odd_pairs = 0
        for (v1, v2), e in table.entries.items():
            w1, w2 = (_weight_of(v, table.generators, a1.rank) for v in (v1, v2))
            flip = table.entries[(v2, v1)].value + pairing(a1, w1, w2)
            if (v1[-1] % 2) and (v2[-1] % 2):
                odd_pairs += 1
                assert (e.value - flip - half) % ell == 0
            else:
                assert (e.value - flip) % ell == 0
        assert odd_pairs > 0


def _finite_census_specs():
    specs = []
    for series, rank, r, _ in TRIPLET_CASES:
        datum = build_cartan_datum(series, rank, 2 * r)
        specs.append(AlgebraSpec(datum, [r * a for a in datum.simple_roots]))
    a1 = build_cartan_datum("A", 1, 4)
    specs.append(AlgebraSpec(a1, [2 * a1.simple_root(0)], mu=a1.simple_root(0)))
    for spec in draw_commutativity_specs(20250809, 50):
        if not check_commutative(spec):
            continue
        census = simple_census(spec)
        if census.finite:
            specs.append(spec)
    return specs


def test_criterion_8_census_consistency():
    with criterion(8, "census reps are local, distinct, and match brute coset counts"):
        checked_orders = 0
        for spec in _finite_census_specs():
            census = simple_census(spec)
            assert census.finite
            reps = census.reps
            lat = spec.extended_lattice
            for rep in reps:
                assert is_local(spec, rep)
            assert len({coset_reduce(lat, rep) for rep in reps}) == census.order
            if census.order <= 144:
                for i, rep in enumerate(reps):
                    for other in reps[i + 1 :]:
                        assert not contains(lat, rep - other)
            side = max(census.invariant_factors, default=1)
            if side ** lat.rank_ambient <= 20000:
                assert brute_census_order(spec) == census.order
                checked_orders += 1
        assert checked_orders >= 6


def test_criterion_9_b_algebra_suite():
    with criterion(9, "augmented-algebra commutativity, locality, transparency, balancing"):
        for series, rank in [("A", 1), ("A", 2)]:
            for r in (2, 3):
                datum = build_cartan_datum(series, rank, 2 * r)
                assert bq_check_commutative(BqSpec(datum))

        a1 = build_cartan_datum("A", 1, 4)
        spec = BqSpec(a1)
        assert bq_is_local(spec, ExtWeight(weight([1]), weight([1])))
        assert not bq_is_local(spec, ExtWeight(weight([1]), weight([0])))
        assert bq_equivalent(
            spec, ExtWeight(weight([1]), weight([1])), ExtWeight(weight([3]), weight([3]))
        )

        unit = ExtWeight(weight([0]), weight([0]))
        for a, b in product(range(-2, 3), repeat=2):
            w = ExtWeight(weight([a]), weight([b]))
            if not bq_is_local(spec, w):
                continue
            assert bq_transparent(spec, w) == bq_equivalent(spec, w, unit)

        rng = random.Random(909)
        a2 = build_cartan_datum("A", 2, 4)
        bq2 = BqSpec(a2)

        def random_local():
            qg = weight([rng.randint(-5, 5), rng.randint(-5, 5)])
            shift = sum(
                (rng.randint(-2, 2) * a2.simple_root(i) for i in range(2)),
                Weight.zero(2),
            )
            return ExtWeight(qg, qg - shift)

        for _ in range(100):
            x, y = random_local(), random_local()
            assert bq_is_local(bq2, x) and bq_is_local(bq2, y)
            defect = (
                bq_twist_exponent(a2, x + y)
                - bq_twist_exponent(a2, x)
                - bq_twist_exponent(a2, y)
            )
            assert defect == bq_monodromy_exponent(a2, x, y)


def test_criterion_10_cli_contract(tmp_path, capsys):
    with criterion(10, "documented CLI invocations, exit codes, and TSV shape"):
        code = run(["triplet", "--series", "A", "--rank", "2", "--r", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["order"] == 12 and out["match"] is True

        path = tmp_path / "odd.json"
        path.write_text(
            json.dumps({"series": "A", "rank": 1, "ell": 4, "lattice": [["2"]]}),
            encoding="utf-8",
        )
        code = run(["check-algebra", "--input", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["commutative"] is False and out["witnesses"]

        bad = tmp_path / "outside.json"
        bad.write_text(
            json.dumps({"series": "A", "rank": 1, "ell": 4, "lattice": [["1"]]}),
            encoding="utf-8",
        )
        assert run(["census", "--input", str(bad)]) == 4
        capsys.readouterr()

        good = tmp_path / "good.json"
        good.write_text(
            json.dumps({"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]}),
            encoding="utf-8",
        )
        code = run(["census", "--input", str(good), "--format", "tsv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 4
