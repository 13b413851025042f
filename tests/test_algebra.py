import math
import pickle
import random
import re
from collections.abc import MutableMapping
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uproll._table
import uproll.algebra
from helpers import TYPE_POOL, draw_commutativity_specs, draw_super_specs
from uproll import (
    AlgebraSpec,
    CocycleTable,
    CocycleVerdict,
    ExponentModL,
    Weight,
    apply_coboundary,
    brute_cocycle,
    build_cartan_datum,
    check_commutative,
    check_supercommutative,
    cocycle_check,
    exponent,
    gauge_normalize,
    structure_constant_table,
    weight,
)
from uproll.algebra import MAX_TABLE_ENTRIES
from uproll.errors import (
    BudgetExceeded,
    IncompleteTable,
    MuNotHalfOdd,
    NotInSimpleCurrentLattice,
)
from uproll.oracle import _weight_of, pairing

A1_4 = build_cartan_datum("A", 1, 4)
A1_6 = build_cartan_datum("A", 1, 6)
A2_6 = build_cartan_datum("A", 2, 6)


def three_q_spec():
    return AlgebraSpec(A2_6, [3 * A2_6.simple_root(0), 3 * A2_6.simple_root(1)])


def super_spec():
    alpha = A1_4.simple_root(0)
    return AlgebraSpec(A1_4, [2 * alpha], mu=alpha)


def rebuilt(table, entries):
    """A table on the generators, box and order of q of table, built from
    the dict entries: a table is never edited, so an edit is a new table."""
    return CocycleTable(table.generators, table.box, table.ell, entries)


class TestSpecValidation:
    def test_generator_outside_lattice(self):
        with pytest.raises(NotInSimpleCurrentLattice):
            AlgebraSpec(A1_4, [weight([1])])

    def test_mu_outside_lattice(self):
        with pytest.raises(NotInSimpleCurrentLattice):
            AlgebraSpec(A1_4, [weight([4])], mu=weight([1]))

    def test_mu_already_even(self):
        alpha = A1_4.simple_root(0)
        with pytest.raises(MuNotHalfOdd):
            AlgebraSpec(A1_4, [2 * alpha], mu=2 * alpha)

    def test_mu_square_outside(self):
        with pytest.raises(MuNotHalfOdd):
            AlgebraSpec(A1_4, [weight([8])], mu=weight([2]))


class TestCheckCommutative:
    def test_doubled_root_true(self):
        alpha = A1_4.simple_root(0)
        verdict = check_commutative(AlgebraSpec(A1_4, [2 * alpha]))
        assert verdict.commutative
        assert verdict.witnesses == ()

    def test_single_root_false_with_witness(self):
        alpha = A1_4.simple_root(0)
        verdict = check_commutative(AlgebraSpec(A1_4, [alpha]))
        assert not verdict.commutative
        (witness,) = verdict.witnesses
        assert witness.kind == "diagonal"
        assert witness.value == 2

    def test_unit_algebra(self):
        assert check_commutative(AlgebraSpec(A1_4, ())).commutative

    def test_rejects_odd_spec(self):
        with pytest.raises(ValueError):
            check_commutative(super_spec())


class TestCheckSupercommutative:
    def test_half_root_true(self):
        verdict = check_supercommutative(super_spec())
        assert verdict.supercommutative

    def test_half_weight_false(self):
        spec = AlgebraSpec(A1_6, [3 * A1_6.simple_root(0)], mu=weight([3]))
        verdict = check_supercommutative(spec)
        assert not verdict.supercommutative
        assert any(w.kind == "odd_diagonal" and w.value == 9 for w in verdict.witnesses)

    def test_rejects_even_spec(self):
        with pytest.raises(ValueError):
            check_supercommutative(AlgebraSpec(A1_4, [weight([4])]))


class TestStructureConstantExponent:
    """The normal form at single pairs of coefficient vectors, read off the table."""

    def test_single_generator_is_trivial(self):
        entries = structure_constant_table(AlgebraSpec(A1_4, [weight([4])]), 3).entries
        for n in range(-3, 4):
            for m in range(-3, 4):
                assert entries[(n,), (m,)].canonical == 0

    def test_three_q_reversed_pair(self):
        # e((0, 1), (1, 0)) = <3 alpha_2, 3 alpha_1> = -9 for the generators 3 alpha_1, 3 alpha_2.
        e = structure_constant_table(three_q_spec(), 1).entries[(0, 1), (1, 0)]
        assert e == exponent(3, 6)
        assert e.value == -9

    def test_three_q_ordered_pair(self):
        assert structure_constant_table(three_q_spec(), 1).entries[(1, 0), (0, 1)].canonical == 0


class TestCocycleCheck:
    def test_normal_form_table_is_valid_and_commutative(self):
        spec = three_q_spec()
        verdict = cocycle_check(structure_constant_table(spec, 2), A2_6)
        assert verdict.valid and verdict.commutative

    def test_single_shifted_entry_breaks_validity(self):
        spec = three_q_spec()
        table = structure_constant_table(spec, 2)
        key = ((1, 0), (0, 1))
        table = rebuilt(table, {**table.entries, key: table.entries[key] + exponent(1, 6)})
        verdict = cocycle_check(table, A2_6)
        assert not verdict.valid
        assert verdict.first_violation[0] == "associativity"

    def test_zero_table_on_odd_lattice(self):
        spec = AlgebraSpec(A1_4, [A1_4.simple_root(0)])
        table = structure_constant_table(spec, 1)
        table = rebuilt(table, {key: exponent(0, 4) for key in table.entries})
        verdict = cocycle_check(table, A1_4)
        assert verdict.valid
        assert not verdict.commutative
        assert verdict.first_violation[0] == "commutativity"


# cocycle_check's full first_violation on the box-2 normal-form tables and
# on seeded single-entry perturbations of them (perturbed_table), recorded
# before the check was rewritten around the precomputed in-box pairs.
FIRST_VIOLATIONS = {
    "A2": (
        None,
        ("associativity", (-2, 0), (1, -2), (1, 2)),
        ("unit", (-1, -2)),
        ("associativity", (-2, -2), (0, 2), (-1, 0)),
        ("associativity", (-2, 1), (1, 1), (1, 1)),
        ("associativity", (-2, 0), (1, 2), (1, -1)),
        ("associativity", (-2, -2), (2, 0), (0, -1)),
        ("unit", (2, 1)),
        ("associativity", (-2, -2), (0, 1), (-1, -1)),
    ),
    "A1-super": (
        ("commutativity", (-2, -1), (-2, -1)),
        ("associativity", (-2, 0), (1, -2), (1, 2)),
        ("unit", (-1, -2)),
        ("associativity", (-2, -2), (0, 2), (-1, 0)),
        ("associativity", (-2, 1), (1, 1), (1, 1)),
        ("associativity", (-2, 0), (1, 2), (1, -1)),
        ("associativity", (-2, -2), (2, 0), (0, -1)),
        ("unit", (2, 1)),
        ("associativity", (-2, -2), (0, 1), (-1, -1)),
    ),
}


def perturbed_table(spec, seed):
    """The box-2 normal-form table with one seeded entry shifted by a
    seeded nonzero amount; seed None leaves it unperturbed."""
    table = structure_constant_table(spec, 2)
    if seed is not None:
        rng = random.Random(seed)
        key = rng.choice(sorted(table.entries))
        shift = exponent(rng.randrange(1, table.ell), table.ell)
        table = rebuilt(table, {**table.entries, key: table.entries[key] + shift})
    return table


@pytest.mark.parametrize("name,spec", [("A2", three_q_spec()), ("A1-super", super_spec())])
def test_cocycle_first_violation_is_pinned(name, spec):
    seeds = (None,) + tuple(range(len(FIRST_VIOLATIONS[name]) - 1))
    for seed, expected in zip(seeds, FIRST_VIOLATIONS[name]):
        verdict = cocycle_check(perturbed_table(spec, seed), spec.datum)
        assert verdict.first_violation == expected, seed
        assert verdict.valid == (expected is None or expected[0] == "commutativity")


def test_cocycle_first_violation_takes_the_first_third_vector():
    # Shifting e(a, b) breaks associativity at (a, b, c) for every c but 0
    # with b + c in the box; the lexicographically first c is reported.
    table = perturbed_table(three_q_spec(), None)
    key = ((-2, -2), (0, 1))
    table = rebuilt(table, {**table.entries, key: table.entries[key] + exponent(1, 6)})
    verdict = cocycle_check(table, A2_6)
    assert verdict.first_violation == ("associativity", (-2, -2), (0, 1), (-2, -2))


def random_cochain(rng, dims, box, ell):
    """A random 1-cochain on the doubled box, vanishing at zero."""
    return {
        vec: exponent(0 if not any(vec) else rng.randrange(ell), ell)
        for vec in product(range(-2 * box, 2 * box + 1), repeat=dims)
    }


class TestGaugeNormalize:
    def test_normal_form_is_fixed(self):
        spec = three_q_spec()
        table = structure_constant_table(spec, 2)
        result = gauge_normalize(table, spec)
        assert all(e.canonical == 0 for e in result.phi.values())
        for key, value in result.normalized.entries.items():
            assert value == table.entries[key]

    def test_linear_cochain_has_trivial_coboundary(self):
        spec = three_q_spec()
        table = structure_constant_table(spec, 2)
        linear = {
            vec: exponent(vec[0], 6)
            for vec in product(range(-4, 5), repeat=2)
        }
        perturbed = apply_coboundary(table, linear)
        assert perturbed.entries == table.entries
        result = gauge_normalize(perturbed, spec)
        for key, value in result.normalized.entries.items():
            assert value == table.entries[key]

    def test_random_coboundary_round_trip(self):
        spec = three_q_spec()
        table = structure_constant_table(spec, 2)
        rng = random.Random(99)
        for _ in range(5):
            psi = random_cochain(rng, 2, 2, 6)
            perturbed = apply_coboundary(table, psi)
            assert cocycle_check(perturbed, A2_6).valid
            result = gauge_normalize(perturbed, spec)
            assert result.normalized.entries
            for key, value in result.normalized.entries.items():
                assert value == table.entries[key]

    def test_a_table_on_another_ordered_basis_is_refused(self):
        spec = three_q_spec()
        first, second = spec.ordered_basis
        swapped = structure_constant_table(AlgebraSpec(A2_6, [second, first]), 1)
        assert swapped.generators == (second, first)
        with pytest.raises(ValueError, match="spec's ordered basis"):
            gauge_normalize(swapped, spec)


class TestSuperSignLaw:
    def test_odd_odd_pairs_carry_the_half_shift(self):
        spec = super_spec()
        table = structure_constant_table(spec, 2)
        ell = A1_4.ell
        half = Fraction(ell, 2)
        for (v1, v2), e in table.entries.items():
            w1, w2 = (_weight_of(v, table.generators, A1_4.rank) for v in (v1, v2))
            flip = table.entries[(v2, v1)].value + pairing(A1_4, w1, w2)
            both_odd = (v1[-1] % 2) and (v2[-1] % 2)
            expected = flip + half if both_odd else flip
            assert (e.value - expected) % ell == 0

    def test_half_shift_at_odd_order(self):
        # at odd ell the sign -1 is still the rational exponent ell/2
        datum = build_cartan_datum("A", 1, 5)
        spec = AlgebraSpec(datum, [weight([10])], mu=weight([5]))
        assert check_supercommutative(spec).supercommutative
        table = structure_constant_table(spec, 2)
        half = Fraction(5, 2)
        for (v1, v2), e in table.entries.items():
            w1, w2 = (_weight_of(v, table.generators, datum.rank) for v in (v1, v2))
            flip = table.entries[(v2, v1)].value + pairing(datum, w1, w2)
            both_odd = (v1[-1] % 2) and (v2[-1] % 2)
            expected = flip + half if both_odd else flip
            assert (e.value - expected) % 5 == 0


class TestIncompleteTables:
    def test_gauge_normalize_needs_the_chain_entries(self):
        spec = three_q_spec()
        table = structure_constant_table(spec, 2)
        table = rebuilt(table, {k: e for k, e in table.entries.items() if k != ((1, 0), (1, 0))})
        with pytest.raises(IncompleteTable):
            gauge_normalize(table, spec)

    def test_gauge_normalize_names_the_first_missing_pair(self):
        spec = three_q_spec()
        table = structure_constant_table(spec, 2)
        later, first = ((1, 0), (-1, 1)), ((0, 1), (1, -1))
        table = rebuilt(table, {k: e for k, e in table.entries.items() if k not in (later, first)})
        with pytest.raises(IncompleteTable, match=re.escape(f"({first[0]}, {first[1]})")):
            gauge_normalize(table, spec)

    def test_gauge_normalize_ignores_pairs_that_leave_the_box(self):
        # A normalized table has entries only where the sum stays in the box.
        spec = three_q_spec()
        normalized = gauge_normalize(structure_constant_table(spec, 2), spec).normalized
        assert ((2, 0), (1, 0)) not in normalized.entries
        again = gauge_normalize(normalized, spec).normalized
        assert dict(again.entries.items()) == dict(normalized.entries.items())

    def test_coboundary_needs_the_doubled_box(self):
        spec = three_q_spec()
        table = structure_constant_table(spec, 1)
        thin = {
            vec: exponent(0, 6) for vec in product(range(-1, 2), repeat=2)
        }
        with pytest.raises(IncompleteTable):
            apply_coboundary(table, thin)


class TestRandomSpecs:
    def test_commutative_specs_have_valid_commutative_tables(self):
        specs = [s for s in draw_commutativity_specs(424, 12) if check_commutative(s)]
        assert specs, "expected at least one commutative draw"
        for spec in specs:
            verdict = cocycle_check(structure_constant_table(spec, 2), spec.datum)
            assert verdict.valid and verdict.commutative

    def test_box_three_still_valid(self):
        spec = three_q_spec()
        verdict = cocycle_check(structure_constant_table(spec, 3), A2_6)
        assert verdict.valid and verdict.commutative


def hand_made_specs():
    a1 = A1_4.simple_root(0)
    a1_5 = build_cartan_datum("A", 1, 5)
    return {
        "A2-3Q": three_q_spec(),
        "A1-super": super_spec(),
        "A1-doubled-root": AlgebraSpec(A1_4, [2 * a1]),
        "A1-single-root": AlgebraSpec(A1_4, [a1]),
        "A1-unit": AlgebraSpec(A1_4, ()),
        "A1-super-odd-ell": AlgebraSpec(a1_5, [weight([10])], mu=weight([5])),
        "A2-dependent": AlgebraSpec(A2_6, [3 * A2_6.simple_root(0), 6 * A2_6.simple_root(0)]),
    }


def reference_scan(table, datum):
    """cocycle_check's three scans in its order, over the Fraction values
    of the table and the pairings of the box weights."""
    ell, box, dims = table.ell, table.box, len(table.generators)
    vecs = list(product(range(-box, box + 1), repeat=dims))
    zero = (0,) * dims

    values = {key: x.value for key, x in table.entries.items()}

    def e(a, b):
        return values[a, b]

    def plus(a, b):
        s = tuple(x + y for x, y in zip(a, b))
        return s if all(-box <= x <= box for x in s) else None

    structure = next((("unit", v) for v in vecs if e(v, zero) % ell or e(zero, v) % ell), None)
    structure = structure or next(
        (
            ("associativity", a, b, c)
            for a in vecs
            for b in vecs
            if (ab := plus(a, b))
            for c in vecs
            if (bc := plus(b, c)) and (e(ab, c) + e(a, b) - e(a, bc) - e(b, c)) % ell
        ),
        None,
    )
    weights = {
        v: sum((c * g for c, g in zip(v, table.generators)), Weight.zero(datum.rank))
        for v in vecs
    }
    commutation = next(
        (
            ("commutativity", a, b)
            for a in vecs
            for b in vecs
            if (e(a, b) - e(b, a) - pairing(datum, weights[a], weights[b])) % ell
        ),
        None,
    )
    return structure or commutation, structure is None, commutation is None


@pytest.mark.parametrize("name,spec", list(hand_made_specs().items()))
def test_cocycle_check_agrees_with_the_oracle_on_normal_forms(name, spec):
    verdict = cocycle_check(structure_constant_table(spec, 2), spec.datum)
    assert verdict.valid
    assert brute_cocycle(spec, 2) == (verdict.valid and verdict.commutative)


@pytest.mark.parametrize("name,spec", list(hand_made_specs().items()))
def test_cocycle_check_matches_a_fraction_scan_on_perturbed_tables(name, spec):
    rng = random.Random(f"perturb {name}")
    shifts = [1, Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4), 6]
    for trial in range(8):
        table = structure_constant_table(spec, 2)
        if trial % 2 and (dims := len(table.generators)):
            # Adding a bilinear form k n_i m_j keeps the table a cocycle,
            # so only the commutation scan can fail.
            i, j, k = rng.randrange(dims), rng.randrange(dims), rng.choice(shifts)
            table = rebuilt(table, {
                (n, m): e + exponent(k * n[i] * m[j], table.ell) for (n, m), e in table.entries.items()
            })
            assert cocycle_check(table, spec.datum).valid
        else:
            entries = dict(table.entries)
            for key in rng.sample(sorted(entries), min(rng.randint(1, 3), len(entries))):
                # fractional shifts give the table a denominator the pairings lack
                shift = rng.choice(shifts)
                entries[key] = entries[key] + exponent(shift, table.ell)
            table = rebuilt(table, entries)
        verdict = cocycle_check(table, spec.datum)
        assert (verdict.first_violation, verdict.valid, verdict.commutative) == reference_scan(
            table, spec.datum
        )


def certified_table(spec, box, kind, rng):
    """A table that is a cocycle by construction: the normal form, twisted
    by a coboundary with fractional cochain values, or with bilinear forms
    k n_i m_j added."""
    table = structure_constant_table(spec, box)
    ell, dims = table.ell, len(table.generators)
    if kind == "coboundary":
        cochain = {
            vec: exponent(Fraction(rng.randrange(4 * ell), rng.randint(1, 4)) if any(vec) else 0, ell)
            for vec in product(range(-2 * box, 2 * box + 1), repeat=dims)
        }
        table = apply_coboundary(table, cochain)
    elif kind == "bilinear" and dims:
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(dims), rng.randrange(dims)
            k = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            table = rebuilt(table, {
                (n, m): e + exponent(k * n[i] * m[j], ell) for (n, m), e in table.entries.items()
            })
    return table


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    box=st.integers(0, 3),
    family=st.sampled_from(["even", "super", "unit"]),
    kind=st.sampled_from(["normal", "coboundary", "bilinear"]),
    perturb=st.booleans(),
)
def test_certificate_path_agrees_with_the_scan(seed, box, family, kind, perturb):
    # Normal forms are decided by the form comparison, the other kinds by the certificate.
    specs = draw_commutativity_specs(seed, 1, TYPE_POOL + [("A", 3), ("G", 2)])
    if family == "super":
        specs = draw_super_specs(specs) or specs
    elif family == "unit":
        specs = [AlgebraSpec(specs[0].datum, ())]
    (spec,) = specs
    # The Fraction reference scan is cubic in the box size.
    box = min(box, 1) if len(spec.ordered_basis) > 2 else box
    rng = random.Random(seed)
    table = certified_table(spec, box, kind, rng)
    assert table.entries.residual is None
    if perturb:
        key = rng.choice(sorted(table.entries))
        shift = rng.choice([1, Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4)])
        table = rebuilt(table, {**table.entries, key: table.entries[key] + exponent(shift, table.ell)})
    verdict = cocycle_check(table, spec.datum)
    assert (verdict.first_violation, verdict.valid, verdict.commutative) == reference_scan(
        table, spec.datum
    )


class ScanReached(Exception):
    pass


def test_certified_tables_skip_both_scans(monkeypatch):
    def refuse(name):
        def scan(*args):
            raise ScanReached(name)

        return scan

    monkeypatch.setattr(uproll._table, "scan_structure", refuse("structure"))
    monkeypatch.setattr(uproll._table, "scan_commutation", refuse("commutation"))
    table = structure_constant_table(three_q_spec(), 3)
    assert cocycle_check(table, A2_6) == CocycleVerdict(True, True, None)
    twisted = apply_coboundary(table, random_cochain(random.Random(3), 2, 3, 6))
    assert cocycle_check(twisted, A2_6) == CocycleVerdict(True, True, None)
    perturbed = perturbed_table(three_q_spec(), 0)
    with pytest.raises(ScanReached, match="structure"):
        cocycle_check(perturbed, A2_6)
    # The super normal form fails commutation by the odd-odd half-shift; its
    # defect is bilinear, so the first failing pair is read off its forms.
    odd = structure_constant_table(super_spec(), 2)
    verdict = cocycle_check(odd, A1_4)
    assert not verdict.commutative
    assert (verdict.first_violation, verdict.valid, verdict.commutative) == reference_scan(odd, A1_4)


@pytest.mark.parametrize("dims,box", [(1, 2), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_lower_forms_share_one_tuple_per_distinct_row(dims, box):
    rng = random.Random(f"lower {dims} {box}")
    # Strictly lower, with a nonzero second row, so only the first axis adds nothing.
    lower = [[rng.randint(-9, 9) if k < i else 0 for k in range(dims)] for i in range(dims)]
    if dims > 1:
        lower[1][0] = rng.choice([-3, 2, 5])
    grid = uproll._table.box_grid(dims, box)
    rows = grid.forms(lower)
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    vecs = list(product(range(-box, box + 1), repeat=dims))
    assert rows == tuple(
        tuple(sum(n[i] * lower[i][k] * m[k] for i in range(dims) for k in range(dims)) for m in vecs)
        for n in vecs
    )
    assert len({id(row) for row in rows}) == (2 * box + 1) ** (dims - 1)
    with pytest.raises(TypeError):
        rows[-1][0] = 0


@pytest.mark.parametrize("box", [1, 2])
def test_normal_form_rows_are_shared_read_only_tuples(box):
    spec = AlgebraSpec(A2_6, [3 * A2_6.simple_root(0), 3 * A2_6.simple_root(1), 6 * A2_6.simple_root(0)])
    table = structure_constant_table(spec, box)
    gens, dims = spec.ordered_basis, len(spec.ordered_basis)
    lower = [(i, k, pairing(A2_6, gens[i], gens[k])) for i in range(dims) for k in range(i)]
    for (n, m), e in table.entries.items():
        assert e.value == sum(n[i] * x * m[k] for i, k, x in lower)
    rows = table.entries.rows
    assert len({id(row) for row in rows}) == (2 * box + 1) ** (dims - 1)
    with pytest.raises(TypeError):
        rows[1][0] = 0
    with pytest.raises(TypeError):
        rows[0] = ()


def test_only_a_table_off_its_form_builds_the_gauge_cochain(monkeypatch):
    # The cochain is built when a table read from a mapping is factored, and
    # when gauge_normalize meets a residual, once, on its rows; never by
    # cocycle_check or apply_coboundary, nor by gauge_normalize on a factored
    # table, which normalizes to its form alone.
    built = []
    real = uproll._table.gauge_cochain

    def recording(grid, rows):
        built.append(rows)
        return real(grid, rows)

    monkeypatch.setattr(uproll._table, "gauge_cochain", recording)
    spec = three_q_spec()
    table = structure_constant_table(spec, 3)
    assert cocycle_check(table, A2_6) == CocycleVerdict(True, True, None)
    twisted = apply_coboundary(table, random_cochain(random.Random(6), 2, 3, 6))
    assert cocycle_check(twisted, A2_6) == CocycleVerdict(True, True, None)
    assert built == []
    for factored in (table, twisted):
        normalized = gauge_normalize(factored, spec).normalized.entries
        assert built == []
        assert normalized.lower is factored.entries.lower
        assert (normalized.cochain, normalized.inbox, normalized.residual) == (None, True, None)
    from_dict = rebuilt(table, dict(twisted.entries))
    assert len(built) == 1 and from_dict.entries.residual is None
    gauge_normalize(from_dict, spec)
    assert len(built) == 1
    key = ((1, 0), (0, 1))
    off = rebuilt(table, {**table.entries, key: table.entries[key] + exponent(1, 6)})
    assert len(built) == 2 and off.entries.residual is not None
    assert cocycle_check(off, A2_6).first_violation[0] == "associativity"
    assert len(built) == 2
    gauge_normalize(off, spec)
    assert len(built) == 3 and built[-1] is off.entries.residual


@pytest.mark.parametrize("name,spec", [("A2", three_q_spec()), ("A1-super", super_spec())])
def test_library_tables_hold_a_form_and_a_cochain(name, spec):
    # No operation of the library writes a dense table: the normal form is B
    # alone, a twist adds to the cochain, which is zero at 0, and normalizing
    # a twist of B gives back B on the pairs whose sum stays in the box.  A
    # cochain not zero at 0 modulo ell is refused.
    table = structure_constant_table(spec, 3)
    form = table.entries.lower
    assert (table.entries.cochain, table.entries.inbox, table.entries.residual) == (None, False, None)
    rng = random.Random(name)
    zero = (0,) * len(table.generators)
    for at_zero in (0, table.ell, Fraction(1, 3)):
        cochain = random_cochain(rng, len(table.generators), 3, table.ell)
        cochain[zero] = exponent(at_zero, table.ell)
        if at_zero % table.ell:
            with pytest.raises(ValueError, match=f"modulo {table.ell} at 0, got 1/3$"):
                apply_coboundary(table, cochain)
            continue
        twisted = apply_coboundary(table, cochain)
        assert twisted.entries.residual is None and twisted.entries.cochain is not None
        assert twisted.entries.cochain[twisted.entries.grid.doubled[1]] == 0
        normalized = gauge_normalize(twisted, spec).normalized.entries
        assert normalized.inbox and (normalized.cochain, normalized.residual) == (None, None)
        assert normalized.lower == tuple(tuple(x * (normalized.den // table.entries.den) for x in row)
                                         for row in form)
        assert normalized.rows == gauge_normalize(table, spec).normalized.entries.rows


def test_a_coboundary_cochain_must_vanish_at_zero_modulo_ell():
    # A cochain with phi(0) = 1 would break the unit rows, ('unit', (-1, -1)),
    # and leave the normalized entry at ((0, 0), (1, 0)) at -1 where the normal
    # form has 0; phi(0) = ell is 0 modulo ell and is added as 0.
    spec = three_q_spec()
    table = structure_constant_table(spec, 1)
    phi = {vec: exponent(0, 6) for vec in product(range(-2, 3), repeat=2)}
    with pytest.raises(ValueError, match=r"^coboundary cochain must be 0 modulo 6 at 0, got 1$"):
        apply_coboundary(table, {**phi, (0, 0): exponent(1, 6)})
    twisted = apply_coboundary(table, {**phi, (0, 0): exponent(6, 6)})
    assert twisted.entries.cochain is None
    assert cocycle_check(twisted, A2_6) == CocycleVerdict(True, True, None)
    gauge = gauge_normalize(twisted, spec)
    assert all(x.value == 0 for x in gauge.phi.values())
    normal = gauge_normalize(table, spec).normalized.entries
    assert [(key, e.value) for key, e in gauge.normalized.entries.items()] == [
        (key, e.value) for key, e in normal.items()
    ] == [(key, e.value) for key, e in table.entries.items() if key in normal]
    assert gauge.normalized.entries[(0, 0), (1, 0)].value == 0


def test_table_budget_is_checked_before_building():
    spec = three_q_spec()
    with pytest.raises(BudgetExceeded, match="1000000000"):
        structure_constant_table(spec, 10**9)
    side = math.isqrt(math.isqrt(MAX_TABLE_ENTRIES))  # (2b+1)^4 entries for 2 generators
    assert len(structure_constant_table(spec, (side - 1) // 2).entries) <= MAX_TABLE_ENTRIES


def test_tables_on_one_box_share_one_grid():
    spec = three_q_spec()
    table = structure_constant_table(spec, 4)
    grid = table.entries.grid
    assert grid is uproll._table.box_grid(2, 4)
    twisted = apply_coboundary(table, random_cochain(random.Random(4), 2, 4, 6))
    gauge = gauge_normalize(twisted, spec)
    rebuilt_table = CocycleTable(table.generators, 4, 6, dict(table.entries))
    again = pickle.loads(pickle.dumps(gauge))
    assert again == gauge
    for other in (twisted, gauge.normalized, rebuilt_table, again.normalized, structure_constant_table(spec, 4)):
        assert other.entries.grid is grid
    assert pickle.loads(pickle.dumps(grid)) is grid
    assert grid.__reduce__() == (uproll._table.box_grid, (2, 4))


@pytest.mark.parametrize("box,error", [(-1, ValueError), (10**9, BudgetExceeded), (2.0, TypeError),
                                       (2.5, TypeError)])
def test_a_refused_box_is_refused_again_and_leaves_no_grid(box, error):
    spec = three_q_spec()
    structure_constant_table(spec, 2)
    before = uproll._table.box_grid.cache_info().currsize
    for build in (lambda: structure_constant_table(spec, box), lambda: CocycleTable(spec.ordered_basis, box, 6, {})):
        with pytest.raises(error, match="^box: " if error is BudgetExceeded else None):
            build()
    assert uproll._table.box_grid.cache_info().currsize == before


# -- the dense integer table behind CocycleTable.entries ----------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), box=st.integers(0, 2))
def test_dense_table_holds_the_normal_form_and_agrees_with_the_oracle(seed, box):
    (spec,) = draw_commutativity_specs(seed, 1)
    table = structure_constant_table(spec, box)
    gens = spec.ordered_basis
    # n P_lower m, from the oracle's pairing of each two generators.
    lower = [(i, k, pairing(spec.datum, gens[i], gens[k])) for i in range(len(gens)) for k in range(i)]
    for (n, m), e in table.entries.items():
        assert type(e.value) is Fraction
        assert e.value == sum((n[i] * x * m[k] for i, k, x in lower), Fraction(0))
        assert e.modulus == spec.datum.ell
    verdict = cocycle_check(table, spec.datum)
    assert verdict.valid
    assert brute_cocycle(spec, box) == verdict.commutative


def test_entries_behave_as_the_dict_they_replace():
    spec = three_q_spec()
    table = structure_constant_table(spec, 1)
    plain = dict(table.entries.items())
    vecs = list(product(range(-1, 2), repeat=2))
    assert list(table.entries) == [(n, m) for n in vecs for m in vecs]
    assert len(table.entries) == len(plain) == 81
    assert table.entries == plain and plain == table.entries
    rebuilt = CocycleTable(table.generators, 1, 6, plain)
    assert rebuilt == table
    assert rebuilt.entries[((1, 1), (1, 0))] == table.entries[((1, 1), (1, 0))]
    assert ((1, 1), (2, 0)) not in table.entries
    with pytest.raises(KeyError):
        table.entries[((0, 0), (0, 2))]
    # A key that is not a pair is missing, as in a dict.
    assert "abc" not in table.entries and 5 not in table.entries
    assert table.entries.get(((0, 0),)) is None
    # A table of another box is read like a dict, and its pairs must fit.
    wider = CocycleTable(table.generators, 2, 6, table.entries)
    assert wider.entries == plain and wider.entries.grid.box == 2
    with pytest.raises(ValueError, match="outside the box 1"):
        CocycleTable(table.generators, 1, 6, structure_constant_table(spec, 2).entries)


def test_entries_repr_is_the_repr_of_their_dict():
    table = structure_constant_table(AlgebraSpec(A1_6, [weight([6])]), 1)
    assert repr(table.entries) == f"TableEntries({dict(table.entries.items())!r})"
    assert repr(structure_constant_table(three_q_spec(), 0).entries) == (
        "TableEntries({((0, 0), (0, 0)): ExponentModL(0 mod 6)})"
    )


def test_entries_are_read_only():
    table = structure_constant_table(three_q_spec(), 1)
    key = ((1, 0), (0, 1))
    assert not isinstance(table.entries, MutableMapping)
    with pytest.raises(TypeError):
        table.entries[key] = exponent(0, 6)
    with pytest.raises(TypeError):
        del table.entries[key]


def test_mixed_denominators_are_read_over_their_least_common_multiple():
    spec = three_q_spec()
    table = structure_constant_table(spec, 1)
    before = dict(table.entries.items())
    key = ((1, 0), (0, 1))
    changed = rebuilt(table, {**before, key: exponent(before[key].value + Fraction(1, 7), 6)})
    assert changed.entries.den % 7 == 0
    assert changed.entries[key].value == before[key].value + Fraction(1, 7)
    assert all(changed.entries[k].value == e.value for k, e in before.items() if k != key)
    verdict = cocycle_check(changed, A2_6)
    assert not verdict.valid
    assert verdict.first_violation == ("associativity", (-1, -1), (1, 0), (0, 1))
    assert cocycle_check(rebuilt(changed, {**changed.entries, key: before[key]}), A2_6).valid
    assert dict(table.entries.items()) == before


def test_entries_left_out_are_missing_for_lookup_and_check():
    table = structure_constant_table(three_q_spec(), 1)
    later, first = ((1, 0), (-1, 1)), ((0, 1), (1, -1))
    table = rebuilt(table, {k: e for k, e in table.entries.items() if k not in (later, first)})
    assert len(table.entries) == 79 and first not in table.entries
    with pytest.raises(KeyError, match=re.escape(str(first))):
        table.entries[first]
    with pytest.raises(IncompleteTable, match=re.escape(f"({first[0]}, {first[1]})")):
        cocycle_check(table, A2_6)


def test_table_operations_build_no_exponent_objects(monkeypatch):
    spec = three_q_spec()
    psi = random_cochain(random.Random(5), 2, 2, 6)
    built = []
    over, init = ExponentModL.over.__func__, ExponentModL.__init__

    def counting_over(cls, *args):
        built.append(args)
        return over(cls, *args)

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    # Every exponent is built by one of the two constructors, each counted once.
    monkeypatch.setattr(ExponentModL, "over", classmethod(counting_over))
    monkeypatch.setattr(ExponentModL, "__init__", counting_init)
    assert exponent(1, 6) == ExponentModL.over(1, 1, 6) and len(built) == 2
    built.clear()
    table = structure_constant_table(spec, 2)
    assert cocycle_check(table, A2_6).valid
    twisted = apply_coboundary(table, psi)
    assert cocycle_check(twisted, A2_6).valid
    assert built == []
    result = gauge_normalize(twisted, spec)
    # At most one per vector of the box, 5**2 of them for box 2 on two generators.
    assert len(built) <= 5**2 == len(result.phi)


@pytest.mark.parametrize("name,spec", list(hand_made_specs().items()))
def test_table_sizes_read_by_the_benchmark(name, spec):
    d = len(spec.ordered_basis)
    for b in range(3):
        table = structure_constant_table(spec, b)
        assert len(table.entries) == (2 * b + 1) ** (2 * d)
        normalized = gauge_normalize(table, spec).normalized
        assert len(normalized.entries) == (3 * b * b + 3 * b + 1) ** d


def plus(a, b):
    return tuple(x + y for x, y in zip(a, b))


def reference_coboundary(table, phi):
    """apply_coboundary by its definition, on the Fraction values of dicts."""
    doubled = product(range(-2 * table.box, 2 * table.box + 1), repeat=len(table.generators))
    missing = next((vec for vec in doubled if vec not in phi), None)
    if missing is not None:
        raise IncompleteTable(f"coboundary cochain missing {missing}")
    zero = (0,) * len(table.generators)
    refused_at_zero(phi, zero, table.ell)
    f = {vec: x.value for vec, x in phi.items()} | {zero: 0}
    return {(a, b): x.value + f[plus(a, b)] - f[a] - f[b] for (a, b), x in table.entries.items()}


def reference_gauge(table):
    """gauge_normalize by its docstring's recursion, on the Fraction values
    of dicts: the cochain phi and the normalized entries."""
    box, dims = table.box, len(table.generators)
    vecs = list(product(range(-box, box + 1), repeat=dims))
    e = {key: x.value for key, x in table.entries.items()}
    in_box = [(a, b) for a in vecs for b in vecs if all(-box <= c <= box for c in plus(a, b))]
    first = next((pair for pair in in_box if pair not in e), None)
    if first is not None:
        raise IncompleteTable(f"no entry for pair ({first[0]}, {first[1]})")
    phi = {(0,) * dims: 0}
    for i in range(dims if box else 0):
        line = {n: tuple(n if k == i else 0 for k in range(dims)) for n in range(-box, box + 1)}
        g = line[1]
        phi[g] = 0
        for n in range(2, box + 1):
            phi[line[n]] = phi[line[n - 1]] + phi[g] - e[line[n - 1], g]
        for n in range(1, box + 1):
            phi[line[-n]] = phi[line[1 - n]] - phi[g] + e[line[-n], g]

    def cochain(v):
        # Split off the last nonzero component.
        if v not in phi:
            k = max(i for i, c in enumerate(v) if c)
            tail = tuple(c if i == k else 0 for i, c in enumerate(v))
            head = tuple(0 if i == k else c for i, c in enumerate(v))
            phi[v] = cochain(head) + cochain(tail) - e[head, tail]
        return phi[v]

    for v in vecs:
        cochain(v)
    return phi, {(a, b): e[a, b] + phi[plus(a, b)] - phi[a] - phi[b] for a, b in in_box}


def outcome(fn, *args):
    try:
        return fn(*args)
    except (IncompleteTable, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def refused_at_zero(phi, zero, ell):
    """The ValueError of a cochain whose value at 0 is not 0 modulo ell."""
    if phi[zero].value % ell:
        raise ValueError(f"coboundary cochain must be 0 modulo {ell} at 0, got {phi[zero].value}")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    dims=st.integers(1, 3),
    box=st.integers(0, 3),
    holes=st.sampled_from(["none", "in box", "outside", "both"]),
    thin_cochain=st.booleans(),
)
def test_table_kernels_agree_with_a_dict_reference(seed, dims, box, holes, thin_cochain):
    while (2 * box + 1) ** (2 * dims) > MAX_TABLE_ENTRIES:
        box -= 1
    a1, (b1, b2) = A1_4.simple_root(0), (A2_6.simple_root(0), A2_6.simple_root(1))
    spec = {
        1: AlgebraSpec(A1_4, [2 * a1]),
        2: three_q_spec(),
        3: AlgebraSpec(A2_6, [3 * b1, 3 * b2, 6 * b1]),
    }[dims]
    ell, rng = spec.datum.ell, random.Random(seed)

    def value():
        return exponent(Fraction(rng.randrange(-4 * ell, 4 * ell), rng.randint(1, 4)), ell)

    vecs = list(product(range(-box, box + 1), repeat=dims))
    entries = {(a, b): value() for a in vecs for b in vecs}
    pools = {"in box": [], "outside": []}
    for key in entries:
        pools["in box" if all(-box <= c <= box for c in plus(*key)) else "outside"].append(key)
    for kind, pool in pools.items():
        if holes in (kind, "both") and pool:
            for key in rng.sample(pool, min(len(pool), rng.randint(1, 3))):
                del entries[key]
    table = CocycleTable(spec.ordered_basis, box, ell, entries)
    phi = {vec: value() for vec in product(range(-2 * box, 2 * box + 1), repeat=dims)}
    phi[(0,) * dims] = rng.choice([value(), exponent(ell * rng.randint(-2, 2), ell)])
    if thin_cochain:
        del phi[rng.choice(sorted(phi))]

    twisted = outcome(apply_coboundary, table, phi)
    if not isinstance(twisted, str):
        twisted = {key: e.value for key, e in twisted.entries.items()}
    assert twisted == outcome(reference_coboundary, table, phi)
    gauge = outcome(gauge_normalize, table, spec)
    if not isinstance(gauge, str):
        gauge = ({v: e.value for v, e in gauge.phi.items()},
                 {key: e.value for key, e in gauge.normalized.entries.items()})
    assert gauge == outcome(reference_gauge, table)


def test_negative_box_is_refused_when_the_table_is_built():
    with pytest.raises(ValueError, match="-1"):
        structure_constant_table(three_q_spec(), -1)
    with pytest.raises(ValueError, match="-2"):
        CocycleTable(three_q_spec().ordered_basis, -2, 6, {})


def test_exponents_at_another_order_of_q_are_refused():
    table = structure_constant_table(three_q_spec(), 1)
    cochain = {vec: exponent(0, 4) for vec in product(range(-2, 3), repeat=2)}
    with pytest.raises(ValueError, match=r"different orders of q.*\(-2, -2\)"):
        apply_coboundary(table, cochain)
    key = ((0, 0), (1, 0))
    with pytest.raises(ValueError, match="different orders of q"):
        rebuilt(table, {**table.entries, key: exponent(0, 4)})
    with pytest.raises(ValueError, match="different orders of q"):
        CocycleTable(table.generators, 1, 6, {key: exponent(0, 4)})
    with pytest.raises(ValueError, match="outside the box"):
        rebuilt(table, {**table.entries, ((0, 0), (2, 0)): exponent(0, 6)})


def test_check_against_a_datum_at_another_order_is_refused():
    table = structure_constant_table(three_q_spec(), 1)
    with pytest.raises(ValueError, match=r"order 6 .* order 9"):
        cocycle_check(table, build_cartan_datum("A", 2, 9))


# -- the dense reference: tables as integer rows over one denominator ---------
#
# The library stores a table as a form plus a cochain.  As a reference, these
# functions keep a table as dense rows, one integer per pair of the box (None
# where there is no entry), and run the coboundary and the gauge recursion on
# them; every factored table must read as its dense twin.


def dense_gauge_cochain(grid, rows):
    """The gauge recursion's cochain on dense rows, listed over the box."""
    vecs, zero = grid.vecs, grid.zero
    steps = [one - zero for one in grid.units]
    f = [None] * len(vecs)
    f[zero] = 0
    for one, step in zip(grid.units, steps):
        f[one] = 0
        for pos in range(one, zero + grid.box * step, step):
            f[pos + step] = f[pos] - rows[pos][one]
        for pos in range(zero - step, zero - grid.box * step - 1, -step):
            f[pos] = f[pos + step] + rows[pos][one]
    for pos in sorted(range(len(vecs)), key=lambda i: len(vecs[i]) - vecs[i].count(0)):
        if f[pos] is None:
            vec = vecs[pos]
            k = max(i for i, c in enumerate(vec) if c)
            tail = zero + vec[k] * steps[k]
            head = pos + zero - tail
            f[pos] = f[head] + f[tail] - rows[head][tail]
    return f


def dense_coboundary_rows(grid, rows, f):
    """The rows of x + f(a + b) - f(a) - f(b), f listed over the doubled box;
    None where x or f(a + b) is None."""
    at, zero = grid.doubled
    keys = [zero + t for t in at]
    f_box = [f[k] for k in keys]
    return tuple(tuple(None if x is None or (s := f[a + b]) is None else x + s - fa - fb
                       for x, b, fb in zip(row, at, f_box)) for a, fa, row in zip(keys, f_box, rows))


def dense_of_spec(spec, box):
    """The normal form's rows by its defining sum, over the pair matrix's denominator."""
    pairs, den = spec.pair_matrix
    d = len(pairs)
    vecs = list(product(range(-box, box + 1), repeat=d))
    rows = tuple(tuple(sum(n[i] * pairs[i][k] * m[k] for i in range(d) for k in range(i)) for m in vecs)
                 for n in vecs)
    return rows, den


def dense_of_mapping(grid, mapping):
    """A mapping's entries as dense rows over the lcm of their denominators."""
    den = math.lcm(1, *(e.den for e in mapping.values()))
    rows = [[None] * len(grid.vecs) for _ in grid.vecs]
    for (a, b), e in mapping.items():
        rows[grid.index[a]][grid.index[b]] = e.num * (den // e.den)
    return tuple(map(tuple, rows)), den


def dense_twist(grid, dense, phi):
    rows, den = dense
    doubled = list(product(range(-2 * grid.box, 2 * grid.box + 1), repeat=grid.dimension))
    missing = next((vec for vec in doubled if vec not in phi), None)
    if missing is not None:
        raise IncompleteTable(f"coboundary cochain missing {missing}")
    zero = (0,) * grid.dimension
    refused_at_zero(phi, zero, phi[zero].modulus)
    new = math.lcm(den, *(phi[vec].den for vec in doubled))
    f = [phi[vec].num * (new // phi[vec].den) if any(vec) else 0 for vec in doubled]
    rows = [[None if x is None else x * (new // den) for x in row] for row in rows]
    return dense_coboundary_rows(grid, rows, f), new


def dense_gauge(grid, dense):
    """The gauge cochain on the box and the normalized rows, none where a sum leaves the box."""
    rows, den = dense
    (at, zero), inside = grid.doubled, grid.inside
    for i, a in enumerate(at):
        for j, b in enumerate(at):
            if inside[zero + a + b] is not None and rows[i][j] is None:
                raise IncompleteTable(f"no entry for pair ({grid.vecs[i]}, {grid.vecs[j]})")
    f = dense_gauge_cochain(grid, rows)
    spread = [k if k is None else f[k] for k in inside]
    return f, (dense_coboundary_rows(grid, rows, spread), den)


def assert_reads_as(entries, dense):
    """The factored entries read as the dense rows: items in order, keys,
    len, lookups, rows, equality with a dict both ways, and a pickle round trip."""
    rows, den = dense
    grid, ell = entries.grid, entries.ell
    items = [((a, b), Fraction(x, den)) for a, row in zip(grid.vecs, rows) for b, x in zip(grid.vecs, row)
             if x is not None]
    assert [(key, e.value) for key, e in entries.items()] == items
    assert list(entries) == [key for key, _ in items]
    assert len(entries) == len(items) == len(entries.items())
    assert all(entries[key].value == x for key, x in items)
    assert (entries.den, entries.rows) == (den, rows)
    plain = {key: exponent(x, ell) for key, x in items}
    assert entries == plain and plain == entries
    again = pickle.loads(pickle.dumps(entries))
    assert again == entries and again.rows == rows and again.grid is grid
    holes = [(a, b) for a, row in zip(grid.vecs, rows) for b, x in zip(grid.vecs, row) if x is None]
    for key in holes[:5]:
        assert key not in entries
        with pytest.raises(KeyError):
            entries[key]


def first_missing(grid, rows):
    return next(((a, b) for a, row in zip(grid.vecs, rows) for b, x in zip(grid.vecs, row) if x is None), None)


def drawn_cochain(rng, grid, ell, zero_at_zero):
    """Fractional values over the doubled box; zero at 0, or else a multiple
    of ell or a fractional value there."""
    phi = {
        vec: exponent(Fraction(rng.randrange(-4 * ell, 4 * ell), rng.randint(1, 4)), ell)
        for vec in product(range(-2 * grid.box, 2 * grid.box + 1), repeat=grid.dimension)
    }
    zero = (0,) * grid.dimension
    phi[zero] = exponent(0, ell) if zero_at_zero else rng.choice([phi[zero], exponent(ell * rng.randint(-2, 2), ell)])
    return phi


def starting_table(spec, box, start, rng):
    """The normal form, or a table built from a dict of it: perturbed,
    with a bilinear form added, with holes in or outside the box, or with
    exactly the pairs whose sum stays in the box."""
    table = structure_constant_table(spec, box)
    if start == "normal":
        return table, None
    entries = dict(table.entries)
    ell, dims = table.ell, len(table.generators)
    shifts = [1, Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4), ell]
    in_box = [key for key in entries if all(-box <= c <= box for c in plus(*key))]
    outside = [key for key in entries if key not in set(in_box)]
    if start == "perturbed":
        for key in rng.sample(sorted(entries), min(rng.randint(1, 3), len(entries))):
            entries[key] = entries[key] + exponent(rng.choice(shifts), ell)
    elif start == "bilinear" and dims:
        i, j, k = rng.randrange(dims), rng.randrange(dims), Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        entries = {(n, m): e + exponent(k * n[i] * m[j], ell) for (n, m), e in entries.items()}
    elif start == "holes in box":
        for key in rng.sample(in_box, min(len(in_box), rng.randint(1, 3))):
            del entries[key]
    elif start == "holes outside" and outside:
        for key in rng.sample(outside, min(len(outside), rng.randint(1, 3))):
            del entries[key]
    elif start == "in box only":
        entries = {key: entries[key] for key in in_box}
    return rebuilt(table, entries), entries


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    family=st.sampled_from(["even", "super", "unit", "three"]),
    box=st.integers(0, 4),
    start=st.sampled_from(["normal", "perturbed", "bilinear", "holes in box", "holes outside", "in box only"]),
    ops=st.lists(st.sampled_from(["twist", "gauge", "rebuild", "thin twist"]), max_size=3),
    zero_at_zero=st.booleans(),
)
def test_factored_tables_read_as_their_dense_rows(seed, family, box, start, ops, zero_at_zero):
    if family == "three":
        spec = AlgebraSpec(A2_6, [3 * A2_6.simple_root(0), 3 * A2_6.simple_root(1), 6 * A2_6.simple_root(0)])
    else:
        (spec,) = draw_commutativity_specs(seed, 1, TYPE_POOL + [("A", 3), ("G", 2)])
        if family == "super":
            spec = (draw_super_specs([spec]) or [spec])[0]
        elif family == "unit":
            spec = AlgebraSpec(spec.datum, ())
    dims = len(spec.ordered_basis)
    while (2 * box + 1) ** (2 * dims) > 6561:
        box -= 1
    rng = random.Random(seed)
    table, source = starting_table(spec, box, start, rng)
    grid, ell = table.entries.grid, table.ell
    dense = dense_of_spec(spec, box) if source is None else dense_of_mapping(grid, source)
    for op in [None, *ops]:
        if op in ("twist", "thin twist"):
            phi = drawn_cochain(rng, grid, ell, zero_at_zero)
            if op == "thin twist":
                del phi[rng.choice(sorted(phi))]
            mine, ref = outcome(apply_coboundary, table, phi), outcome(dense_twist, grid, dense, phi)
            if isinstance(ref, str):
                assert mine == ref
                continue
            table, dense = mine, ref
        elif op == "gauge":
            mine, ref = outcome(gauge_normalize, table, spec), outcome(dense_gauge, grid, dense)
            if isinstance(ref, str):
                assert mine == ref
                continue
            f, dense = ref
            assert {v: e.value for v, e in mine.phi.items()} == {v: Fraction(x, dense[1]) for v, x in zip(grid.vecs, f)}
            table = mine.normalized
        elif op == "rebuild":
            table = rebuilt(table, dict(table.entries))
            dense = dense_of_mapping(grid, {
                (a, b): exponent(Fraction(x, dense[1]), ell)
                for a, row in zip(grid.vecs, dense[0]) for b, x in zip(grid.vecs, row) if x is not None
            })
        assert_reads_as(table.entries, dense)
        if (missing := first_missing(grid, dense[0])) is not None:
            with pytest.raises(IncompleteTable, match=re.escape(f"({missing[0]}, {missing[1]})")):
                cocycle_check(table, spec.datum)
        elif len(grid.vecs) <= 27:  # the Fraction reference scan is cubic in the box size
            verdict = cocycle_check(table, spec.datum)
            assert (verdict.first_violation, verdict.valid, verdict.commutative) == reference_scan(
                table, spec.datum
            )



@pytest.mark.parametrize("key", [((1, 0), (1, 0)), ((-1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 0), (0, 1))])
def test_a_residual_normalizes_by_the_cochain_of_its_rows(key):
    # A table perturbed on a pair the gauge recursion reads keeps a residual
    # whose cochain h is not zero: normalizing stores h, and a twist and a
    # second normalization of that table still read as the dense reference.
    spec, rng = three_q_spec(), random.Random(repr(key))
    table = structure_constant_table(spec, 2)
    entries = {**table.entries, key: table.entries[key] + exponent(Fraction(2, 3), 6)}
    table = rebuilt(table, entries)
    grid = table.entries.grid
    dense = dense_of_mapping(grid, entries)
    for step in ("gauge", "twist", "gauge", "gauge"):
        if step == "twist":
            phi = drawn_cochain(rng, grid, 6, True)
            table, dense = apply_coboundary(table, phi), dense_twist(grid, dense, phi)
        else:
            gauge = gauge_normalize(table, spec)
            f, dense = dense_gauge(grid, dense)
            assert {v: e.value for v, e in gauge.phi.items()} == {v: Fraction(x, dense[1]) for v, x in zip(grid.vecs, f)}
            table = gauge.normalized
            assert table.entries.residual is not None and table.entries.cochain is not None
        assert_reads_as(table.entries, dense)
