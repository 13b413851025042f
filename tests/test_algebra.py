import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import draw_commutativity_specs
from uproll import (
    AlgebraSpec,
    apply_coboundary,
    build_cartan_datum,
    check_commutative,
    check_supercommutative,
    cocycle_check,
    exponent,
    gauge_normalize,
    pairing,
    structure_constant_exponent,
    structure_constant_table,
    weight,
)
from uproll.errors import (
    DependentGenerators,
    IncompleteTable,
    MuNotHalfOdd,
    NotInLattice,
    NotInSimpleCurrentLattice,
)

A1_4 = build_cartan_datum("A", 1, 4)
A1_6 = build_cartan_datum("A", 1, 6)
A2_6 = build_cartan_datum("A", 2, 6)


def three_q_spec():
    return AlgebraSpec(A2_6, [3 * A2_6.simple_root(0), 3 * A2_6.simple_root(1)])


def super_spec():
    alpha = A1_4.simple_root(0)
    return AlgebraSpec(A1_4, [2 * alpha], mu=alpha)


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
    def test_single_generator_is_trivial(self):
        spec = AlgebraSpec(A1_4, [weight([4])])
        for n in range(-3, 4):
            for m in range(-3, 4):
                e = structure_constant_exponent(spec, weight([4 * n]), weight([4 * m]))
                assert e.is_zero

    def test_three_q_reversed_pair(self):
        spec = three_q_spec()
        a1, a2 = A2_6.simple_root(0), A2_6.simple_root(1)
        e = structure_constant_exponent(spec, 3 * a2, 3 * a1)
        assert e == exponent(3, 6)
        assert e.value == -9

    def test_three_q_ordered_pair(self):
        spec = three_q_spec()
        a1, a2 = A2_6.simple_root(0), A2_6.simple_root(1)
        assert structure_constant_exponent(spec, 3 * a1, 3 * a2).is_zero

    def test_not_in_lattice(self):
        spec = AlgebraSpec(A1_4, [weight([4])])
        with pytest.raises(NotInLattice):
            structure_constant_exponent(spec, weight([2]), weight([4]))

    def test_dependent_generators_rejected(self):
        spec = AlgebraSpec(A1_4, [weight([4]), weight([6])])
        with pytest.raises(DependentGenerators):
            structure_constant_exponent(spec, weight([2]), weight([2]))

    def test_odd_coefficients_resolve(self):
        spec = super_spec()
        assert spec.coefficients(weight([6])) == (1, 1)
        assert spec.coefficients(weight([4])) == (1, 0)
        assert spec.coefficients(weight([-2])) == (-1, 1)


class TestCocycleCheck:
    def test_normal_form_table_is_valid_and_commutative(self):
        spec = three_q_spec()
        verdict = cocycle_check(structure_constant_table(spec, 2), A2_6)
        assert verdict.valid and verdict.commutative

    def test_single_shifted_entry_breaks_validity(self):
        spec = three_q_spec()
        table = structure_constant_table(spec, 2)
        key = ((1, 0), (0, 1))
        table.entries[key] = table.entries[key] + exponent(1, 6)
        verdict = cocycle_check(table, A2_6)
        assert not verdict.valid
        assert verdict.first_violation[0] == "associativity"

    def test_zero_table_on_odd_lattice(self):
        spec = AlgebraSpec(A1_4, [A1_4.simple_root(0)])
        table = structure_constant_table(spec, 1)
        for key in table.entries:
            table.entries[key] = exponent(0, 4)
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
        table.entries[key] = table.entries[key] + exponent(rng.randrange(1, table.ell), table.ell)
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
    table.entries[key] = table.entries[key] + exponent(1, 6)
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
        assert all(e.is_zero for e in result.phi.values())
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


class TestSuperSignLaw:
    def test_odd_odd_pairs_carry_the_half_shift(self):
        spec = super_spec()
        table = structure_constant_table(spec, 2)
        ell = A1_4.ell
        half = Fraction(ell, 2)
        for (v1, v2), e in table.entries.items():
            w1, w2 = table.weight_of(v1), table.weight_of(v2)
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
            w1, w2 = table.weight_of(v1), table.weight_of(v2)
            flip = table.entries[(v2, v1)].value + pairing(datum, w1, w2)
            both_odd = (v1[-1] % 2) and (v2[-1] % 2)
            expected = flip + half if both_odd else flip
            assert (e.value - expected) % 5 == 0


class TestIncompleteTables:
    def test_gauge_normalize_needs_the_chain_entries(self):
        spec = three_q_spec()
        table = structure_constant_table(spec, 2)
        del table.entries[((1, 0), (1, 0))]
        with pytest.raises(IncompleteTable):
            gauge_normalize(table, spec)

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
