import time

import pytest

from uproll import (
    AlgebraSpec,
    Box,
    brute_census_order,
    brute_cocycle,
    brute_commutativity,
    build_cartan_datum,
    simple_census,
    weight,
)
from uproll.algebra import MAX_TABLE_ENTRIES
from uproll.errors import BudgetExceeded, InfiniteCensus

A1_4 = build_cartan_datum("A", 1, 4)
A2_4 = build_cartan_datum("A", 2, 4)
A2_6 = build_cartan_datum("A", 2, 6)


class TestBox:
    def test_lexicographic_enumeration(self):
        assert list(Box(1, 2)) == [
            (-1, -1), (-1, 0), (-1, 1),
            (0, -1), (0, 0), (0, 1),
            (1, -1), (1, 0), (1, 1),
        ]

    def test_size(self):
        assert len(list(Box(2, 3))) == 5**3

    def test_box_past_the_table_budget_is_refused(self):
        with pytest.raises(BudgetExceeded, match="1000000000"):
            Box(10**9, 1)
        assert (2 * 3 + 1) ** 6 > MAX_TABLE_ENTRIES
        with pytest.raises(BudgetExceeded):
            Box(3, 3)
        Box(2, 3)

    @pytest.mark.parametrize("dimension,bound", [(1, 28), (2, 8), (3, 2), (5, 1)])
    def test_cocycle_oracle_refuses_more_triples_than_the_table_budget(self, dimension, bound):
        # Triples (a, b, c) with a + b and b + c in the box, counted directly
        # on one coordinate; the coordinates are independent.
        side = range(-bound, bound + 1)
        per_coordinate = sum(a + b in side and b + c in side for a in side for b in side for c in side)
        triples = per_coordinate ** dimension
        assert (2 * bound + 1) ** (2 * dimension) <= MAX_TABLE_ENTRIES < triples
        a1, a2 = A2_6.simple_root(0), A2_6.simple_root(1)
        spec = AlgebraSpec(A2_6, [3 * a1, 3 * a2, 6 * a1, 6 * a2, 9 * a1][:dimension])
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=f"^cocycle scan: {triples} associativity triples in box {bound},"):
            brute_cocycle(spec, bound)
        assert time.perf_counter() - start < 1

    def test_cocycle_oracle_runs_within_the_triple_budget(self):
        # One generator at box 27 has 97,075 triples: the scan runs.
        side = range(-27, 28)
        assert sum(a + b in side and b + c in side for a in side for b in side for c in side) <= MAX_TABLE_ENTRIES
        assert brute_cocycle(AlgebraSpec(A1_4, [weight([4])]), 27)

    def test_oracles_refuse_a_huge_box(self):
        spec = AlgebraSpec(A1_4, [weight([4])])
        for oracle in (brute_commutativity, brute_cocycle):
            with pytest.raises(BudgetExceeded):
                oracle(spec, 10**9)
        with pytest.raises(BudgetExceeded):
            brute_census_order(spec, 10**9)


class TestBruteCommutativity:
    def test_doubled_root_true(self):
        spec = AlgebraSpec(A1_4, [2 * A1_4.simple_root(0)])
        assert brute_commutativity(spec, 3)

    def test_single_root_false(self):
        spec = AlgebraSpec(A1_4, [A1_4.simple_root(0)])
        assert not brute_commutativity(spec, 1)

    def test_unit_algebra_true(self):
        assert brute_commutativity(AlgebraSpec(A1_4, ()), 3)


class TestBruteCocycle:
    def test_three_q_true(self):
        spec = AlgebraSpec(A2_6, [3 * A2_6.simple_root(0), 3 * A2_6.simple_root(1)])
        assert brute_cocycle(spec, 2)

    def test_single_root_fails_commutation(self):
        spec = AlgebraSpec(A1_4, [A1_4.simple_root(0)])
        assert not brute_cocycle(spec, 2)

    def test_box_zero_trivially_true(self):
        spec = AlgebraSpec(A1_4, [A1_4.simple_root(0)])
        assert brute_cocycle(spec, 0)


class TestBruteCensusOrder:
    def test_order_four(self):
        spec = AlgebraSpec(A1_4, [weight([4])])
        assert brute_census_order(spec) == 4

    def test_order_twelve(self):
        spec = AlgebraSpec(A2_4, [2 * A2_4.simple_root(0), 2 * A2_4.simple_root(1)])
        assert brute_census_order(spec) == 12

    def test_unit_census(self):
        alpha = A1_4.simple_root(0)
        spec = AlgebraSpec(A1_4, [2 * alpha], mu=alpha)
        assert brute_census_order(spec) == 1

    def test_infinite_rejected(self):
        spec = AlgebraSpec(A2_4, [2 * A2_4.simple_root(0)])
        with pytest.raises(InfiniteCensus):
            brute_census_order(spec)

    def test_small_box_gives_lower_bound(self):
        spec = AlgebraSpec(A1_4, [weight([4])])
        census = simple_census(spec)
        assert brute_census_order(spec, box=2) <= census.order
