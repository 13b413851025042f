import math
import pickle
import random
import re
import time
from fractions import Fraction

import pytest
from helpers import ALL_TYPES, fundamental_weight, lattice_rows, random_weight, sympy_discriminant_factors
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix, Rational
from sympy.matrices.normalforms import smith_normal_form as sympy_smith

import uproll._linalg
import uproll.lattice
from uproll import (
    AlgebraSpec,
    _linalg,
    Weight,
    adjoin,
    build_cartan_datum,
    canonical_basis,
    contains,
    coset_reduce,
    quotient_census,
    scaled_dual,
    simple_census,
    weight,
)
from uproll.errors import (
    BudgetExceeded,
    DimensionMismatch,
    HypothesisViolated,
    InfiniteCensus,
    InternalError,
    NotSubgroup,
    UprollError,
)
from uproll.lattice import MAX_CENSUS_ORDER, RationalLattice, discriminant_matrix, in_dual
from uproll.oracle import is_multiple, pairing

A1_4 = build_cartan_datum("A", 1, 4)
A2_4 = build_cartan_datum("A", 2, 4)


def a2_roots():
    return A2_4.simple_root(0), A2_4.simple_root(1)


class TestCanonicalBasis:
    def test_gcd_collapse(self):
        lat = canonical_basis(A1_4, [weight([4]), weight([6])])
        expected = canonical_basis(A1_4, [weight([2])])
        assert lat == expected
        assert contains(lat, weight([2])) and contains(expected, weight([4]))

    def test_empty_is_rank_zero(self):
        lat = canonical_basis(A1_4, ())
        assert lat.rank == 0
        assert contains(lat, weight([0]))
        assert not contains(lat, weight([2]))

    def test_a2_doubled_roots_determinant(self):
        a1, a2 = a2_roots()
        lat = canonical_basis(A2_4, [2 * a1, 2 * a2])
        rows = lattice_rows(lat)
        det = rows[0].coords[0] * rows[1].coords[1] - rows[0].coords[1] * rows[1].coords[0]
        assert abs(det) == 12

    def test_repr_lists_the_canonical_rows(self):
        a1, a2 = a2_roots()
        assert repr(canonical_basis(A2_4, [a1, 2 * a2, 2 * a1])) == (
            "RationalLattice(rank 2 in ambient 2: Weight(2, 2), Weight(0, 3))"
        )
        half = canonical_basis(A1_4, [weight(["3/2"]), weight([1])])
        assert repr(half) == "RationalLattice(rank 1 in ambient 1: Weight(1/2))"
        assert repr(canonical_basis(A1_4, ())) == "RationalLattice(rank 0 in ambient 1: )"

    def test_canonical_is_generator_set_independent(self):
        half = canonical_basis(A1_4, [weight(["1/2"]), weight(["3/2"])])
        assert half == canonical_basis(A1_4, [weight(["1/2"])])

    def test_generators_lie_in_their_span(self):
        rng = random.Random(11)
        for _ in range(40):
            gens = [
                weight([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)])
                for _ in range(rng.randint(1, 3))
            ]
            lat = canonical_basis(A2_4, gens)
            for g in gens:
                assert contains(lat, g)


@pytest.mark.parametrize("coords", [[], [1], [1, 2, 3]])
def test_canonical_basis_and_coset_reduce_check_the_length_in_one_wording(coords):
    lat = canonical_basis(A2_4, [weight([2, 0])])
    with pytest.raises(DimensionMismatch, match="^weights must have length 2$"):
        canonical_basis(A2_4, [weight([2, 0]), weight(coords)])
    with pytest.raises(DimensionMismatch, match="^weights must have length 2$"):
        coset_reduce(lat, weight(coords))


def test_a_lattice_is_its_canonical_form():
    assert RationalLattice._fields == ("rank_ambient", "hnf", "denominator")
    a1, a2 = a2_roots()
    spans = [
        canonical_basis(A2_4, [2 * a1, 2 * a2]),
        canonical_basis(A2_4, [2 * a1 + 2 * a2, 2 * a2, 4 * a1]),
        canonical_basis(A2_4, [-2 * a1, 6 * a2, 2 * a1 + 2 * a2]),
    ]
    assert spans[0] == spans[1] == spans[2]
    assert len({hash(lat) for lat in spans}) == 1
    assert len(set(spans)) == 1


@st.composite
def caller_rows(draw):
    """(n, rows, d): integer rows of length n up to 4 over a denominator d,
    in any order and sign, mixed by unimodular row steps, sharing a drawn
    factor with d, as lists or as tuples."""
    n = draw(st.integers(1, 4))
    entries = st.lists(st.integers(-12, 12), min_size=n, max_size=n)
    rows = draw(st.lists(entries, max_size=5))
    steps = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3))
    for i, j, c in draw(st.lists(steps, max_size=12)) if rows else ():
        i, j = i % len(rows), j % len(rows)
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rows = draw(st.permutations(rows))
    rows = [[-a for a in row] if draw(st.booleans()) else row for row in rows]
    factor, d = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rows = [[factor * a for a in row] for row in rows]
    if draw(st.booleans()):
        rows = tuple(map(tuple, rows))
    return n, rows, factor * d


@settings(max_examples=200, deadline=None)
@given(case=caller_rows(), lam=st.lists(st.integers(-50, 50), min_size=4, max_size=4), lam_den=st.integers(1, 9))
@example(case=(2, [[3, 0], [0, 3]], 1), lam=[7, -5, 0, 0], lam_den=1)
@example(case=(1, ((2,),), 2), lam=[3, 0, 0, 0], lam_den=2)
@example(case=(1, ((-4,),), 1), lam=[1, 0, 0, 0], lam_den=1)
@example(case=(2, ((0, 3), (3, 0)), 1), lam=[-1, 8, 0, 0], lam_den=1)
@example(case=(2, ((-3, 5), (0, -3)), 1), lam=[-1, -1, 0, 0], lam_den=3)
def test_any_integer_rows_build_the_canonical_lattice(case, lam, lam_den):
    n, rows, d = case
    lattice = RationalLattice(n, rows, d)
    datum = build_cartan_datum("A", n, 4)
    assert lattice == canonical_basis(datum, [Weight.over(row, d) for row in rows])
    assert all(type(row) is tuple for row in lattice.hnf)
    rebuilt = RationalLattice(lattice.rank_ambient, lattice.hnf, lattice.denominator)
    assert rebuilt == lattice == pickle.loads(pickle.dumps(lattice))
    assert hash(rebuilt) == hash(lattice)
    # The reduced weight's scaled coordinate at each pivot lies in [0, pivot).
    w = Weight.over(lam[:n], lam_den)
    reduced = coset_reduce(lattice, w)
    den = math.lcm(lattice.denominator, w.den)
    x = reduced.row_over(den)
    for row in lattice.hnf:
        p = row.index(next(filter(None, row)))
        assert 0 <= x[p] < row[p] * (den // lattice.denominator)
    assert contains(lattice, w - reduced)
    for bad in (0, -d):
        with pytest.raises(ValueError, match=f"^lattice denominator must be positive, got {bad}$"):
            RationalLattice(n, rows, bad)
    with pytest.raises(DimensionMismatch, match=f"^weights must have length {n}$"):
        RationalLattice(n, [*rows, [1] * (n - 1)], d)


@pytest.mark.parametrize("rank,rows,error,named", [
    (-1, (), ValueError, "-1"),
    (-2, [[1, 2]], ValueError, "-2"),
    ("2", (), TypeError, "'2'"),
    ("2", [[1, 2]], TypeError, "'2'"),
    (True, [[1]], TypeError, "True"),
    (2.0, [[1, 2]], TypeError, "2.0"),
])
def test_the_ambient_rank_is_an_int_of_at_least_zero(rank, rows, error, named, monkeypatch):
    # Refused before any Hermite work, naming the value.
    monkeypatch.setattr(uproll._linalg, "row_hermite_form", lambda rows: pytest.fail("Hermite form taken"))
    with pytest.raises(error, match=f"ambient rank .*got {re.escape(named)}$"):
        RationalLattice(rank, rows, 1)


def test_caller_built_lattices_are_values():
    lattice = RationalLattice(2, [[3, 0], [0, 3]], 1)
    with pytest.raises(TypeError):
        lattice.hnf[0][0] = 6
    assert contains(lattice, weight([3, 0])) and not contains(lattice, weight([6, 1]))
    assert RationalLattice(1, ((2,),), 2) == RationalLattice(1, ((1,),), 1) == canonical_basis(A1_4, [weight([1])])
    assert RationalLattice(2, [[0, 0]], 5) == RationalLattice(2, (), 1) == canonical_basis(A2_4, ())
    with pytest.raises(TypeError):
        RationalLattice(1, ((Fraction(1, 2),),), 1)


class TestContains:
    def test_multiples(self):
        lat = canonical_basis(A1_4, [weight([2])])
        assert contains(lat, weight([6]))
        assert not contains(lat, weight([1]))
        assert contains(lat, weight([0]))

    def test_membership_respects_sums(self):
        rng = random.Random(5)
        lat = canonical_basis(A2_4, [weight([2, 0]), weight([1, 3])])
        for _ in range(30):
            a = rng.randint(-3, 3)
            b = rng.randint(-3, 3)
            combo = a * weight([2, 0]) + b * weight([1, 3])
            assert contains(lat, combo)


class TestCosetReduce:
    def test_idempotent_and_in_range(self):
        lat = canonical_basis(A1_4, [weight([4])])
        reduced = coset_reduce(lat, weight([-9]))
        assert reduced == weight([3])
        assert coset_reduce(lat, reduced) == reduced

    def test_separates_cosets_exactly(self):
        rng = random.Random(13)
        lat = canonical_basis(A2_4, [weight([4, -2]), weight([-2, 4])])
        for _ in range(60):
            a = weight([Fraction(rng.randint(-9, 9), rng.randint(1, 2)) for _ in range(2)])
            b = weight([Fraction(rng.randint(-9, 9), rng.randint(1, 2)) for _ in range(2)])
            same_coset = contains(lat, a - b)
            assert (coset_reduce(lat, a) == coset_reduce(lat, b)) == same_coset

    def test_reduction_stays_in_coset(self):
        lat = canonical_basis(A2_4, [weight([4, -2]), weight([-2, 4])])
        lam = weight(["7/2", -5])
        assert contains(lat, lam - coset_reduce(lat, lam))


class TestAdjoin:
    def test_halving_generator(self):
        alpha = A1_4.simple_root(0)
        lat = canonical_basis(A1_4, [2 * alpha])
        res = adjoin(lat, alpha)
        assert res == canonical_basis(A1_4, [alpha])
        assert (contains(lat, alpha), contains(lat, 2 * alpha)) == (False, True)

    def test_adjoin_zero_is_identity(self):
        lat = canonical_basis(A2_4, [weight([2, 0])])
        zero = Weight.zero(2)
        res = adjoin(lat, zero)
        assert res == lat
        assert (contains(lat, zero), contains(lat, 2 * zero)) == (True, True)

    def test_coprime_multiple(self):
        alpha = A1_4.simple_root(0)
        lat = canonical_basis(A1_4, [2 * alpha])
        res = adjoin(lat, 3 * alpha)
        assert res == canonical_basis(A1_4, [alpha])
        assert (contains(lat, 3 * alpha), contains(lat, 6 * alpha)) == (False, True)

    def test_superset_and_membership(self):
        rng = random.Random(23)
        for _ in range(25):
            gens = [weight([rng.randint(-4, 4), rng.randint(-4, 4)])]
            mu = weight([Fraction(rng.randint(-4, 4), 2), rng.randint(-2, 2)])
            lat = canonical_basis(A2_4, gens)
            res = adjoin(lat, mu)
            assert contains(res, mu)
            for row in lattice_rows(lat):
                assert contains(res, row)


A3_4 = build_cartan_datum("A", 3, 4)
small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
rank3_weights = st.lists(small_rationals, min_size=3, max_size=3).map(weight)


@st.composite
def adjoin_cases(draw):
    """Up to four generators in rank 3, so L is often rank-deficient, and
    mu = (an integer combination of them) / k plus, sometimes, a weight
    that may leave the span of L."""
    gens = draw(st.lists(rank3_weights, max_size=4))
    mu = Weight.zero(3)
    for g in gens:
        mu = mu + draw(st.integers(-3, 3)) * g
    mu = mu * Fraction(1, draw(st.integers(1, 3)))
    if draw(st.booleans()):
        mu = mu + draw(rank3_weights)
    return gens, mu


def in_lattice_by_sympy(lattice, mu) -> bool:
    """Membership by sympy's Gauss-Jordan solve on the HNF rows, then an
    integrality check on the unique solution."""
    if lattice.rank == 0:
        return mu.is_zero
    basis = Matrix([[Rational(x, lattice.denominator) for x in row] for row in lattice.hnf])
    try:
        solution, free = basis.T.gauss_jordan_solve(Matrix([Rational(a, mu.den) for a in mu.row]))
    except ValueError:
        return False
    assert free.rows == 0
    return all(x.is_integer for x in solution)


@settings(max_examples=200, deadline=None)
@given(case=adjoin_cases())
# Full rank, mu in L; full rank, 2*mu in L only; rank 1 with mu outside its span.
@example(case=([weight([2, 0, 0]), weight([0, 2, 0]), weight([0, 0, 2])], weight([2, -4, 6])))
@example(case=([weight([2, 0, 0]), weight([0, 2, 0]), weight([0, 0, 2])], weight([1, 0, 3])))
@example(case=([weight(["1/2", 1, 0])], weight(["1/3", "1/2", 2])))
def test_adjoin_against_sympy(case):
    gens, mu = case
    lat = canonical_basis(A3_4, gens)
    res = adjoin(lat, mu)
    assert contains(lat, mu) == in_lattice_by_sympy(lat, mu)
    assert contains(lat, 2 * mu) == in_lattice_by_sympy(lat, 2 * mu)
    assert res == canonical_basis(A3_4, [*lattice_rows(lat), mu])
    assert res == canonical_basis(A3_4, [*gens, mu])


class TestScaledDual:
    def test_full_rank_examples(self):
        lat4 = canonical_basis(A1_4, [weight([4])])
        dual4 = scaled_dual(A1_4, lat4)
        assert dual4.rank == 1
        assert dual4 == canonical_basis(A1_4, [weight([1])])

        lat2 = canonical_basis(A1_4, [weight([2])])
        dual2 = scaled_dual(A1_4, lat2)
        assert dual2 == canonical_basis(A1_4, [weight([2])])

    def test_rank_deficient(self):
        # The dual of a lattice below full rank, the zero lattice among
        # them, adds a continuum.
        a1, _ = a2_roots()
        for gens, rank in (([2 * a1], 1), ([], 0)):
            with pytest.raises(InfiniteCensus) as info:
                scaled_dual(A2_4, canonical_basis(A2_4, gens))
            assert str(info.value) == f"census: a rank-{rank} lattice in rank 2 has no finite census"

    def test_dual_condition_on_rows(self):
        a1, a2 = a2_roots()
        lat = canonical_basis(A2_4, [2 * a1, 2 * a2])
        dual = scaled_dual(A2_4, lat)
        for row in lattice_rows(dual):
            assert in_dual(A2_4, lat, row.row, row.den)

    def test_antitone_under_inclusion(self):
        rng = random.Random(31)
        checked = 0
        while checked < 25:
            outer_gens = [
                weight([2 * rng.randint(-2, 2), 2 * rng.randint(-2, 2)])
                for _ in range(2)
            ]
            outer = canonical_basis(A2_4, outer_gens)
            inner_gens = [
                sum(
                    (rng.randint(-2, 2) * g for g in outer_gens),
                    Weight.zero(2),
                )
                for _ in range(2)
            ]
            inner = canonical_basis(A2_4, inner_gens)
            if inner.rank < 2:  # then outer, which holds it, has full rank too
                continue
            checked += 1
            dual_outer = scaled_dual(A2_4, outer)
            dual_inner = scaled_dual(A2_4, inner)
            for row in lattice_rows(dual_outer):
                assert in_dual(A2_4, inner, row.row, row.den)
                assert contains(dual_inner, row)


@pytest.mark.parametrize(
    "rows", [((-3, 0), (0, 3)), ((-3, 5), (0, -3))], ids=["one negative pivot", "two negative pivots"]
)
def test_caller_built_triangular_rows_take_a_positive_denominator(rows):
    # The constructor takes the rows' Hermite form, whatever the sign of
    # their pivots; the dual is that of the same rows' canonical basis, over
    # a positive denominator.
    dual = scaled_dual(A2_4, RationalLattice(2, rows, 1))
    assert dual.denominator > 0
    assert dual == scaled_dual(A2_4, canonical_basis(A2_4, [Weight.over(row, 1) for row in rows]))


def test_caller_built_rows_below_the_diagonal_get_the_canonical_dual():
    rows = ((0, 3), (3, 0))
    lattice = RationalLattice(2, rows, 1)
    assert lattice.hnf == ((3, 0), (0, 3))
    canonical = canonical_basis(A2_4, [Weight.over(row, 1) for row in rows])
    assert scaled_dual(A2_4, lattice) == scaled_dual(A2_4, canonical)


def reference_dual(datum, lattice):
    """The scaled dual within the span of the lattice in its first
    formulation: the Fraction Gram matrix of 2<,>/ell on the canonical
    rows, inverted by Gauss-Jordan elimination over Fraction and applied
    to those rows."""
    basis = lattice_rows(lattice)
    k = len(basis)
    a = [
        [2 * pairing(datum, x, y) / datum.ell for y in basis]
        + [Fraction(int(i == j)) for j in range(k)]
        for i, x in enumerate(basis)
    ]
    for col in range(k):
        piv = next(i for i in range(col, k) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        f = a[col][col]
        a[col] = [x / f for x in a[col]]
        for i in range(k):
            if i != col and a[i][col]:
                g = a[i][col]
                a[i] = [x - g * y for x, y in zip(a[i], a[col])]
    rows = [
        sum((c * w for c, w in zip(row[k:], basis)), Weight.zero(datum.rank))
        for row in a
    ]
    return canonical_basis(datum, rows)


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_scaled_dual_matches_the_fraction_gram_inverse(series, rank):
    rng = random.Random(f"dual {series}{rank}")
    for _ in range(4):
        try:
            datum = build_cartan_datum(series, rank, rng.choice((5, 6, 8, 12)))
        except HypothesisViolated:
            datum = build_cartan_datum(series, rank, 7)
        lattice = canonical_basis(datum, ())
        while lattice.rank < rank:  # scaled_dual takes full-rank lattices only
            lattice = canonical_basis(datum, [random_weight(rng, rank, span=4, den=3) for _ in range(rank)])
        dual = scaled_dual(datum, lattice)
        part = reference_dual(datum, lattice)
        assert dual == part
        assert dual.rank == lattice.rank
        # The integer membership test against the defining condition.
        rows = lattice_rows(part)
        probes = list(rows) + [Fraction(1, 2) * w for w in rows] + [
            sum((rng.randint(-2, 2) * w for w in rows), random_weight(rng, rank, span=1, den=2))
            for _ in range(4)
        ]
        for lam in probes:
            expected = all(
                is_multiple(2 * pairing(datum, lam, g), datum.ell)
                for g in lattice_rows(lattice)
            )
            assert in_dual(datum, lattice, lam.row, lam.den) == expected


def sympy_gram_route_dual(datum, lattice):
    """The scaled dual of the rows of H / d by the Gram route, through
    sympy's exact inverse: the rows P^-1 H * ell N d / 2, P = H (N G) H^T."""
    h = Matrix(lattice.hnf)
    p = h * Matrix(datum.scaled_gram) * h.T
    rows = p.inv() * h * Rational(datum.ell * datum.gram_denominator * lattice.denominator, 2)
    return canonical_basis(datum, [
        weight([Fraction(int(x.p), int(x.q)) for x in rows.row(i)]) for i in range(rows.rows)
    ])


@st.composite
def full_rank_lattices(draw):
    """A datum of any type up to rank 8 at a valid ell in 3..12, and a
    lattice of full rank: n drawn rows over a denominator in 1..6, or the
    extended lattice of a super spec whose generators are ell times the
    rows and whose odd generator is half of one of them."""
    series, rank = draw(st.sampled_from(ALL_TYPES))
    ell = draw(st.integers(3, 12))
    try:
        datum = build_cartan_datum(series, rank, ell)
    except HypothesisViolated:
        assume(False)
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=rank, max_size=rank),
                         min_size=rank, max_size=rank))
    assume(Matrix(rows).rank() == rank)
    if draw(st.booleans()):
        den = draw(st.integers(1, 6))
        return datum, canonical_basis(datum, [Weight.over(row, den) for row in rows])
    i = draw(st.integers(0, rank - 1))
    try:
        spec = AlgebraSpec(datum, [Weight.over([ell * x for x in row], 1) for row in rows],
                           mu=Weight.over([ell * x for x in rows[i]], 2))
    except UprollError:  # half of that generator already lies in L
        assume(False)
    return datum, spec.extended_lattice


@settings(max_examples=150, deadline=None)
@given(case=full_rank_lattices())
def test_full_rank_dual_matches_the_gram_route_through_sympy(case):
    datum, lattice = case
    assert lattice.rank == datum.rank
    dual = scaled_dual(datum, lattice)
    assert dual == sympy_gram_route_dual(datum, lattice)
    assert all(in_dual(datum, lattice, row, dual.denominator) for row in dual.hnf)


@pytest.mark.parametrize(
    "gens,row",
    [([weight(["1/2", 0]), weight([0, 1])], "1/2, 0"), ([weight([1, 0]), weight([0, "1/2"])], "0, 1/2")],
    ids=["fails the dual condition", "a later row fails the dual condition"],
)
def test_a_lattice_row_outside_the_dual_is_named(gens, row):
    # No patched kernel: the dual of 3Q at ell = 6 is P, which holds
    # neither omega_1 / 2 nor omega_2 / 2; the first row outside it is named.
    datum = build_cartan_datum("A", 2, 6)
    dual = scaled_dual(datum, canonical_basis(datum, [3 * a for a in datum.simple_roots]))
    with pytest.raises(NotSubgroup) as info:
        quotient_census(dual, canonical_basis(datum, gens))
    assert str(info.value) == f"change of basis: lattice row [{row}] fails the dual condition"


class TestQuotientCensus:
    def test_a1_order_four(self):
        lat = canonical_basis(A1_4, [weight([4])])
        census = quotient_census(scaled_dual(A1_4, lat), lat)
        assert census.finite
        assert census.order == 4
        assert census.invariant_factors == (4,)
        assert census.reps == (weight([0]), weight([1]), weight([2]), weight([3]))

    def test_a2_order_twelve(self):
        a1, a2 = a2_roots()
        lat = canonical_basis(A2_4, [2 * a1, 2 * a2])
        census = quotient_census(scaled_dual(A2_4, lat), lat)
        assert census.finite
        assert census.order == 12
        assert census.invariant_factors == (2, 6)
        assert len(census.reps) == 12

    def test_half_integer_lattice(self):
        # Generators in (ell/2)P with ell odd: the lattice denominator is 2.
        datum = build_cartan_datum("A", 2, 5)
        lat = canonical_basis(datum, [weight([-5, -5]), weight(["5/2", -5])])
        assert lat.denominator == 2
        census = quotient_census(scaled_dual(datum, lat), lat)
        (a, b), (c, d) = [
            [2 * pairing(datum, x, y) / 5 for y in lattice_rows(lat)]
            for x in lattice_rows(lat)
        ]
        assert census.order == abs(a * d - b * c) == 75
        assert census.invariant_factors == (5, 15)

    def test_rank_deficit_is_infinite(self):
        # A dual below full rank, which scaled_dual never returns, is refused
        # whatever the lattice, before its change of basis is taken.
        a1, a2 = a2_roots()
        line = canonical_basis(A2_4, [2 * a1])
        for lat in (line, canonical_basis(A2_4, [2 * a1, 2 * a2])):
            with pytest.raises(InfiniteCensus) as info:
                quotient_census(line, lat)
            assert str(info.value) == f"census: a rank-{lat.rank} lattice in a rank-1 dual of ambient rank 2 has no finite census"

    def test_broken_change_of_basis_raises_not_subgroup(self, monkeypatch):
        a1, a2 = a2_roots()
        lat = canonical_basis(A2_4, [2 * a1, 2 * a2])
        dual = scaled_dual(A2_4, lat)
        # No integer coefficients: the first lattice row fails the dual
        # condition, which the change of basis decides, and is named.
        monkeypatch.setattr(_linalg, "combination_in_rows", lambda rows, targets: [None for _ in targets])
        with pytest.raises(NotSubgroup, match=r"change of basis: lattice row \[2, 2\] fails the dual condition"):
            quotient_census(dual, lat)
        assert not issubclass(InternalError, UprollError)

    def test_singular_change_of_basis_raises_internal_error(self, monkeypatch):
        a1, a2 = a2_roots()
        lat = canonical_basis(A2_4, [2 * a1, 2 * a2])
        dual = scaled_dual(A2_4, lat)
        # Upper triangular, as every square change of basis is, and singular.
        monkeypatch.setattr(
            _linalg, "combination_in_rows",
            lambda rows, targets: [[int(i == 0)] * len(rows) for i, _ in enumerate(targets)],
        )
        with pytest.raises(InternalError, match="singular"):
            quotient_census(dual, lat)

    def test_a_singular_change_of_basis_names_its_stage(self, monkeypatch):
        a1, a2 = a2_roots()
        lat = canonical_basis(A2_4, [2 * a1, 2 * a2])
        dual = scaled_dual(A2_4, lat)
        monkeypatch.setattr(_linalg, "det_int", lambda matrix: 0)
        with pytest.raises(InternalError) as info:
            quotient_census(dual, lat)
        assert str(info.value) == "change of basis: rank-2 lattice has a singular change of basis"

    def test_one_change_of_basis_solve_per_census(self, monkeypatch):
        real, seen = _linalg.combination_in_rows, []

        def recording(rows, targets):
            seen.append((len(rows), len(targets)))
            return real(rows, targets)

        a1, a2 = a2_roots()
        d4 = build_cartan_datum("D", 4, 6)
        cases = [(A2_4, [2 * a1, 2 * a2]), (d4, [3 * r for r in d4.simple_roots])]
        monkeypatch.setattr(_linalg, "combination_in_rows", recording)
        for datum, gens in cases:
            lat = canonical_basis(datum, gens)
            dual = scaled_dual(datum, lat)
            seen.clear()
            assert quotient_census(dual, lat).finite
            # One elimination of the dual rows for every lattice row at once.
            assert seen == [(dual.rank, lat.rank)]

    def test_not_subgroup(self):
        base = canonical_basis(A1_4, [weight([2])])
        dual = scaled_dual(A1_4, base)  # the lattice 2Z omega
        outsider = canonical_basis(A1_4, [weight([1])])
        with pytest.raises(NotSubgroup):
            quotient_census(dual, outsider)

    def test_reps_pairwise_distinct(self):
        a1, a2 = a2_roots()
        lat = canonical_basis(A2_4, [2 * a1, 2 * a2])
        census = quotient_census(scaled_dual(A2_4, lat), lat)
        reps = census.reps
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not contains(lat, reps[i] - reps[j])

    def test_order_times_lattice_returns_to_zero_coset(self):
        lat = canonical_basis(A1_4, [weight([4])])
        census = quotient_census(scaled_dual(A1_4, lat), lat)
        for rep in census.reps:
            assert contains(lat, census.order * rep)


def test_empty_lattice_in_a_full_dual_is_infinite():
    # The empty spec, with the whole space as its dual, is in test_localmod.
    datum = build_cartan_datum("A", 2, 6)
    three_q = canonical_basis(datum, [3 * a for a in datum.simple_roots])
    with pytest.raises(InfiniteCensus, match="a rank-0 lattice in a rank-2 dual"):
        quotient_census(scaled_dual(datum, three_q), canonical_basis(datum, ()))


def test_lattice_below_the_dual_rank_is_infinite():
    # 3 alpha_1 inside the full-rank dual of 3Q: Z^2 / (3Z + 0) is Z/3 + Z,
    # infinite although the dual has no continuous part.
    datum = build_cartan_datum("A", 2, 6)
    a1, a2 = datum.simple_roots
    dual = scaled_dual(datum, canonical_basis(datum, [3 * a1, 3 * a2]))
    assert dual.rank == dual.rank_ambient
    with pytest.raises(InfiniteCensus, match="a rank-1 lattice in a rank-2 dual"):
        quotient_census(dual, canonical_basis(datum, [3 * a1]))


FULL_A2 = RationalLattice(2, ((2, 2), (0, 6)), 1)  # 2Q in A2


@pytest.mark.parametrize(
    "kernel,first,second,message",
    [
        (scaled_dual, A2_4, RationalLattice(3, ((4, 0, 0),), 1), "a lattice of ambient rank 3 against a datum of rank 2"),
        (discriminant_matrix, A2_4, RationalLattice(3, ((6, 0, 5),), 1),
         "a lattice of ambient rank 3 against a datum of rank 2"),
        (quotient_census, RationalLattice(2, ((1, 0), (0, 1)), 1), RationalLattice(3, ((4, 0, 0),), 1),
         "a lattice of ambient rank 3 against a dual of ambient rank 2"),
        (quotient_census, RationalLattice(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1), FULL_A2,
         "a lattice of ambient rank 2 against a dual of ambient rank 3"),
    ],
    ids=["scaled_dual", "discriminant_matrix", "quotient_census-lattice", "quotient_census-dual"],
)
def test_a_wrong_ambient_rank_is_a_dimension_mismatch(kernel, first, second, message):
    # Checked before any other refusal: each rank-1 lattice here is also
    # below full rank, and a lattice of ambient rank 3 has a coordinate that
    # the A2 datum would drop.
    with pytest.raises(DimensionMismatch) as info:
        kernel(first, second)
    assert str(info.value) == message


def test_dual_and_membership_build_no_weights(monkeypatch):
    datum = build_cartan_datum("E", 8, 4)
    lattice = canonical_basis(datum, [2 * a for a in datum.simple_roots])

    def refuse(*args):
        raise AssertionError("a Weight was built")

    monkeypatch.setattr(uproll.lattice, "Weight", refuse)
    part = scaled_dual(datum, lattice)
    assert part.rank == 8
    assert all(in_dual(datum, lattice, h, part.denominator) for h in part.hnf)
    assert all(in_dual(datum, part, h, lattice.denominator) for h in lattice.hnf)


def test_census_past_the_budget_is_refused_before_enumeration():
    # 2k * omega for A1 at ell = 4 has a cyclic census of order k**2.
    for k, order in ((316, 316**2), (317, 317**2), (10**6, 10**12)):
        lat = canonical_basis(A1_4, [weight([2 * k])])
        dual = scaled_dual(A1_4, lat)
        if order <= MAX_CENSUS_ORDER:
            assert quotient_census(dual, lat).order == order
        else:
            with pytest.raises(BudgetExceeded, match=str(order)):
                quotient_census(dual, lat)


def test_census_budget_is_checked_before_the_smith_form(monkeypatch):
    # 200 * alpha_i for A2 at ell = 4: 100 times the order-12 census above.
    a1, a2 = a2_roots()
    lat = canonical_basis(A2_4, [200 * a1, 200 * a2])
    dual = scaled_dual(A2_4, lat)

    def refuse(mat):
        raise AssertionError("smith_normal_form ran on an over-budget census")

    monkeypatch.setattr(_linalg, "smith_normal_form", refuse)
    with pytest.raises(BudgetExceeded, match="120000"):
        quotient_census(dual, lat)


@st.composite
def upper_triangular_changes(draw):
    """Upper-triangular integer matrices up to 8x8, the shape of the
    census's change of basis: a positive diagonal whose product stays
    within MAX_CENSUS_ORDER, entries above it in [-9, 9]."""
    n = draw(st.integers(1, 8))
    mat, order = [], 1
    for i in range(n):
        pivot = draw(st.integers(1, MAX_CENSUS_ORDER // order))
        order *= pivot
        above = st.lists(st.integers(-9, 9), min_size=n - i - 1, max_size=n - i - 1)
        mat.append([0] * i + [pivot] + draw(above))
    return mat


@settings(max_examples=100, deadline=3000)
@given(change=upper_triangular_changes())
def test_census_smith_diagonal_matches_sympy(change):
    # The census of 2 alpha_i for A_n at ell = 4, run on the drawn change of
    # basis, which the Smith form receives as it is.
    n = len(change)
    datum = build_cartan_datum("A", n, 4)
    lat = canonical_basis(datum, [2 * r for r in datum.simple_roots])
    dual = scaled_dual(datum, lat)
    real, seen = _linalg.smith_normal_form, []

    def recording(mat):
        assert mat is change
        seen.append(real(mat))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(uproll.lattice, "_change_of_basis", lambda part, lattice: change)
        patch.setattr(_linalg, "smith_normal_form", recording)
        census = quotient_census(dual, lat)
    ((diag, _),) = seen
    ref = sympy_smith(Matrix(change), domain=ZZ)
    assert diag == [abs(int(ref[i, i])) for i in range(n)]
    assert census.invariant_factors == tuple(s for s in diag if s > 1)
    assert census.order == math.prod(diag)


# The largest order a drawn census below lists coset by coset.
LISTED_ORDER = 3000


@st.composite
def census_changes(draw):
    """Nonsingular integer changes of basis up to 8x8 with entries in
    [-100, 100] and an order of at most LISTED_ORDER: upper triangular, or
    made dense from an upper-triangular one by unimodular row and column
    steps, each kept only when every entry stays within the bound."""
    n = draw(st.integers(1, 8))
    dense = draw(st.booleans())
    mat, order = [], 1
    for i in range(n):
        pivot = draw(st.integers(1, min(100, LISTED_ORDER // order)))
        order *= pivot
        above = st.integers(-9, 9) if dense else st.integers(-100, 100)
        mat.append([0] * i + [pivot] + draw(st.lists(above, min_size=n - i - 1,
                                                     max_size=n - i - 1)))
    if dense:
        steps = st.tuples(st.booleans(), st.integers(0, n - 1), st.integers(0, n - 1),
                          st.integers(-3, 3))
        for on_rows, i, j, c in draw(st.lists(steps, min_size=n * n, max_size=4 * n * n)):
            if i == j:
                continue
            if on_rows:
                row = [a + c * b for a, b in zip(mat[i], mat[j])]
                if max(map(abs, row)) <= 100:
                    mat[i] = row
            elif all(abs(row[i] + c * row[j]) <= 100 for row in mat):
                for row in mat:
                    row[i] += c * row[j]
    return mat


@settings(max_examples=60, deadline=5000)
@given(change=census_changes(), series=st.sampled_from("ABCD"))
def test_finite_census_reps_fill_the_hermite_box(change, series):
    # The lattice whose change of basis on the HNF rows of the dual of
    # ell * P is the drawn matrix, in a datum of the matrix's rank.
    n = len(change)
    if n < {"A": 1, "B": 2, "C": 2, "D": 4}[series]:
        series = "A"
    datum = build_cartan_datum(series, n, 6)
    dual = scaled_dual(datum, canonical_basis(datum, [6 * fundamental_weight(datum, i)
                                                      for i in range(n)]))
    rows = [[sum(c * h[j] for c, h in zip(coeffs, dual.hnf)) for j in range(n)]
            for coeffs in change]
    lat = canonical_basis(datum, [Weight.over(row, dual.denominator) for row in rows])
    census = quotient_census(dual, lat)
    order = abs(int(Matrix(change).det()))
    ref = sympy_smith(Matrix(change), domain=ZZ)
    assert census.finite and census.order == order
    assert census.invariant_factors == tuple(
        s for s in (abs(int(ref[i, i])) for i in range(n)) if s > 1
    )
    reps = list(census.reps)
    assert len(reps) == order
    assert len({coset_reduce(lat, w) for w in reps}) == order
    assert all(contains(dual, w) for w in reps)
    bound = (order - 1) * max(abs(x) for row in dual.hnf for x in row)
    assert max(abs(x) for w in reps for x in w.row_over(dual.denominator)) <= bound


# Dense lattices below full rank, as in test_cli_fuzz.py: rows ell*N times
# nonzero integers up to 9, N the Gram denominator.  Their censuses are
# infinite, and the Smith form once stalled on such a change of basis.
DEFICIENT_TYPES = [("A", n) for n in range(4, 9)] + [("D", n) for n in range(5, 9)] + [("E", 6)]


@st.composite
def deficient_lattices(draw):
    series, rank = draw(st.sampled_from(DEFICIENT_TYPES))
    datum = build_cartan_datum(series, rank, draw(st.sampled_from([3, 4, 5, 6, 8])))
    scale = datum.ell * datum.gram_denominator
    k = rank - draw(st.integers(1, 2))
    rows = draw(st.lists(
        st.lists(st.integers(-9, 9).filter(bool), min_size=rank, max_size=rank),
        min_size=k, max_size=k,
    ))
    return datum, canonical_basis(datum, [Weight.over([scale * c for c in row], 1)
                                          for row in rows])


@settings(max_examples=40, deadline=None)
@given(case=deficient_lattices())
def test_infinite_census_factors_match_sympy(case):
    datum, lat = case
    spec = AlgebraSpec(datum, lattice_rows(lat))
    start = time.perf_counter()
    census = simple_census(spec)
    assert time.perf_counter() - start < 2.0
    assert not census.finite and census.reps is None and census.order is None
    assert census.complement_dimension == datum.rank - lat.rank
    factors = sympy_discriminant_factors(datum, lat)
    assert census.invariant_factors == factors
    # The same factors off the reference dual within the span of L: the
    # change of basis C with C D = L on the HNF rows, solved by sympy.
    dual = reference_dual(datum, lat)
    d = Matrix(dual.hnf) / dual.denominator
    change = Matrix(lat.hnf) / lat.denominator * d.T * (d * d.T).inv()
    assert all(x.is_integer for x in change)
    ref = sympy_smith(change, domain=ZZ)
    diag = (abs(int(ref[i, i])) for i in range(lat.rank))
    assert factors == tuple(s for s in diag if s > 1)
