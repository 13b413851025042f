import pickle
import random
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uproll.cartan
from helpers import ALL_TYPES, alpha_coordinates, fundamental_weight, random_weight, sympy_form, sympy_gram
from uproll import (
    ExponentModL,
    Weight,
    build_cartan_datum,
    exponent,
    in_simple_current_lattice,
    weight,
)
from uproll.cartan import MAX_RANK, bilinear
from uproll.cli import _exponent_json
from uproll.oracle import pairing
from uproll.errors import DimensionMismatch, HypothesisViolated, InvalidSeriesRank

# a valid order of the root of unity for each type used in table tests
DATA = [
    ("A", 1, 4),
    ("A", 2, 4),
    ("A", 3, 5),
    ("B", 2, 6),
    ("B", 3, 8),
    ("C", 2, 6),
    ("C", 3, 8),
    ("D", 4, 5),
    ("E", 6, 3),
    ("F", 4, 9),
    ("G", 2, 7),
]

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def coords_st(rank):
    return st.lists(fractions_st, min_size=rank, max_size=rank)


class TestBuildCartanDatum:
    def test_a1_ell4(self):
        d = build_cartan_datum("A", 1, 4)
        assert d.r == 2
        assert d.symmetrizers == (1,)
        assert d.gram == ((Fraction(1, 2),),)

    def test_a2_ell4(self):
        d = build_cartan_datum("A", 2, 4)
        assert d.r == 2
        assert d.gram == (
            (Fraction(2, 3), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(2, 3)),
        )

    @pytest.mark.parametrize("rank,ell", [(2, 4.9), (2.0, 4), (2.7, 4), ("2", 4), (2, "4"), (2, Fraction(4))])
    def test_rank_and_ell_are_read_as_exact_integers(self, rank, ell):
        with pytest.raises(TypeError):
            build_cartan_datum("A", rank, ell)

    def test_ell_below_three_rejected(self):
        with pytest.raises(HypothesisViolated):
            build_cartan_datum("A", 1, 2)

    def test_r_must_exceed_gcds(self):
        # G2 at ell = 6 gives r = 3 = gcd(3, r)
        with pytest.raises(HypothesisViolated):
            build_cartan_datum("G", 2, 6)
        # B2 at ell = 4 gives r = 2 = gcd(2, r)
        with pytest.raises(HypothesisViolated):
            build_cartan_datum("B", 2, 4)

    @pytest.mark.parametrize(
        "series,rank",
        [("Z", 1), ("D", 2), ("E", 5), ("F", 3), ("G", 3), ("A", 0)],
    )
    def test_unknown_types_rejected(self, series, rank):
        with pytest.raises(InvalidSeriesRank):
            build_cartan_datum(series, rank, 5)

    def test_odd_ell_gives_r_equals_ell(self):
        assert build_cartan_datum("A", 1, 7).r == 7
        assert build_cartan_datum("A", 1, 8).r == 4

    @pytest.mark.parametrize("series,rank,ell", DATA)
    def test_symmetrized_matrix_is_symmetric(self, series, rank, ell):
        d = build_cartan_datum(series, rank, ell)
        b = [
            [d.symmetrizers[i] * d.cartan[i][j] for j in range(rank)]
            for i in range(rank)
        ]
        assert b == [list(row) for row in zip(*b)]

    @pytest.mark.parametrize("series,rank,ell", DATA)
    def test_omega_alpha_contract(self, series, rank, ell):
        d = build_cartan_datum(series, rank, ell)
        for i in range(rank):
            for j in range(rank):
                expected = d.symmetrizers[j] if i == j else 0
                assert pairing(d, fundamental_weight(d, i), d.simple_root(j)) == expected

    @pytest.mark.parametrize("series,rank,ell", DATA)
    def test_short_roots_have_length_two(self, series, rank, ell):
        d = build_cartan_datum(series, rank, ell)
        for i in range(rank):
            alpha = d.simple_root(i)
            assert pairing(d, alpha, alpha) == 2 * d.symmetrizers[i]
        assert min(d.symmetrizers) == 1

    def test_rho_is_all_ones(self):
        d = build_cartan_datum("B", 2, 6)
        assert d.rho == weight([1, 1])
        # rho pairs with each simple root to its symmetrizer
        for j in range(2):
            assert pairing(d, d.rho, d.simple_root(j)) == d.symmetrizers[j]


class TestPairing:
    def test_a1_fundamental(self):
        d = build_cartan_datum("A", 1, 4)
        w = weight([1])
        assert pairing(d, w, w) == Fraction(1, 2)

    def test_a1_root_length(self):
        d = build_cartan_datum("A", 1, 4)
        alpha = weight([2])
        assert pairing(d, alpha, alpha) == 2

    def test_zero_pairs_to_zero(self):
        d = build_cartan_datum("G", 2, 7)
        assert pairing(d, Weight.zero(2), weight([3, "5/2"])) == 0

    def test_dimension_mismatch(self):
        d = build_cartan_datum("A", 2, 4)
        with pytest.raises(DimensionMismatch):
            pairing(d, weight([1]), weight([1, 0]))

    @settings(max_examples=60, deadline=None)
    @given(a=coords_st(2), b=coords_st(2))
    def test_symmetry(self, a, b):
        d = build_cartan_datum("B", 2, 6)
        assert pairing(d, weight(a), weight(b)) == pairing(d, weight(b), weight(a))

    @settings(max_examples=60, deadline=None)
    @given(a=coords_st(2), b=coords_st(2), c=coords_st(2), s=fractions_st)
    def test_bilinearity(self, a, b, c, s):
        d = build_cartan_datum("A", 2, 4)
        wa, wb, wc = weight(a), weight(b), weight(c)
        assert pairing(d, wa + s * wb, wc) == pairing(d, wa, wc) + s * pairing(
            d, wb, wc
        )

    @settings(max_examples=60, deadline=None)
    @given(a=coords_st(2))
    def test_positive_definite(self, a):
        d = build_cartan_datum("G", 2, 7)
        w = weight(a)
        val = pairing(d, w, w)
        assert val > 0 or (val == 0 and w.is_zero)


class TestSimpleCurrentLattice:
    def test_even_multiple_in(self):
        d = build_cartan_datum("A", 1, 4)
        assert in_simple_current_lattice(d, weight([2]))

    def test_fundamental_out(self):
        d = build_cartan_datum("A", 1, 4)
        assert not in_simple_current_lattice(d, weight([1]))

    def test_odd_ell_half_integer(self):
        d = build_cartan_datum("A", 1, 3)
        assert in_simple_current_lattice(d, weight(["3/2"]))
        assert not in_simple_current_lattice(d, weight(["1/2"]))

    @settings(max_examples=60, deadline=None)
    @given(
        ks=st.lists(st.integers(-4, 4), min_size=2, max_size=2),
        ms=st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    )
    def test_closed_under_addition(self, ks, ms):
        d = build_cartan_datum("A", 2, 5)
        half = Fraction(d.ell, 2)
        a = weight([half * k for k in ks])
        b = weight([half * m for m in ms])
        assert in_simple_current_lattice(d, a)
        assert in_simple_current_lattice(d, b)
        assert in_simple_current_lattice(d, a + b)


class TestExponentModL:
    def test_canonical_representative(self):
        e = exponent(Fraction(-1, 2), 4)
        assert e.canonical == Fraction(7, 2)

    def test_congruence_equality(self):
        assert exponent(-9, 6) == exponent(3, 6)
        assert exponent(1, 6) != exponent(2, 6)
        assert exponent(1, 6) != exponent(1, 4)

    @pytest.mark.parametrize("other", [0, Fraction(1, 2), "1/2", (1, 2, 4)])
    def test_an_exponent_equals_nothing_but_an_exponent(self, other):
        e = exponent(Fraction(1, 2), 4)
        assert e.__eq__(other) is NotImplemented
        assert e != other and not e == other

    def test_arithmetic(self):
        a = exponent(Fraction(5, 2), 4)
        b = exponent(Fraction(3, 2), 4)
        assert (a + b) == exponent(0, 4)
        assert (a - b) == exponent(1, 4)
        assert (-a) == exponent(Fraction(3, 2), 4)
        assert sum([a] * 7, a) == exponent(0, 4)  # the eighth power of q^{5/2}

    def test_mixed_modulus_rejected(self):
        with pytest.raises(ValueError):
            exponent(1, 4) + exponent(1, 6)

    def test_scalar_string(self):
        assert _exponent_json(exponent(Fraction(-1, 2), 4))["scalar"] == "q^{7/2}"

    @pytest.mark.parametrize("build", [ExponentModL, exponent])
    def test_a_float_value_is_refused(self, build):
        with pytest.raises(TypeError, match="float"):
            build(0.5, 4)

    @pytest.mark.parametrize("build", [ExponentModL, exponent])
    @pytest.mark.parametrize("modulus", [0, -4])
    def test_an_order_below_one_is_refused(self, build, modulus):
        with pytest.raises(ValueError, match=f"got {modulus}"):
            build(1, modulus)

    def test_a_float_order_is_refused(self):
        with pytest.raises(TypeError):
            exponent(1, 4.0)

    def test_a_string_value_is_read_as_a_rational(self):
        e = ExponentModL("1/2", 4)
        assert (e.num, e.den, e.modulus) == (1, 2, 4)
        assert e == exponent(Fraction(1, 2), 4)
        assert repr(e) == "ExponentModL(1/2 mod 4)"
        assert exponent("-9/2", 4).canonical == Fraction(7, 2)

    @settings(max_examples=200, deadline=None)
    @given(a=fractions_st, b=fractions_st, modulus=st.integers(1, 12), k=st.integers(-3, 3))
    def test_equality_and_hash_are_congruence_modulo_the_order(self, a, b, modulus, k):
        x, y = ExponentModL(a, modulus), ExponentModL(b, modulus)
        assert (x == y) == (((a - b) / modulus).denominator == 1)
        shifted = ExponentModL(a + k * modulus, modulus)
        assert x == shifted and hash(x) == hash(shifted)
        assert x != ExponentModL(a, modulus + 1)
        assert (x.num, x.den) == (a.numerator, a.denominator) and x.value == a
        again = pickle.loads(pickle.dumps(x))
        assert again == x and (again.num, again.den, again.modulus) == (x.num, x.den, modulus)

    @settings(max_examples=50, deadline=None)
    @given(v=fractions_st)
    def test_canonical_in_range(self, v):
        e = ExponentModL(v, 5)
        assert 0 <= e.canonical < 5
        assert e == exponent(v + 15, 5)


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_alpha_coordinates_invert_the_cartan_matrix(series, rank):
    sympy = pytest.importorskip("sympy")
    d = build_cartan_datum(series, rank, 7)
    unit = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    assert [alpha_coordinates(d, d.simple_root(i)) for i in range(rank)] == unit
    inv = sympy.Matrix(d.cartan).inv()
    for i in range(rank):
        expected = tuple(Fraction(int(inv[j, i].p), int(inv[j, i].q)) for j in range(rank))
        assert alpha_coordinates(d, fundamental_weight(d, i)) == expected


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_scaled_gram_is_the_gram_over_a_divisor_of_det(series, rank):
    sympy = pytest.importorskip("sympy")
    d = build_cartan_datum(series, rank, 7)
    n = d.gram_denominator
    assert all(type(x) is int for row in d.scaled_gram for x in row)
    # N is the least common denominator: no common factor is left over.
    assert gcd(n, *(x for row in d.scaled_gram for x in row)) == 1
    gram = sympy_gram(d)
    assert sympy.Matrix(d.scaled_gram) == n * gram
    assert d.gram == tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in gram.row(i)) for i in range(rank)
    )
    da = sympy.Matrix([[di * a for a in row] for di, row in zip(d.symmetrizers, d.cartan)])
    assert int(da.det()) % n == 0


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_pairing_matches_a_sympy_gram(series, rank):
    pytest.importorskip("sympy")
    d = build_cartan_datum(series, rank, 7)
    gram = sympy_gram(d)
    rng = random.Random(f"pairing {series}{rank}")
    for _ in range(6):
        lam = random_weight(rng, rank, span=9, den=12)
        mu = random_weight(rng, rank, span=9, den=12)
        assert pairing(d, lam, mu) == sympy_form(gram, lam, mu)


def test_bilinear_is_an_integer_kernel():
    m = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    value = bilinear(m, (1, 0, 3), (4, 5, -6))
    assert type(value) is int and value == 1 * (8 - 5) + 3 * (-5 - 12)


def test_rank_above_the_cap_is_refused():
    with pytest.raises(InvalidSeriesRank, match=str(MAX_RANK + 1)):
        build_cartan_datum("A", MAX_RANK + 1, 6)
    assert build_cartan_datum("A", MAX_RANK, 6).rank == MAX_RANK


@pytest.mark.parametrize(
    "series,rank", ALL_TYPES + [("A", MAX_RANK), ("B", MAX_RANK), ("C", MAX_RANK), ("D", MAX_RANK)]
)
def test_type_table_matches_a_direct_sympy_gram(series, rank):
    import sympy

    cartan, d = uproll.cartan._series_data(series, rank)
    sym = sympy.diag(*d)
    gram = sym * (sym * sympy.Matrix(cartan)).inv() * sym
    n = lcm(*(int(x.q) for x in gram))
    scaled = tuple(tuple(int(x * n) for x in gram.row(i)) for i in range(rank))
    # The fifth element is the flat twist form on (x, s), checked as the
    # polynomial x.(N G).x + s (N G rho).x in symbols; the sixth is det(A).
    *table, form, det = uproll.cartan._type_table(series, rank)
    assert table == [tuple(map(tuple, cartan)), tuple(d), scaled, n]
    assert det == sympy.Matrix(cartan).det()
    x = sympy.symbols(f"x0:{rank + 1}")
    v = sympy.Matrix(x[:rank])
    expected = (v.T * sympy.Matrix(scaled) * (v + x[rank] * sympy.ones(rank, 1)))[0]
    assert all(c != 0 and i <= j for i, j, c in form)
    assert sympy.expand(sum(c * x[i] * x[j] for i, j, c in form) - expected) == 0
    datum = build_cartan_datum(series, rank, 7)
    assert (datum.scaled_gram, datum.gram_denominator) == (scaled, n)


@pytest.mark.parametrize(
    "series,rank,ell",
    [("Z", 1, 7), ("A", 0, 7), ("A", MAX_RANK + 1, 7), ("D", 2, 7), ("E", 5, 7),
     ("A", 2, 2), ("G", 2, 6), ("B", 2, 4)],
)
def test_refused_types_and_orders_store_nothing(series, rank, ell, monkeypatch):
    table = cache(uproll.cartan._type_table.__wrapped__)
    monkeypatch.setattr(uproll.cartan, "_type_table", table)
    with pytest.raises((InvalidSeriesRank, HypothesisViolated)):
        build_cartan_datum(series, rank, ell)
    assert table.cache_info().currsize == 0
    build_cartan_datum("A", 2, 7)
    build_cartan_datum("A", 2, 9)
    with pytest.raises((InvalidSeriesRank, HypothesisViolated)):
        build_cartan_datum(series, rank, ell)
    assert table.cache_info().currsize == 1
