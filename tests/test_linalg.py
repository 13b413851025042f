import json
import random
import re
import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import hermite_normal_form as sympy_hermite
from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp
from sympy.matrices.normalforms import smith_normal_form as sympy_smith

from uproll import Weight, build_cartan_datum, canonical_basis, contains, scaled_dual
from uproll.cartan import MAX_RANK, _series_data, cartan_determinant
from uproll.cli import run
from uproll.errors import InvalidSeriesRank
from uproll.lattice import in_dual
from uproll._linalg import (
    box_dots,
    combination_in_rows,
    det_int,
    echelon_reduce,
    mat_inverse,
    row_hermite_form,
    smith_normal_form,
    xgcd,
)


def matrix_st(rows, cols, bound=9):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@settings(max_examples=100, deadline=None)
@given(a=st.integers(-200, 200), b=st.integers(-200, 200))
def test_xgcd_identity(a, b):
    g, x, y = xgcd(a, b)
    assert g >= 0
    assert x * a + y * b == g
    if a or b:
        assert a % g == 0 and b % g == 0


class TestHermiteForm:
    def test_convention(self):
        h = row_hermite_form([[4, -2], [-2, 4]])
        assert h == [[2, 2], [0, 6]]
        for i, row in enumerate(h):
            p = next(j for j, v in enumerate(row) if v)
            assert row[p] > 0
            for k in range(i):
                assert 0 <= h[k][p] < row[p]

    @settings(max_examples=80, deadline=None)
    @given(mat=matrix_st(3, 3), qs=st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    def test_span_invariant_under_elementary_row_ops(self, mat, qs):
        base = row_hermite_form(mat)
        mixed = [row[:] for row in mat]
        mixed[0] = [a + qs[0] * b for a, b in zip(mixed[0], mixed[1])]
        mixed[1], mixed[2] = mixed[2], mixed[1]
        mixed[2] = [-c for c in mixed[2]]
        mixed[1] = [b + qs[1] * a for b, a in zip(mixed[1], mixed[0])]
        mixed[0] = [a + qs[2] * c for a, c in zip(mixed[0], mixed[2])]
        assert row_hermite_form(mixed) == base

    def test_zero_rows_dropped(self):
        assert row_hermite_form([[0, 0], [0, 0]]) == []
        assert row_hermite_form([]) == []


@settings(max_examples=80, deadline=None)
@given(mat=matrix_st(3, 3), v=st.lists(st.integers(-40, 40), min_size=3, max_size=3))
def test_echelon_reduce_returns_the_multiple_of_each_row(mat, v):
    rows = row_hermite_form(mat)
    rest, multiples = echelon_reduce(v, rows)
    assert len(multiples) == len(rows)
    assert [a - sum(q * row[j] for q, row in zip(multiples, rows)) for j, a in enumerate(v)] == rest
    for row in rows:
        p = next(j for j, x in enumerate(row) if x)
        assert 0 <= rest[p] < row[p]
    # A vector in the span reduces to zero, and its multiples are its coefficients.
    coeffs = [v[i] for i in range(len(rows))]
    inside = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(3)]
    assert echelon_reduce(inside, rows) == ([0, 0, 0], coeffs)


def test_box_dots_read_every_vector_of_the_box_in_lexicographic_order():
    spans, w = [range(2), range(-1, 2), range(3)], [5, -2, 7]
    assert box_dots(spans, w) == [sum(c * x for c, x in zip(v, w)) for v in product(*spans)]
    assert box_dots([], []) == [0]
    assert box_dots([range(0)], [1]) == []


class TestSmithForm:
    def test_known_diagonal(self):
        diag, _ = smith_normal_form([[4, -2], [-2, 4]])
        assert diag == [2, 6]

    @settings(max_examples=80, deadline=None)
    @given(mat=matrix_st(3, 3))
    def test_divisibility_and_determinant(self, mat):
        diag, vinv = smith_normal_form(mat)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert all(d > 0 for d in diag)
        det = det_int(mat)
        if det:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(det)
        # vinv must be unimodular
        assert abs(det_int(vinv)) == 1

    @settings(max_examples=60, deadline=None)
    @given(mat=matrix_st(3, 3))
    def test_adapted_basis_spans_the_row_lattice(self, mat):
        det = det_int(mat)
        if not det:
            return
        diag, vinv = smith_normal_form(mat)
        # rows of diag(diag) * vinv generate the same lattice as mat
        scaled = [[diag[i] * vinv[i][j] for j in range(3)] for i in range(3)]
        assert row_hermite_form(scaled) == row_hermite_form(mat)


def seeded_matrices(seed=20251018, count=200):
    """Random integer matrices up to 5x5 with entries in [-6, 6]; every
    fourth one with two or more rows ends in the negated first row, so
    rank-deficient inputs are covered too."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if k % 4 == 0 and rows > 1:
            mat[-1] = [-x for x in mat[0]]
        out.append(mat)
    return out


def integer_span_test(rows):
    """Membership in the integer row span, decided with sympy's Smith
    decomposition S = U * A * V: x * A = t has an integer solution exactly
    when z * S = t * V does, which reads off the diagonal of S."""
    smith, _, v = smith_normal_decomp(Matrix(rows))
    diag = [smith[j, j] for j in range(min(smith.shape))]

    def contains(target):
        w = Matrix([target]) * v
        return all(
            (w[j] % diag[j] if j < len(diag) and diag[j] else w[j]) == 0
            for j in range(len(target))
        )

    return contains


class TestAgainstSympy:
    def test_smith_invariant_factors(self):
        for mat in seeded_matrices():
            theirs = [abs(int(x)) for x in invariant_factors(Matrix(mat)) if x]
            assert smith_normal_form(mat)[0] == theirs, mat

    def test_hermite_rows_span_the_input_lattice(self):
        for mat in seeded_matrices():
            hnf = row_hermite_form(mat)
            if not hnf:
                assert not any(map(any, mat))
                continue
            in_input, in_hnf = integer_span_test(mat), integer_span_test(hnf)
            assert all(in_input(row) for row in hnf), mat
            assert all(in_hnf(row) for row in mat), mat


@st.composite
def hermite_inputs(draw):
    """Integer matrices up to 12 rows and 10 columns with entries in
    [-9, 9], with zero rows and rows repeated up to sign, so rank
    deficiency is common."""
    n = draw(st.integers(1, 10))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat" and rows:
            sign = draw(st.sampled_from([-1, 1]))
            rows.append([sign * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    return rows


def sympy_row_hermite(rows):
    """The row Hermite form from sympy's, which is column-style with pivots
    at the right: reverse the columns, transpose, take sympy's form,
    transpose back, reverse the columns again, drop the zero rows and
    order the rest by pivot."""
    if not any(map(any, rows)):
        return []
    flipped = Matrix([row[::-1] for row in rows])
    h = sympy_hermite(flipped.T).T
    out = [[int(x) for x in h.row(i)][::-1] for i in range(h.rows)]
    return sorted((r for r in out if any(r)), key=lambda r: next(j for j, x in enumerate(r) if x))


@settings(max_examples=300, deadline=None)
@given(rows=hermite_inputs())
def test_hermite_form_matches_sympy(rows):
    assert row_hermite_form(rows) == sympy_row_hermite(rows)


class TestRationalKernels:
    @settings(max_examples=60, deadline=None)
    @given(mat=matrix_st(3, 3))
    def test_inverse(self, mat):
        if det_int(mat) == 0:
            return
        adj, det = mat_inverse(mat)
        assert det == det_int(mat)
        for i in range(3):
            for j in range(3):
                entry = sum(mat[i][k] * adj[k][j] for k in range(3))
                assert entry == (det if i == j else 0)

    @pytest.mark.parametrize("mat", [[[6, -3]], [[1], [2]], [[1, 2]], [[1, 2], [3]], [[1, 2], [3, 4], [5, 6]]])
    def test_a_matrix_that_is_not_square_is_refused_naming_its_shape(self, mat):
        shape = re.escape(f"{len(mat)}-row matrix with row lengths {[len(row) for row in mat]}")
        with pytest.raises(ValueError, match=shape):
            det_int(mat)
        with pytest.raises(ValueError, match=shape):
            mat_inverse(mat)

    def test_combination_solves_and_detects(self):
        den, solutions = combination_in_rows([[2, 0], [1, 3]], [[4, 6], [0, 0], [1, 0]])
        assert den > 0
        assert [[Fraction(x, den) for x in sol] for sol in solutions] == [
            [1, 2], [0, 0], [Fraction(1, 2), 0]
        ]
        # Inside and outside the span in one call.
        rows = [[1, 0, 0], [0, 1, 0]]
        den, solutions = combination_in_rows(rows, [[0, 0, 1], [2, 3, 0], [0, 0, 0]])
        assert solutions[0] is None and solutions[2] == [0, 0]
        assert [Fraction(x, den) for x in solutions[1]] == [2, 3]
        assert combination_in_rows(rows, [])[1] == []
        assert combination_in_rows([], [[0, 0], [1, 0]]) == (1, [[], None])
        for dependent in ([[0, 0], [1, 0]], [[1, 2], [-2, -4]], [[1, 0], [0, 1], [1, 1]]):
            with pytest.raises(ValueError):
                combination_in_rows(dependent, [[0, 0]])

    @pytest.mark.parametrize("rows,targets", [
        ([[2, 0], [1, 3]], [[4, 6, 0]]),
        ([[2, 0], [1, 3]], [[4]]),
        ([[2, 0], [1, 3]], [[4, 6], [1]]),
        ([[1, 0, 0]], [[1, 0], [1, 0, 0]]),
    ])
    def test_a_target_of_another_length_is_refused_naming_the_shapes(self, rows, targets):
        shape = re.escape(f"targets of lengths {[len(t) for t in targets]} against rows of length {len(rows[0])}")
        with pytest.raises(ValueError, match=shape):
            combination_in_rows(rows, targets)

    def test_random_combinations_round_trip(self):
        rng = random.Random(9)
        for _ in range(40):
            rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(2)]
            if combination_is_degenerate(rows):
                continue
            batch = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(rng.randint(1, 3))]
            targets = [
                [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(3)]
                for coeffs in batch
            ]
            den, solutions = combination_in_rows(rows, targets)
            assert [[Fraction(x, den) for x in sol] for sol in solutions] == batch


@st.composite
def square_matrices(draw):
    """Square matrices up to 8x8 with entries in [-100, 100]; about half
    start with a zero entry, which forces a row swap, and about one in
    four has its last row replaced by a combination of two others, so
    singular inputs are drawn too."""
    n = draw(st.integers(1, 8))
    mat = draw(matrix_st(n, n, 100))
    if draw(st.booleans()):
        mat[0][0] = 0
    if n > 1 and draw(st.integers(0, 3)) == 0:
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[n // 2 - 1])]
    return mat


@st.composite
def nonsingular_matrices(draw):
    """Dense square matrices up to 8x8 with nonzero entries in [-100, 100]
    and a nonzero determinant."""
    n = draw(st.integers(1, 8))
    entry = st.integers(-100, 100).filter(bool)
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(det_int(mat))
    return mat


# The census box of a rank-7 lattice in A8 at ell = 6, a Hermite box with
# wide entries right of its pivots, and a dense matrix: a min-pivot
# elimination grew their entries pass after pass and did not end within
# 1 s on any of them.
SLOW_CENSUS_BOX = [
    [67218951600, 0, 0, 0, 0, 0, 5292], [0, 1944, 0, 0, 0, 0, 5184], [0, 0, 972, 0, 0, 0, 1512],
    [0, 0, 0, 972, 0, 0, 2916], [0, 0, 0, 0, 972, 0, 648], [0, 0, 0, 0, 0, 1944, 1944],
    [0, 0, 0, 0, 0, 0, 5400],
]
SLOW_RECTANGULAR_BOX = [
    [1, 0, 0, 0, 0, 2, 0, 4, 24385417, 25034169, 16915557, -21975483],
    [0, 1, 0, 1, 0, 4, 0, 2, 28515074, 29273695, 19780198, -25697023],
    [0, 0, 1, 0, 0, 0, 0, 5, 26537724, 27243732, 18408558, -23915081],
    [0, 0, 0, 2, 0, 3, 0, 5, 26972868, 27690455, 18710407, -24307224],
    [0, 0, 0, 0, 1, 3, 0, 5, 3066328, 3147900, 2127035, -2763285],
    [0, 0, 0, 0, 0, 5, 0, 8, 15456103, 15867293, 10721514, -13928617],
    [0, 0, 0, 0, 0, 0, 1, 6, 12134145, 12456956, 8417154, -10934959],
    [0, 0, 0, 0, 0, 0, 0, 11, 7679523, 7883816, 5327092, -6920564],
    [0, 0, 0, 0, 0, 0, 0, 0, 31959749, 32810014, 22169683, -28801276],
]
SLOW_DENSE = [
    [-5, 8, 7, -9, -6, -6], [-6, 7, 4, 6, -4, -7], [-7, -4, 4, -1, -7, -8],
    [4, -8, 4, 9, -3, -9], [-3, -8, 3, -5, -2, -7], [7, -6, 6, -6, -8, 3],
]


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError inside the block once it has run for the given
    wall time, so that a call that would never return fails too."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def dense_rows(count, width=32, seed=7):
    """count seeded rows of width entries in [-9, 9]."""
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(width)] for _ in range(count)]


# The sizes the Hermite form is built for, in cartan.MAX_RANK = 32 columns.
# A Hermite form that merged every row into one accumulator per column and
# reduced only at the end took 4.5 s or more on each, most past 12 s.
HERMITE_TIME_BOUND = 3.0


@pytest.mark.parametrize(
    "rows,rank",
    [
        (dense_rows(32), 32),
        (dense_rows(48), 32),
        (dense_rows(96), 32),
        (dense_rows(128), 32),
        ([row[:31] + [row[0] - row[30]] for row in dense_rows(48)], 31),
    ],
    ids=["full-rank-32", "overdetermined-48", "overdetermined-96", "overdetermined-128", "rank-31-of-48"],
)
def test_canonical_basis_of_dense_generators_within_a_time_bound(rows, rank):
    datum = build_cartan_datum("A", 32, 4)
    gens = [Weight.over(row, 1) for row in rows]
    with time_limit(HERMITE_TIME_BOUND):
        lattice = canonical_basis(datum, gens)
    assert lattice.rank == rank
    assert all(contains(lattice, g) for g in gens)


@pytest.mark.parametrize(
    "series,rank,ell",
    [("A", 32, 4), ("B", 32, 6), ("C", 32, 6), ("C", 30, 6), ("D", 28, 4), ("D", 32, 4)],
)
def test_scaled_dual_of_a_dense_rank_deficient_lattice_within_a_time_bound(series, rank, ell):
    # One generator short of full rank; each is ell N times nonzero entries
    # in [-9, 9], so the dual rows carry entries the size of det P.
    datum = build_cartan_datum(series, rank, ell)
    rng = random.Random(3)
    scale = datum.ell * datum.gram_denominator
    nonzero = [x for x in range(-9, 10) if x]
    rows = [[scale * rng.choice(nonzero) for _ in range(rank)] for _ in range(rank - 1)]
    with time_limit(HERMITE_TIME_BOUND):
        lattice = canonical_basis(datum, [Weight.over(row, 1) for row in rows])
        dual = scaled_dual(datum, lattice)
    assert (dual.rank, dual.rank_ambient - dual.rank) == (rank - 1, 1)
    assert all(in_dual(datum, lattice, row, dual.denominator) for row in dual.hnf)


def test_census_on_dense_generators_exits_within_a_time_bound(tmp_path, capsys):
    # Not commutative: the documented exit code 5, after the Hermite form of
    # the 48 generators in 32 columns.  A run cut by the time limit exits 2
    # instead, since TimeoutError is an OSError.
    lattice = [[str(4 * x) for x in row] for row in dense_rows(48)]
    path = tmp_path / "a32.json"
    path.write_text(json.dumps({"series": "A", "rank": 32, "ell": 4, "lattice": lattice}), encoding="utf-8")
    with time_limit(HERMITE_TIME_BOUND):
        assert run(["census", "--input", str(path)]) == 5
    assert "does not meet the command's precondition" in capsys.readouterr().err


def test_census_refusal_names_one_witness_and_counts_the_rest(tmp_path, capsys):
    # The 48 dense generators fail 936 congruences; the message names the
    # stage and the first witness, with its value as a p/q string, and
    # counts the other 935 instead of printing them.
    lattice = [[str(4 * x) for x in row] for row in dense_rows(48)]
    path = tmp_path / "a32.json"
    path.write_text(json.dumps({"series": "A", "rank": 32, "ell": 4, "lattice": lattice}), encoding="utf-8")
    assert run(["census", "--input", str(path)]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.encode()) < 1024
    assert "commutativity check fails: diagonal witness (0, 0) has value 393472/11" in err
    assert "and 935 more witnesses fail" in err


def check_smith(mat):
    """smith_normal_form(mat) within 1 s, with sympy's diagonal, a
    unimodular vinv, and rows diag_i * vinv_i spanning the rows of mat."""
    with time_limit(1.0):
        diag, vinv = smith_normal_form(mat)
    assert diag == [abs(int(x)) for x in invariant_factors(Matrix(mat)) if x]
    assert abs(det_int(vinv)) == 1
    scaled = [[d * x for x in row] for d, row in zip(diag, vinv)]
    assert row_hermite_form(scaled) == row_hermite_form(mat)


@st.composite
def wide_matrices(draw):
    """Integer matrices with 1-12 rows and 1-14 columns and entries in
    [-9, 9]: their Hermite boxes are square, wide or tall, and often
    rank-deficient."""
    return draw(matrix_st(draw(st.integers(1, 12)), draw(st.integers(1, 14))))


def smith_of_hermite(mat) -> list[int]:
    """The Smith diagonal as the census takes it: on the Hermite form."""
    return smith_normal_form(row_hermite_form(mat))[0]


class TestSmithDiagonalOfHermiteForm:
    @settings(max_examples=150, deadline=None)
    @given(mat=nonsingular_matrices())
    def test_matches_sympy_within_a_time_bound(self, mat):
        start = time.perf_counter()
        diag = smith_of_hermite(mat)
        assert time.perf_counter() - start < 1.0
        ref = sympy_smith(Matrix(mat), domain=ZZ)
        assert diag == [abs(int(ref[i, i])) for i in range(len(mat))]

    def test_entries_above_the_determinant(self):
        # Upper triangular like the census's change of basis, with entries
        # far above the determinant; sympy gives (1, 1, 1210104).
        mat = [[14, 2**31 - 1, 5], [0, 98, 2**30 + 7], [0, 0, 98 * 9]]
        assert smith_of_hermite(mat) == [1, 1, 1210104]

    def test_unimodular_and_scalar(self):
        assert smith_of_hermite([[2, 1], [1, 1]]) == [1, 1]
        assert smith_of_hermite([[6, 0], [0, 6]]) == [6, 6]
        assert smith_of_hermite([[6, 0], [0, 4]]) == [2, 12]
        # A zero pivot over a zero entry and a nonzero one.
        assert smith_of_hermite([[0, 2, 0], [0, 0, 3], [5, 0, 0]]) == [1, 1, 30]

    @settings(max_examples=150, deadline=None)
    @given(mat=wide_matrices())
    def test_rectangular_boxes_up_to_twelve_rows(self, mat):
        box = row_hermite_form(mat)
        assume(box)
        check_smith(box)

    @pytest.mark.parametrize(
        "mat", [SLOW_CENSUS_BOX, SLOW_RECTANGULAR_BOX, SLOW_DENSE], ids=["census", "rectangular", "dense"]
    )
    def test_inputs_whose_entries_once_grew_without_bound(self, mat):
        check_smith(mat)


@st.composite
def combination_problems(draw):
    """Integer rows and one batch of integer targets: 1 <= k <= n rows of
    length n, some made dependent or zero, and targets inside the row
    span, anywhere, or zero, in any number."""
    entry = st.integers(-9, 9)
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    broken = draw(st.integers(0, 5))
    if k > 1 and broken == 0:
        c = draw(entry)
        rows[-1] = [c * x - y for x, y in zip(rows[0], rows[k // 2 - 1])]
    elif broken == 1:
        rows[draw(st.integers(0, k - 1))] = [0] * n
    targets = []
    for kind in draw(st.lists(st.sampled_from(["span", "any", "zero"]), max_size=4)):
        if kind == "span":
            coeffs = draw(st.lists(entry, min_size=k, max_size=k))
            targets.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)])
        elif kind == "any":
            targets.append(draw(st.lists(entry, min_size=n, max_size=n)))
        else:
            targets.append([0] * n)
    return rows, targets


class TestEliminationAgainstSympy:
    @settings(max_examples=120, deadline=None)
    @given(mat=square_matrices())
    def test_inverse_is_adjugate_and_determinant(self, mat):
        ref = Matrix(mat)
        det = ref.det()
        if det == 0:
            with pytest.raises(ValueError):
                mat_inverse(mat)
            return
        adj, got = mat_inverse(mat)
        assert got == det
        assert Matrix(adj) == ref.adjugate()

    @settings(max_examples=150, deadline=None)
    @given(mat=square_matrices())
    def test_determinant_matches_sympy(self, mat):
        assert det_int(mat) == Matrix(mat).det()

    def test_determinant_of_the_empty_matrix(self):
        assert det_int([]) == Matrix.zeros(0, 0).det() == 1
        assert mat_inverse([]) == ([], 1)  # the empty matrix is square

    @settings(max_examples=150, deadline=None)
    @given(problem=combination_problems())
    def test_combination_matches_sympy_solve(self, problem):
        rows, targets = problem
        if Matrix(rows).rank() < len(rows):
            with pytest.raises(ValueError):
                combination_in_rows(rows, targets)
            return
        den, solutions = combination_in_rows(rows, targets)
        assert den > 0 and len(solutions) == len(targets)
        for target, got in zip(targets, solutions):
            try:
                solution, _ = Matrix(rows).T.gauss_jordan_solve(Matrix(target))
            except ValueError:  # sympy: no solution, target outside the span
                assert got is None
                continue
            expected = [Fraction(int(x.p), int(x.q)) for x in solution]
            assert [Fraction(x, den) for x in got] == expected


def _supported_types():
    """Every (series, rank) that _series_data accepts, found by trying."""
    found = []
    for series in "ABCDEFG":
        for rank in range(1, MAX_RANK + 1):
            try:
                _series_data(series, rank)
            except InvalidSeriesRank:
                continue
            found.append((series, rank))
    return found


@pytest.mark.parametrize("series,rank", _supported_types())
def test_leading_minors_of_every_symmetrized_cartan_matrix(series, rank):
    # The type table checks nothing at run time, so this covers every type
    # it can be asked for: D A is symmetric, and its leading principal
    # minors, the running products of the pivots of a naive elimination
    # over Fractions without row exchanges (no _linalg code), are positive,
    # so D A is positive definite.
    cartan, d = _series_data(series, rank)
    b = [[Fraction(di * x) for x in row] for di, row in zip(d, cartan)]
    assert b == [list(col) for col in zip(*b)]
    minors = []
    for k in range(rank):
        minors.append(b[k][k] * (minors[-1] if minors else 1))
        assert minors[-1] > 0
        for i in range(k + 1, rank):
            f = b[i][k] / b[k][k]
            b[i] = [x - f * y for x, y in zip(b[i], b[k])]
    # det(D A) = det(A) prod d_i, against the determinant the type table keeps.
    assert len(minors) == rank and minors[-1] == cartan_determinant(series, rank) * prod(d)


def combination_is_degenerate(rows):
    a, b = rows
    return all(
        a[i] * b[j] == a[j] * b[i] for i in range(3) for j in range(3)
    )
