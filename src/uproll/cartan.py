"""Exact root-system data for the finite simple Lie types.

A weight is an exact rational vector in the fundamental-weight basis,
stored as integer numerators row over one positive denominator den in
lowest terms; Weight.over builds one from such integers, and its coords,
as Fractions, are derived on reading.  The bilinear form is normalized
so that short roots have squared length 2; its Gram matrix in that basis is
G = D (D A)^-1 D for the Cartan matrix A and symmetrizer D = diag(d_i).
Simple root j then has omega-coordinates equal to column j of A, and the
contract <omega_i, alpha_j> = d_j delta_ij holds exactly.

A datum stores N*G as integers, N the least common denominator of G (it
divides det(D A)), computed once per Dynkin type since it does not depend
on ell, as is the flat twist form, N*G's upper triangle and its row sums
N*G*rho, which every datum of the type shares as its twist_form field,
and det(A), read off the same inversion.  bilinear() evaluates the form on
two weights' integer rows and form_matrix on every pair of one list of
them; pairing_matrix and in_root_lattice stay on those integers.  The
oracle's pairing, which forms a Fraction for each pair, lives in
uproll.oracle.

Scalars are powers of a fixed primitive root of unity q = exp(2 pi i / ell)
and are never materialized as complex numbers: only their exponents are
kept, as an ExponentModL holding integers num / den compared modulo ell.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from operator import add, index, mul, sub

from . import _linalg
from ._record import Record
from .errors import DimensionMismatch, HypothesisViolated, InvalidSeriesRank

# Larger ranks are refused before anything is allocated: the exact inverse
# of the Cartan matrix alone takes on the order of rank**3 bignum steps.
# The normal forms behind a census stay under 0.1 s up to this rank, on
# 128 generators or on the discriminant matrix of a dense rank-deficient
# lattice.
MAX_RANK = 32


def _ratio(x) -> tuple[int, int]:
    """x, an int, a Fraction or a str -?[0-9]+(/[0-9]+)? of ASCII digits,
    as integers (p, q), q > 0, with x = p / q.  Any other str raises
    ValueError, a zero denominator ZeroDivisionError, and anything else
    TypeError."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    if not isinstance(x, str):
        raise TypeError(f"expected a rational, got {type(x).__name__}")
    num, slash, den = x.partition("/")
    if not (x.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f"not a rational 'p/q': {x!r}")
    if not (q := int(den or 1)):
        raise ZeroDivisionError(f"zero denominator: {x!r}")
    return int(num), q


class Weight(Record):
    """Weight-space element: exact rational omega-basis coordinates, held as
    integer numerators row over one denominator den > 0 with
    gcd(den, *row) = 1, so equal weights have equal fields.  Weight(coords,
    den) stands for coords / den; coords are read back as Fractions."""

    row: tuple[int, ...]
    den: int

    def __init__(self, coords, den: int = 1):
        if den < 1:
            raise ValueError(f"weight denominator must be positive, got {den}")
        pairs = list(map(_ratio, coords))
        scale = lcm(1, *(q for _, q in pairs))
        row, den = [p * (scale // q) for p, q in pairs], den * scale
        g = gcd(den, *row)
        set_row, set_den = self._setters
        set_row(self, tuple([a // g for a in row]))
        set_den(self, den // g)

    @classmethod
    def over(cls, row, den: int) -> "Weight":
        """The weight row / den, from integers row and den > 0."""
        row = tuple(row)
        g = gcd(den, *row)
        w = object.__new__(cls)
        set_row, set_den = cls._setters
        set_row(w, row if g == 1 else tuple(a // g for a in row))
        set_den(w, den // g)
        return w

    def row_over(self, den: int) -> list[int]:
        """The integers x with self = x / den, for a multiple den of self.den."""
        s = den // self.den
        return [a * s for a in self.row]

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.row)

    def coord_strings(self) -> list[str]:
        """Each coordinate as str() of its Fraction, "p" or "p/q"."""
        den = self.den
        if den == 1:
            return list(map(str, self.row))
        return [
            str(a // g) if (g := gcd(a, den)) == den else f"{a // g}/{den // g}"
            for a in self.row
        ]

    @staticmethod
    def zero(n: int) -> "Weight":
        return Weight.over((0,) * n, 1)

    def __len__(self) -> int:
        return len(self.row)

    def _combine(self, other: "Weight", op) -> "Weight":
        if len(self) != len(other):
            raise DimensionMismatch("weights have different lengths")
        den = lcm(self.den, other.den)
        return Weight.over(map(op, self.row_over(den), other.row_over(den)), den)

    def __add__(self, other: "Weight") -> "Weight":
        return self._combine(other, add)

    def __sub__(self, other: "Weight") -> "Weight":
        return self._combine(other, sub)

    def __neg__(self) -> "Weight":
        return Weight.over([-a for a in self.row], self.den)

    def __mul__(self, k) -> "Weight":
        p, q = _ratio(k)
        return Weight.over([a * p for a in self.row], self.den * q)

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not any(self.row)

    def __repr__(self) -> str:
        return "Weight(%s)" % ", ".join(self.coord_strings())


def common_rows(weights) -> tuple[list[list[int]], int]:
    """The weights as integer rows over their least common denominator."""
    den = lcm(1, *(w.den for w in weights))
    return [w.row_over(den) for w in weights], den


def weight(coords) -> Weight:
    """Build a Weight from a sequence of ints, Fractions, or ASCII -?[0-9]+(/[0-9]+)? strings."""
    return Weight(coords)


class ExponentModL(Record):
    """Exact rational exponent e standing for the scalar q ** e, held like a
    Weight row: integers num / den in lowest terms at the order modulus >= 1
    of q.  ExponentModL(value, modulus) reads what _ratio reads (an int, a
    Fraction or an ASCII -?[0-9]+(/[0-9]+)? string) and raises as it does;
    over builds one from integers, and value and canonical are Fractions.
    Equality is congruence modulo the order of q (exponents that differ by an
    integer share a reduced denominator): equal instances name one scalar.
    """

    num: int
    den: int
    modulus: int

    def __init__(self, value, modulus: int):
        if (modulus := index(modulus)) < 1:
            raise ValueError(f"the order of q must be positive, got {modulus}")
        num, den = _ratio(value)
        g = gcd(num, den)
        super().__init__(num // g, den // g, modulus)

    @classmethod
    def over(cls, num: int, den: int, modulus: int) -> "ExponentModL":
        """The exponent num / den at order modulus, from integers den, modulus > 0."""
        g = gcd(num, den)
        e = object.__new__(cls)
        set_num, set_den, set_modulus = cls._setters
        set_num(e, num // g)
        set_den(e, den // g)
        set_modulus(e, modulus)
        return e

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def canonical(self) -> Fraction:
        """The reduced representative in [0, modulus)."""
        return Fraction(self.num % (self.modulus * self.den), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExponentModL):
            return NotImplemented
        return (self.modulus, self.den) == (other.modulus, other.den) and not (
            (self.num - other.num) % (self.modulus * self.den)
        )

    def __hash__(self) -> int:
        return hash((self.num % (self.modulus * self.den), self.den, self.modulus))

    def __add__(self, other: "ExponentModL") -> "ExponentModL":
        if self.modulus != other.modulus:
            raise ValueError("exponents live at different orders of q")
        den = lcm(self.den, other.den)
        num = self.num * (den // self.den) + other.num * (den // other.den)
        return ExponentModL.over(num, den, self.modulus)

    def __sub__(self, other: "ExponentModL") -> "ExponentModL":
        return self + (-other)

    def __neg__(self) -> "ExponentModL":
        return ExponentModL.over(-self.num, self.den, self.modulus)

    def __reduce__(self):
        return ExponentModL.over, (self.num, self.den, self.modulus)

    def __repr__(self) -> str:
        return f"ExponentModL({self.value} mod {self.modulus})"


def exponent(value, ell: int) -> ExponentModL:
    """Build an ExponentModL from a rational value at order ell."""
    return ExponentModL(value, ell)


# Cartan matrices follow the convention a_ij = <alpha_i, alpha_j> / d_i,
# which keeps D*A symmetric for the symmetrizers below.

def _diagram(n: int, edges) -> list[list[int]]:
    """The simply-laced Cartan matrix of n nodes joined by the given edges."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    return a


@cache
def _series_data(series: str, rank: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The Cartan matrix and symmetrizers of the type (series, rank),
    memoised: build_cartan_datum reads the symmetrizers on every call."""
    n = rank
    if n < 1:
        raise InvalidSeriesRank(f"rank must be positive, got {n}")
    if n > MAX_RANK:
        raise InvalidSeriesRank(f"rank {n} exceeds the largest supported rank {MAX_RANK}")
    if series == "D":
        if n < 3:
            raise InvalidSeriesRank(f"series D needs rank >= 3, got {n}")
        a, d = _diagram(n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]), (1,) * n
    elif series == "E":
        if n not in (6, 7, 8):
            raise InvalidSeriesRank(f"series E needs rank 6, 7 or 8, got {n}")
        a, d = _diagram(n, [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]), (1,) * n
    elif series == "G":
        if n != 2:
            raise InvalidSeriesRank(f"series G needs rank 2, got {n}")
        a, d = [[2, -3], [-1, 2]], (1, 3)
    elif series not in ("A", "B", "C", "F"):
        raise InvalidSeriesRank(f"unknown series {series!r}")
    elif series == "F" and n != 4:
        raise InvalidSeriesRank(f"series F needs rank 4, got {n}")
    else:
        # B, C and F double one bond of the chain A_n.
        a, d = _diagram(n, [(i, i + 1) for i in range(n - 1)]), (1,) * n
        if series == "B" and n > 1:
            a[n - 1][n - 2] = -2
            d = (2,) * (n - 1) + (1,)
        elif series == "C" and n > 1:
            a[n - 2][n - 1] = -2
            d = (1,) * (n - 1) + (2,)
        elif series == "F":
            a[2][1] = -2
            d = (2, 2, 1, 1)
    return tuple(map(tuple, a)), d


class CartanDatum(Record):
    """Root-system constants for one simple type at one root of unity;
    every datum of a type shares its ell-free fields with the type table."""

    series: str
    rank: int
    ell: int
    cartan: tuple[tuple[int, ...], ...]
    symmetrizers: tuple[int, ...]
    r: int
    r_i: tuple[int, ...]
    # The Gram matrix G as the integer matrix N*G and its denominator N.
    scaled_gram: tuple[tuple[int, ...], ...]
    gram_denominator: int
    rho: Weight
    # The type's flat twist form (see _type_table), read by twist_exponent.
    twist_form: tuple[tuple[int, int, int], ...]

    @property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        """The Gram matrix G of the form on fundamental weights."""
        n = self.gram_denominator
        return tuple(tuple(Fraction(x, n) for x in row) for row in self.scaled_gram)

    def simple_root(self, i: int) -> Weight:
        """Simple root i as a weight (column i of the Cartan matrix)."""
        return Weight.over([row[i] for row in self.cartan], 1)

    @property
    def simple_roots(self) -> tuple[Weight, ...]:
        return tuple(self.simple_root(i) for i in range(self.rank))


@cache
def _type_table(series: str, rank: int):
    """The constants of the type (series, rank) that do not depend on ell,
    as (cartan, symmetrizers, scaled_gram, gram_denominator, twist_form,
    det(A)); each type's symmetrized Cartan matrix D A is inverted once per
    process, through the Hermite form [H | U] of [D A | I], and
    det(A) = det(D A) / prod d_i is read off that inversion.
    The twist form, which a datum keeps as its twist_form field,
    is its numerator x.(N G).x + s (N G rho).x as a flat form on (x, s):
    terms (i, j, c), i <= j, c != 0, from the upper triangle of N*G,
    off-diagonal entries doubled, then its row sums at (i, rank)."""
    cartan, d = _series_data(series, rank)
    n = len(d)
    # U D A = H with U unimodular, and det U = 1 since D A is positive
    # definite and H has a positive diagonal, so det(D A) = det H and
    # adj(D A) = adj(H) U (Cohen, GTM 138, 2.4.3).  Then
    # G = D (D A)^-1 D = D adj(D A) D / det(D A), reduced by the common gcd.
    hu = _linalg.row_hermite_form([[di * x for x in row] + [int(i == j) for j in range(n)]
                                   for i, (di, row) in enumerate(zip(d, cartan))])
    adj_h, det = _linalg.mat_inverse([row[:n] for row in hu])
    u_cols = list(zip(*(row[n:] for row in hu)))
    adj = [[sum(map(mul, row, col)) for col in u_cols] for row in adj_h]
    scaled = [[d[i] * adj[i][j] * d[j] for j in range(n)] for i in range(n)]
    common = gcd(det, *(x for row in scaled for x in row))
    g = tuple(tuple(x // common for x in row) for row in scaled)
    terms = [(i, j, g[i][j] * (1 + (i < j))) for i in range(n) for j in range(i, n)]
    terms += [(i, n, sum(row)) for i, row in enumerate(g)]
    return cartan, d, g, det // common, tuple(t for t in terms if t[2]), det // prod(d)


def cartan_determinant(series: str, rank: int) -> int:
    """det(A) of the type (series, rank), from its type table."""
    return _type_table(series, rank)[5]


def build_cartan_datum(series: str, rank: int, ell: int) -> CartanDatum:
    """Assemble the exact constants for (series, rank) at order ell.

    Raises InvalidSeriesRank for an unknown Dynkin type and
    HypothesisViolated when ell < 3 or when r = 2*ell / (3 + (-1)**ell)
    fails to exceed every gcd(d_i, r).  rank and ell are read as exact
    integers (operator.index), so a float, a str or a bool raises TypeError.
    The ell-free constants come from _type_table, which a refused type or
    ell never reaches.
    """
    for name, value in (("rank", rank), ("ell", ell)):
        if isinstance(value, bool):
            raise TypeError(f"{name} must be an int, got {value!r}")
    series = str(series).upper()
    _, d = _series_data(series, index(rank))
    ell = index(ell)
    if ell < 3:
        raise HypothesisViolated(f"need ell >= 3, got {ell}")
    r = ell if ell % 2 else ell // 2
    g = [gcd(di, r) for di in d]
    if r <= max(g):
        raise HypothesisViolated(
            f"need r > max gcd(d_i, r): r={r}, gcds={tuple(g)}"
        )
    n = len(d)
    cartan, d, scaled_gram, gram_denominator, twist_form, _ = _type_table(series, n)
    # Positional, in field order: a datum is built per spec.
    return CartanDatum(
        series, n, ell, cartan, d, r, tuple(r // gi for gi in g),
        scaled_gram, gram_denominator, Weight.over((1,) * n, 1), twist_form,
    )


def bilinear(matrix, u, v) -> int:
    """The integer bilinear form sum_ij u_i M_ij v_j, skipping zero u_i."""
    return sum(a * sum(map(mul, row, v)) for a, row in zip(u, matrix) if a)


def form_matrix(matrix, rows) -> list[list[int]]:
    """The integers u M v for each pair of u, v in rows, for a symmetric
    integer matrix M.  Each u M is formed once, so k rows of length n take
    O(k n^2 + k^2 n) products where k^2 calls of bilinear take O(k^2 n^2)."""
    out = []
    for u in rows:
        um = [sum(map(mul, row, u)) for row in matrix]  # u M, as M is symmetric
        out.append([sum(map(mul, um, v)) for v in rows])
    return out


def scaled_coords(datum: CartanDatum, lam: Weight) -> tuple[tuple[int, ...], int]:
    """Integer coordinates of lam over their least common denominator den,
    so that lam = coords / den."""
    if len(lam.row) != datum.rank:
        raise DimensionMismatch(f"weights must have length {datum.rank}")
    return lam.row, lam.den


def pairing_matrix(datum: CartanDatum, weights) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The pairings <w_i, w_j> as an integer matrix P over the least denominator
    p: over the weights' common denominator d each is an integer over
    M = N d^2, and p = M / gcd(M, *P)."""
    for w in weights:
        scaled_coords(datum, w)  # the length check
    rows, d = common_rows(weights)
    mat = form_matrix(datum.scaled_gram, rows)
    m = datum.gram_denominator * d * d
    g = gcd(m, *(x for row in mat for x in row))
    return tuple(tuple(x // g for x in row) for row in mat), m // g


def in_simple_current_lattice(datum: CartanDatum, lam: Weight) -> bool:
    """Membership in the simple-current lattice: every coordinate in (ell/2) Z."""
    x, den = scaled_coords(datum, lam)
    return all(2 * a % (datum.ell * den) == 0 for a in x)


def in_root_lattice(datum: CartanDatum, lam: Weight) -> bool:
    """True when the weight is an integer combination of simple roots:
    since <omega_i, alpha_j> = d_j delta_ij, its coordinate i over the
    simple roots is <lam, omega_i> / d_i, row i of N G x over N den d_i."""
    x, den = scaled_coords(datum, lam)
    scale = datum.gram_denominator * den
    return all(sum(map(mul, row, x)) % (scale * d) == 0
               for row, d in zip(datum.scaled_gram, datum.symmetrizers))
