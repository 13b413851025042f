"""Exact lattice algebra over the weight space.

A finitely generated subgroup of the rational weight space is stored as
its canonical basis only: an integer matrix in row-style Hermite normal
form over a single common denominator, the convention a Weight follows
with its (row, den) fields, which are read here as integers.  The
canonical form depends only on the span, so lattice equality is literal
equality of (ambient rank, HNF rows, denominator).

Scaled dual groups and quotient censuses are computed from these bases
with exact integer normal forms; nothing here ever touches floating
point.  Each operation on lattices returns one: adjoin gives the join and
scaled_dual the dual within the span of L, of the rank of L, from the
triangular Hermite form of L and the Cartan matrix when L has full rank.
quotient_census back-substitutes its change of basis against the dual's
Hermite rows and takes its invariant factors off the Smith form of H, the
Hermite form of that change of basis; a lattice below the rank of the
dual leaves it infinite.  A finite census lists Sum c_i D_i over the
dual's HNF rows D_i with 0 <= c_i < H_ii; its view CensusReps
(uproll._census) keeps only that mixed-radix system, derives each rep as
it is read and reads a weight's digits off at the pivots of the rows.
An infinite census needs only its invariant factors, and
discriminant_matrix gives them without a dual: the Smith form of the
Gram matrix of 2<,>/ell on the Hermite basis of L.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING

from . import _linalg
from ._record import Record
from .cartan import CartanDatum, Weight, common_rows, form_matrix, scaled_coords
from .errors import DimensionMismatch, InternalError, NotSubgroup, check_budget

if TYPE_CHECKING:
    from ._census import CensusReps

# The most representatives a finite census may enumerate.
MAX_CENSUS_ORDER = 100_000


class RationalLattice(Record):
    """Finitely generated subgroup of the weight space."""

    rank_ambient: int
    hnf: tuple[tuple[int, ...], ...]
    denominator: int

    @property
    def rank(self) -> int:
        return len(self.hnf)

    def __repr__(self) -> str:
        rows = ", ".join(repr(Weight.over(row, self.denominator)) for row in self.hnf)
        return f"RationalLattice(rank {self.rank} in ambient {self.rank_ambient}: {rows})"


def canonical_basis(datum: CartanDatum, generators) -> RationalLattice:
    """Canonical form of the subgroup generated by the given weights.

    The generators are cleared to an integer matrix by their least common
    denominator, which is then reduced to row Hermite normal form.
    """
    gens = tuple(generators)
    for g in gens:
        scaled_coords(datum, g)  # the length check
    return _from_rows(datum.rank, *common_rows(gens))


def _from_rows(n: int, rows, den: int) -> RationalLattice:
    """The lattice spanned by the integer rows over the denominator den."""
    hnf = _linalg.row_hermite_form(rows)
    return RationalLattice(n, tuple(map(tuple, hnf)), den)


def _over(lattice: RationalLattice, lam: Weight) -> tuple[list[list[int]], list[int], int]:
    """The lattice's HNF rows and lam as integers over one denominator."""
    if len(lam) != lattice.rank_ambient:
        raise DimensionMismatch(f"weights must have length {lattice.rank_ambient}")
    den = lcm(lattice.denominator, lam.den)
    s = den // lattice.denominator
    return [[s * a for a in row] for row in lattice.hnf], lam.row_over(den), den


def contains(lattice: RationalLattice, lam: Weight) -> bool:
    """Exact membership test: lam reduces to zero modulo the lattice."""
    return coset_reduce(lattice, lam).is_zero


def coset_reduce(lattice: RationalLattice, lam: Weight) -> Weight:
    """Canonical representative of lam modulo the lattice.

    Subtracts integer multiples of the HNF rows, left to right, until the
    scaled coordinate at each pivot lies in [0, pivot).  Two weights are
    congruent modulo the lattice exactly when they reduce to the same
    representative.
    """
    rows, x, den = _over(lattice, lam)
    return Weight.over(_linalg.echelon_reduce(x, rows)[0], den)


def adjoin(lattice: RationalLattice, mu: Weight) -> RationalLattice:
    """Canonical form of L + Z*mu."""
    rows, x, den = _over(lattice, mu)
    return _from_rows(lattice.rank_ambient, rows + [x], den)


def in_dual(datum: CartanDatum, lattice: RationalLattice, x, den: int) -> bool:
    """Whether the weight x / den, with integer x, lies in the scaled dual
    of the lattice: for each HNF row h / d, 2<x / den, h / d> in ell*Z,
    that is 2 x (N G) h = 0 mod ell * N * den * d."""
    step = datum.ell * datum.gram_denominator * den * lattice.denominator
    return all(2 * p % step == 0 for p in form_matrix(datum.scaled_gram, [x], lattice.hnf)[0])


def scaled_dual(datum: CartanDatum, lattice: RationalLattice) -> RationalLattice:
    """The scaled dual group {x : 2<x, g> in ell*Z for all g in L} within
    the rational span of L, a lattice of the rank of L.  The full group
    adds the orthogonal complement of L, a continuum of dimension
    rank_ambient - rank.  A lattice of full rank takes its dual from the
    adjugate of its triangular Hermite form and the Cartan matrix, any
    other from the inverse of its Gram matrix.
    """
    # L is spanned by the rows of H / d, on which 2<,>/ell has the Gram
    # matrix 2P / (ell N d^2) with P = H (N G) H^T.  Its inverse applied to
    # the basis gives the dual rows adj(P) H * ell N d / (2 det P); P is
    # positive definite, so adj(P) is invertible and the rank is that of L.
    # When L has full rank, H is square and upper triangular, and
    # P^-1 H = H^-T (N G)^-1, with G^-1 = A D^-1 since G = D (D A)^-1 D: the
    # dual rows are adj(H)^T A D^-1 * ell d / (2 det H), and D^-1 is
    # diag(m / d_i) / m for m = lcm(d_i).
    h = lattice.hnf
    if len(h) == datum.rank:
        adj, det = _linalg.mat_inverse(h)
        m = lcm(*datum.symmetrizers)
        cols = [(col, m // di) for col, di in zip(zip(*datum.cartan), datum.symmetrizers)]
        rows = [[sum(map(mul, row, col)) * s for col, s in cols] for row in zip(*adj)]
        num, den = datum.ell * lattice.denominator, 2 * det * m
    else:
        adj, det = _linalg.mat_inverse(form_matrix(datum.scaled_gram, h))
        rows = [[sum(map(mul, row, col)) for col in zip(*h)] for row in adj]
        num, den = datum.ell * datum.gram_denominator * lattice.denominator, 2 * det
    common = gcd(den, num * gcd(*(x for row in rows for x in row)))
    rows = [[x * num // common for x in row] for row in rows]
    return _from_rows(datum.rank, rows, den // common)


def discriminant_matrix(datum: CartanDatum, lattice: RationalLattice) -> list[list[int]]:
    """The Gram matrix M of 2<,>/ell on the lattice's Hermite basis, an
    integer k x k matrix for k = rank of L.  The scaled dual within the
    span of L is {c H / d : c M integral}, so its quotient by L is
    Z^k / Z^k M, the discriminant group of L under 2<,>/ell (Conway and
    Sloane, SPLAG, ch. 15; Nikulin 1979), whose invariant factors are
    those of M's Smith form.  A valid spec's verdict puts every 2<g, g'>
    over its lattice in ell*Z, so an entry off the integers is a bug and
    raises InternalError.
    """
    # M = 2P / (ell N d^2) with P = H (N G) H^T, as derived in scaled_dual.
    step = datum.ell * datum.gram_denominator * lattice.denominator ** 2
    twice = [[2 * p for p in row] for row in form_matrix(datum.scaled_gram, lattice.hnf)]
    if bad := [(i, j) for i, row in enumerate(twice) for j, x in enumerate(row) if x % step]:
        raise InternalError(f"census: entry {bad[0]} of 2<,>/ell on the lattice's Hermite basis is not an integer")
    return [[x // step for x in row] for row in twice]


class Census(Record):
    """Structure of the quotient of a dual group by the lattice inside it."""

    finite: bool
    invariant_factors: tuple[int, ...]
    reps: CensusReps | None
    order: int | None
    complement_dimension: int


def _change_of_basis(dual: RationalLattice, lattice: RationalLattice) -> list[list[int]]:
    # On HNF rows, sum c_j D_j / dd = L_i / dl holds exactly when
    # sum c_j (dl D_j) = dd L_i, an equation over the integers, which
    # back-substitution against the echelon dual rows solves.
    # dual is the full dual group within its span, so a row in the span is in
    # the dual exactly when its coefficients are integers; a row outside it can
    # be only through the continuous part, which the census does not cover.
    rows = [[x * lattice.denominator for x in row] for row in dual.hnf]
    targets = [[x * dual.denominator for x in row] for row in lattice.hnf]
    den, solutions = _linalg.combination_in_rows(rows, targets)
    for coeffs, row in zip(solutions, lattice.hnf):
        if coeffs is None or any(c % den for c in coeffs):
            coords = ", ".join(Weight.over(row, lattice.denominator).coord_strings())
            where = "outside the span of the dual's lattice part" if coeffs is None else "fails the dual condition"
            raise NotSubgroup(f"change of basis: lattice row [{coords}] {where}")
    return [[c // den for c in coeffs] for coeffs in solutions]


def quotient_census(dual: RationalLattice, lattice: RationalLattice) -> Census:
    """Invariant factors and coset representatives of dual / lattice, where
    dual is a scaled dual: the dual group within the span of its source.

    Every generator of the lattice must lie in the span of the dual, and
    in the dual: the dual condition is read off the change of basis,
    whose coefficients must be integers.  A failure raises NotSubgroup,
    which signals a non-local summand upstream.  The change of basis is
    back-substituted against the dual's Hermite rows; when it is square,
    it is upper triangular and its determinant is the product of its
    diagonal.  Every quotient takes its invariant factors off the Smith
    form of H, the Hermite form of the change of basis; it is finite when
    the lattice has the rank of the dual and the dual has full rank, so
    that the full dual group has no continuous part, and a finite order
    above MAX_CENSUS_ORDER raises BudgetExceeded before either form is
    taken.  A finite census lists Sum c_i D_i over the dual's HNF rows D_i
    with 0 <= c_i < H_ii, one per coset (Cohen, GTM 138, 2.4.3), each
    entry at most (order - 1) max |D_ij|.
    """
    # When the change of basis is square, its determinant is the order of
    # the quotient.
    change = _change_of_basis(dual, lattice)
    square = lattice.rank == dual.rank
    if square:
        order = abs(_linalg.det_int(change))
        if order == 0:
            raise InternalError(f"change of basis: rank-{lattice.rank} lattice has a singular change of basis")
    complement = dual.rank_ambient - dual.rank
    finite = square and not complement
    if finite:
        check_budget("census", order, "representatives", MAX_CENSUS_ORDER)
    box = _linalg.row_hermite_form(change)
    factors = tuple(s for s in _linalg.smith_normal_form(box)[0] if s > 1)
    if not finite:
        return Census(False, factors, None, None, complement)
    from ._census import CensusReps

    radix = tuple((row[i], step) for i, (row, step) in enumerate(zip(box, dual.hnf)) if row[i] > 1)
    return Census(True, factors, CensusReps(radix, dual.denominator, lattice.rank_ambient), order, 0)
