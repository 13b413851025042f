"""Exact lattice algebra over the weight space.

A finitely generated subgroup of the rational weight space is stored as
its canonical basis only: an integer matrix in row-style Hermite normal
form over a single common denominator, the convention a Weight follows
with its (row, den) fields, which are read here as integers.  Every
RationalLattice takes that form of its rows, which depends only on their
span, so lattice equality is literal equality of its three fields.

Scaled dual groups and quotient censuses are computed from these bases
with exact integer normal forms; nothing here ever touches floating
point.  Each operation on lattices returns one: adjoin gives the join and
scaled_dual the dual of a lattice of full rank, from its triangular
Hermite form and the Cartan matrix.  quotient_census takes a lattice and
a dual of full rank, back-substitutes its change of basis C against the
dual's triangular Hermite rows and takes its invariant factors off the
Smith form of C.  Its census lists Sum c_i D_i over the dual's HNF rows
D_i with 0 <= c_i < C_ii; its view CensusReps (uproll._census) keeps
only that mixed-radix system, derives each rep as it is read and reads a
weight's digits off at the pivots of the rows.  A lattice below full
rank has an infinite census, which scaled_dual and quotient_census refuse
with InfiniteCensus; its invariant factors need no dual, and
discriminant_matrix gives them: the Smith form of the Gram matrix of
2<,>/ell on the Hermite basis of L.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING

from . import _linalg
from ._record import Record
from .cartan import CartanDatum, Weight, bilinear, common_rows, form_matrix
from .errors import DimensionMismatch, InfiniteCensus, InternalError, NotSubgroup, check_budget

if TYPE_CHECKING:
    from ._census import CensusReps

# The most representatives a finite census may enumerate.
MAX_CENSUS_ORDER = 100_000


class RationalLattice(Record):
    """The span of integer rows over a denominator, kept as its canonical
    basis with their common content divided out.  An ambient rank that is
    not an int (a bool is not) raises TypeError, a negative one or a
    denominator below 1 ValueError, and a row not of length rank_ambient
    DimensionMismatch."""

    rank_ambient: int
    hnf: tuple[tuple[int, ...], ...]
    denominator: int

    def __init__(self, rank_ambient: int, hnf, denominator: int):
        if not isinstance(rank_ambient, int) or isinstance(rank_ambient, bool):
            raise TypeError(f"lattice ambient rank must be an int, got {rank_ambient!r}")
        if rank_ambient < 0:
            raise ValueError(f"lattice ambient rank must be >= 0, got {rank_ambient}")
        if denominator < 1:
            raise ValueError(f"lattice denominator must be positive, got {denominator}")
        rows = list(map(tuple, hnf))
        if any(len(row) != rank_ambient for row in rows):
            raise DimensionMismatch(f"weights must have length {rank_ambient}")
        g = gcd(denominator, *chain.from_iterable(rows))  # the rows' Hermite form has their content
        rows = _linalg.row_hermite_form([a // g for a in row] for row in rows)
        super().__init__(rank_ambient, tuple(map(tuple, rows)), denominator // g)

    @property
    def rank(self) -> int:
        return len(self.hnf)

    def __repr__(self) -> str:
        rows = ", ".join(repr(Weight.over(row, self.denominator)) for row in self.hnf)
        return f"RationalLattice(rank {self.rank} in ambient {self.rank_ambient}: {rows})"


def canonical_basis(datum: CartanDatum, generators) -> RationalLattice:
    """Canonical form of the subgroup generated by the given weights.

    The generators are cleared to an integer matrix by their least common
    denominator, which RationalLattice reduces to row Hermite normal form.
    """
    return RationalLattice(datum.rank, *common_rows(tuple(generators)))


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
    return RationalLattice(lattice.rank_ambient, rows + [x], den)


def in_dual(datum: CartanDatum, lattice: RationalLattice, x, den: int) -> bool:
    """Whether the weight x / den, with integer x, lies in the scaled dual
    of the lattice: for each HNF row h / d, 2<x / den, h / d> in ell*Z,
    that is 2 x (N G) h = 0 mod ell * N * den * d."""
    step = datum.ell * datum.gram_denominator * den * lattice.denominator
    return all(2 * bilinear(datum.scaled_gram, x, h) % step == 0 for h in lattice.hnf)


def _require_ambient(lattice: RationalLattice, rank: int, of: str) -> None:
    """DimensionMismatch naming both ranks when the lattice's ambient rank
    is not the given rank of a datum or a dual."""
    if lattice.rank_ambient != rank:
        raise DimensionMismatch(f"a lattice of ambient rank {lattice.rank_ambient} against {of} {rank}")


def scaled_dual(datum: CartanDatum, lattice: RationalLattice) -> RationalLattice:
    """The scaled dual {x : 2<x, g> in ell*Z for all g in L} of a lattice
    of full rank, from the adjugate of its triangular Hermite form and the
    Cartan matrix.  The dual of a lattice below full rank adds a continuum
    and raises InfiniteCensus, naming the stage census.
    """
    # The dual rows are P^-1 H * ell N d / 2 (see discriminant_matrix).  H is
    # square and upper triangular, and P^-1 H = H^-T (N G)^-1, with
    # G^-1 = A D^-1 since G = D (D A)^-1 D: the dual rows are
    # adj(H)^T A D^-1 * ell d / (2 det H), and D^-1 is diag(m / d_i) / m for
    # m = lcm(d_i).
    _require_ambient(lattice, datum.rank, "a datum of rank")
    if lattice.rank < datum.rank:
        raise InfiniteCensus(f"census: a rank-{lattice.rank} lattice in rank {datum.rank} has no finite census")
    adj, det = _linalg.mat_inverse(lattice.hnf)
    m, num = lcm(*datum.symmetrizers), datum.ell * lattice.denominator
    cols = [(col, num * (m // di)) for col, di in zip(zip(*datum.cartan), datum.symmetrizers)]
    rows = [[sum(map(mul, row, col)) * s for col, s in cols] for row in zip(*adj)]
    return RationalLattice(datum.rank, rows, 2 * det * m)


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
    # L is spanned by the rows of H / d, on which 2<,>/ell has the Gram
    # matrix M = 2P / (ell N d^2) with P = H (N G) H^T, so the dual rows
    # M^-1 H / d are P^-1 H * ell N d / 2.
    _require_ambient(lattice, datum.rank, "a datum of rank")
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
    # back-substitution against the triangular dual rows solves.
    rows = [[x * lattice.denominator for x in row] for row in dual.hnf]
    targets = [[x * dual.denominator for x in row] for row in lattice.hnf]
    solutions = _linalg.combination_in_rows(rows, targets)
    if None in solutions:
        coords = ", ".join(Weight.over(lattice.hnf[solutions.index(None)], lattice.denominator).coord_strings())
        raise NotSubgroup(f"change of basis: lattice row [{coords}] fails the dual condition")
    return solutions


def quotient_census(dual: RationalLattice, lattice: RationalLattice) -> Census:
    """Invariant factors and coset representatives of dual / lattice, where
    dual is the scaled dual of a lattice of full rank and lattice is of
    full rank too.

    Every generator of the lattice must lie in the dual: the dual
    condition is read off the change of basis, back-substituted against
    the dual's Hermite rows, whose coefficients must be integers.  A
    failure raises NotSubgroup, which signals a non-local summand
    upstream.  The change of basis C between two canonical bases of full
    rank is upper triangular, and its positive diagonal, which its Hermite
    form shares, has the order of the quotient as its product; an order
    above MAX_CENSUS_ORDER raises BudgetExceeded before the invariant
    factors are taken off the Smith form of C.  The census lists
    Sum c_i D_i over the dual's HNF rows D_i with 0 <= c_i < C_ii, one per
    coset (Cohen, GTM 138, 2.4.3), each entry at most (order - 1) max
    |D_ij|.  A lattice or dual below full rank raises InfiniteCensus.
    """
    n = dual.rank_ambient
    _require_ambient(lattice, n, "a dual of ambient rank")
    if min(lattice.rank, dual.rank) < n:
        raise InfiniteCensus(f"census: a rank-{lattice.rank} lattice in a rank-{dual.rank} dual "
                             f"of ambient rank {n} has no finite census")
    change = _change_of_basis(dual, lattice)
    order = _linalg.det_int(change)
    if order == 0:
        raise InternalError(f"change of basis: rank-{lattice.rank} lattice has a singular change of basis")
    check_budget("census", order, "representatives", MAX_CENSUS_ORDER)
    factors = tuple(s for s in _linalg.smith_normal_form(change)[0] if s > 1)
    from ._census import CensusReps

    radix = tuple((row[i], step) for i, (row, step) in enumerate(zip(change, dual.hnf)) if row[i] > 1)
    return Census(True, factors, CensusReps(radix, dual.denominator, n), order, 0)
