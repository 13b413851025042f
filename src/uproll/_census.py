"""Storage for the representatives of a finite census and their twists:
the census's mixed-radix system alone, and the twists as the census's
quadratic form, k + k^2 integers for k steps.  The representatives are
Sum c_i D_i over the dual's HNF rows D_i with 0 <= c_i < H_ii, H the
Hermite form of the change of basis; they are derived one mixed-radix
digit at a time as they are read.  A weight's digits are read off at the
steps' pivots, and the form is evaluated at them; it is expanded only when
iterated.  Weight and ExponentModL values appear only through the views
CensusReps and CensusTwists, two records.  The module is loaded on the
first finite census, so that a command that builds none does not compile it."""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, Sequence, ValuesView
from itertools import accumulate
from math import prod
from operator import index, mul

from ._linalg import box_dots, echelon_reduce
from ._record import Record
from .cartan import ExponentModL, Weight


class _TwistValues(ValuesView):
    """The exponents of a CensusTwists in census order: running sums of T
    and of each step's cross term 2<x, a> over the prefixes enumerated."""

    def __iter__(self):
        twists = self._mapping
        single, twice = twists.single, twists.twice
        spans, values = [range(s) for s, _ in twists.reps.radix], [0]
        for k, span in enumerate(spans):
            # T(c a) for c in span: each step adds T(a) + c 2<a, a>.
            own = list(accumulate((single[k] + c * twice[k][k] for c in span[:-1]), initial=0))
            cross = box_dots(spans[:k], [row[k] for row in twice[:k]])
            values = [t + c * g + u for t, g in zip(values, cross) for c, u in enumerate(own)]
        return (ExponentModL.over(x, twists.den, twists.ell) for x in values)


class CensusReps(Sequence, Record):
    """The coset representatives of a finite census, a read-only sequence
    of Weights that stores only its mixed-radix system: radix, den, rank.

    radix lists the pairs (s, step) = (H_ii, D_i) with H_ii above 1,
    slowest first: the representatives are Sum c_i D_i over the dual's HNF
    rows D_i, integer rows over den, with 0 <= c_i < H_ii, H the Hermite
    form of the change of basis.  So the steps are echelon rows, their
    pivot columns strictly increasing.  The representative at index i is
    the combination of steps whose coefficients are the mixed-radix digits
    of i, so the order is lexicographic in the coefficients, last one
    fastest, and the length is the product of the s.  [i] builds one row
    from the digits of i, and so do slices; iteration derives the rows from
    box_dots columns as they are read, and keeps none.  digits (and
    so position, index and in) reads a weight's digits as the multiples
    that echelon_reduce subtracts at the steps' pivots, and accepts only
    digits in [0, s) that leave nothing over: no table of every row.  The
    record equals, and hashes like, the tuple of Weights it stands for.
    """

    radix: tuple[tuple[int, tuple[int, ...]], ...]
    den: int
    rank: int

    def __len__(self) -> int:
        return prod(s for s, _ in self.radix)

    def __iter__(self):
        # Coordinate j of every representative, in census order.
        spans, den = [range(s) for s, _ in self.radix], self.den
        cols = [box_dots(spans, [step[j] for _, step in self.radix]) for j in range(self.rank)]
        return (Weight.over(row, den) for row in zip(*cols))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(len(self))[i])
        n, i = len(self), index(i)
        if not -n <= i < n:
            raise IndexError("census index out of range")
        i %= n
        row = [0] * self.rank
        for s, step in reversed(self.radix):
            i, c = divmod(i, s)
            if c:
                row = [y + c * x for y, x in zip(row, step)]
        return Weight.over(row, self.den)

    def digits(self, lam) -> list[int] | None:
        """The mixed-radix digits of the weight lam, or None if no representative."""
        if type(lam) is not Weight or len(lam) != self.rank or self.den % lam.den:
            return None
        rest, digits = echelon_reduce(lam.row_over(self.den), [step for _, step in self.radix])
        if any(rest) or not all(0 <= c < s for c, (s, _) in zip(digits, self.radix)):
            return None
        return digits

    def position(self, lam) -> int | None:
        """The index of the weight lam, or None when it is no representative."""
        digits, i = self.digits(lam), 0
        for (s, _), digit in zip(self.radix, digits or ()):
            i = i * s + digit
        return None if digits is None else i

    def __contains__(self, lam) -> bool:
        return self.position(lam) is not None

    def index(self, lam) -> int:
        i = self.position(lam)
        if i is None:
            raise ValueError(f"{lam!r} is not a census representative")
        return i

    def __eq__(self, other):
        if isinstance(other, (CensusReps, tuple)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"CensusReps({tuple(self)!r})"


class CensusTwists(Mapping, Record):
    """Twist exponents of a finite census, a read-only mapping from each
    representative Weight to its ExponentModL, in census order, held as the
    census's quadratic form over den: k + k^2 integers in tuples, single[i]
    = T(D_i) and twice[i][j] = 2<D_i, D_j>.  A read evaluates Sum_i c_i
    (single[i] + (c_i - 1) twice[i][i] / 2 + Sum_{j<i} c_j twice[i][j]) at
    the weight's digits c; only iteration expands the form over the census.
    The record equals any mapping of the same items, and is unhashable."""

    reps: CensusReps
    single: tuple[int, ...]
    twice: tuple[tuple[int, ...], ...]
    den: int
    ell: int

    def __getitem__(self, lam) -> ExponentModL:
        c = self.reps.digits(lam)
        if c is None:
            raise KeyError(lam)
        total = sum(ci * (self.single[i] + (ci - 1) * row[i] // 2 + sum(map(mul, c[:i], row)))
                    for i, (ci, row) in enumerate(zip(c, self.twice)))
        return ExponentModL.over(total, self.den, self.ell)

    def __contains__(self, lam) -> bool:
        return lam in self.reps

    def __iter__(self):
        return iter(self.reps)

    def __len__(self) -> int:
        return len(self.reps)

    def items(self):
        return _TwistItems(self)

    def values(self):
        return _TwistValues(self)


class _TwistItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping.reps, self._mapping.values())
