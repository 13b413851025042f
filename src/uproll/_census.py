"""Storage for the representatives of a finite census and their twists:
integer rows and integer numerators over one denominator each, enumerated
one mixed-radix digit at a time.  Weight and ExponentModL values appear
only through the read-only views CensusReps and CensusTwists; each is
built from its integers.  The module is loaded on the first finite
census, so that a command that builds none does not compile it."""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, Sequence

from .cartan import ExponentModL, Weight


def extend_column(column: list[int], s: int, x: int) -> list[int]:
    """The values y + c*x for each y in column and c in range(s), c fastest:
    one more mixed-radix digit, for one coordinate."""
    multiples = [c * x for c in range(s)]
    return [y + m for y in column for m in multiples]


class CensusReps(Sequence):
    """The coset representatives of a finite census, a read-only sequence
    of Weights held as integer rows over one denominator: the weight at
    index i is Weight.over(rows[i], den), built when it is read.

    radix lists the (invariant factor, adapted step) pairs with factor
    above 1, slowest first; the representative at index i is the
    combination of steps whose coefficients are the mixed-radix digits of
    i, so the order is lexicographic in the coefficients, last one
    fastest.  index and in look a weight up by its integer row.  The view
    equals, and hashes like, the tuple of Weights it stands for.
    """

    __slots__ = ("radix", "den", "rows", "_positions")

    def __init__(self, radix, den: int, rank: int):
        self.radix, self.den = tuple(radix), den
        cols = [[0] for _ in range(rank)]
        for s, step in self.radix:
            cols = [extend_column(col, s, x) for col, x in zip(cols, step)]
        self.rows = tuple(zip(*cols))
        self._positions = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        den = self.den
        return (Weight.over(row, den) for row in self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(Weight.over(row, self.den) for row in self.rows[i])
        return Weight.over(self.rows[i], self.den)

    def position(self, lam) -> int | None:
        """The index of the weight lam, or None when it is no representative."""
        if type(lam) is not Weight or len(lam) != len(self.rows[0]) or self.den % lam.den:
            return None
        if self._positions is None:
            self._positions = {r: i for i, r in enumerate(self.rows)}
        return self._positions.get(tuple(lam.row_over(self.den)))

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


class CensusTwists(Mapping):
    """Twist exponents of a finite census, a read-only mapping from each
    representative Weight to its ExponentModL, in census order.  The
    exponents are held as integer numerators over one denominator, and an
    ExponentModL is built when one is read."""

    __slots__ = ("reps", "numerators", "den", "ell")

    def __init__(self, reps: CensusReps, numerators: list[int], den: int, ell: int):
        self.reps, self.numerators, self.den, self.ell = reps, numerators, den, ell

    def __getitem__(self, lam) -> ExponentModL:
        i = self.reps.position(lam)
        if i is None:
            raise KeyError(lam)
        return ExponentModL.over(self.numerators[i], self.den, self.ell)

    def __iter__(self):
        return iter(self.reps)

    def __len__(self) -> int:
        return len(self.numerators)

    def items(self):
        return _TwistItems(self)


class _TwistItems(ItemsView):
    # Pairs in census order, without looking each representative up.
    def __iter__(self):
        twists = self._mapping
        den, ell = twists.den, twists.ell
        return zip(twists.reps, (ExponentModL.over(x, den, ell) for x in twists.numerators))
