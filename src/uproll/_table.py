"""Dense storage for structure-constant tables: integer rows over one
denominator, indexed by the box vectors in lexicographic order.  The table
operations in uproll.algebra work on these rows; ExponentModL values
appear only through the mapping view TableEntries."""

from __future__ import annotations

from collections.abc import MutableMapping
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd

from ._record import Record
from .algebra import check_box_budget
from .cartan import ExponentModL, Weight
from .errors import IncompleteTable


class Grid:
    """The box [-box, box]^dimension: its vectors in lexicographic order,
    their positions and (on first use) the in-box pair sums, built once per
    table and handed on to the tables derived from it."""

    def __init__(self, dimension: int, box: int):
        check_box_budget(box, dimension)
        self.dimension, self.box, self.span = dimension, box, range(-box, box + 1)
        self.vecs = list(product(self.span, repeat=dimension))
        self.index = {v: i for i, v in enumerate(self.vecs)}
        self.zero = self.index[(0,) * dimension]

    @cached_property
    def pairs(self) -> list[list[tuple[int, int]]]:
        """For each vector v1, the positions (j, k) of every vecs[j] whose
        sum vecs[k] with v1 stays in the box, j ascending.  Positions are
        mixed radix, so affine in the vector: k = i + j - zero."""
        box, index, zero = self.box, self.index, self.zero
        return [
            [
                (j, i + j - zero)
                for j in map(index.__getitem__, product(
                    *(range(-box - min(c, 0), box - max(c, 0) + 1) for c in v1)
                ))
            ]
            for i, v1 in enumerate(self.vecs)
        ]

    def dots(self, w) -> list[int]:
        """The integers w.m for every vector m of the box, in order."""
        row = [0]
        for x in w:
            steps = [x * c for c in self.span]
            row = [y + s for y in row for s in steps]
        return row


class TableEntries(MutableMapping):
    """A CocycleTable's entries, a mapping (n, m) -> ExponentModL held as
    dense integer rows over one denominator den: rows[i][j] / den is the
    unreduced exponent at (vecs[i], vecs[j]) of the grid, None where there
    is no entry.  Writes are checked against the table's order of q; one
    whose denominator does not divide den rescales the rows."""

    __slots__ = ("grid", "ell", "rows", "den")

    def __init__(self, grid: Grid, ell: int, rows: list[list], den: int):
        self.grid, self.ell, self.rows, self.den = grid, ell, rows, den

    def _position(self, key) -> tuple[int, int]:
        left, right = key
        return self.grid.index[left], self.grid.index[right]

    def __getitem__(self, key) -> ExponentModL:
        i, j = self._position(key)
        if (x := self.rows[i][j]) is None:
            raise KeyError(key)
        return ExponentModL(Fraction(x, self.den), self.ell)

    def __setitem__(self, key, e: ExponentModL) -> None:
        try:
            i, j = self._position(key)
        except KeyError:
            raise ValueError(f"pair {key} lies outside the box {self.grid.box}") from None
        if e.modulus != self.ell:
            raise ValueError(
                f"exponents live at different orders of q: {e.modulus} at {key}, {self.ell} in the table"
            )
        x = e.value
        if self.den % x.denominator:
            up = x.denominator // gcd(self.den, x.denominator)
            self.rows = [[y if y is None else y * up for y in row] for row in self.rows]
            self.den *= up
        self.rows[i][j] = x.numerator * (self.den // x.denominator)

    def __delitem__(self, key) -> None:
        i, j = self._position(key)
        if self.rows[i][j] is None:
            raise KeyError(key)
        self.rows[i][j] = None

    def __iter__(self):
        vecs = self.grid.vecs
        for left, row in zip(vecs, self.rows):
            yield from ((left, right) for right, x in zip(vecs, row) if x is not None)

    def __len__(self) -> int:
        return sum(len(row) - row.count(None) for row in self.rows)

    def __repr__(self) -> str:
        return f"TableEntries({dict(self.items())!r})"

    def require(self, positions) -> None:
        """Raise IncompleteTable naming the first (i, j) in positions with no entry."""
        for i, j in positions:
            if self.rows[i][j] is None:
                raise IncompleteTable(f"no entry for pair ({self.grid.vecs[i]}, {self.grid.vecs[j]})")


class CocycleTable(Record):
    """Structure-constant exponents on a bounded coefficient box.

    Entries are keyed by pairs of generator-coefficient vectors with all
    coefficients in [-box, box]; the value at (n, m) is the exponent of
    the product scalar on the corresponding pair of summands.  They are
    held as dense integer rows over one denominator (TableEntries); a
    plain dict of ExponentModL passed as entries is read into such rows.
    """

    generators: tuple[Weight, ...]
    box: int
    ell: int
    entries: TableEntries

    def __init__(self, generators, box: int, ell: int, entries):
        if not isinstance(entries, TableEntries) or (
            entries.ell, entries.grid.box, entries.grid.dimension
        ) != (ell, box, len(generators)):
            grid, items = Grid(len(generators), box), entries
            entries = TableEntries(grid, ell, [[None] * len(grid.vecs) for _ in grid.vecs], 1)
            entries.update(items)
        super().__init__(generators, box, ell, entries)

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def vectors(self):
        return iter(self.entries.grid.vecs)

    def in_box(self, vec) -> bool:
        return all(-self.box <= c <= self.box for c in vec)

    def lookup(self, left, right) -> ExponentModL:
        try:
            return self.entries[(tuple(left), tuple(right))]
        except KeyError:
            raise IncompleteTable(f"no entry for pair ({left}, {right})") from None

    def weight_of(self, vec) -> Weight:
        total = Weight.zero(len(self.generators[0]) if self.generators else 0)
        for c, g in zip(vec, self.generators):
            if c:
                total = total + c * g
        return total
