"""Factored storage for structure-constant tables.  Every table the library
builds is a bilinear form B plus the coboundary of a cochain f zero at 0:
B as its strictly lower integer matrix, f listed over the doubled box, both
over one denominator, on the one Grid that box_grid builds per box in a
process.  structure_constant_table stores B alone, apply_coboundary adds its
cochain to f, and gauge_normalize reads its gauge cochain off f in closed
form and returns B.  A table read from a mapping is factored once, or kept
whole as a dense residual when it is not B plus a coboundary; only a
residual's rows run the gauge recursion.  Rows are derived only when read;
ExponentModL values appear only through TableEntries, a record.

The cocycle identities are decided here too: a factored table passes unit
and associativity, and its commutation defect is bilinear, decided on the
unit pairs; a residual is scanned."""

from __future__ import annotations

import functools
from collections.abc import ItemsView, Mapping
from itertools import product
from math import lcm
from operator import add, mul, sub
from types import MappingProxyType

from ._linalg import box_dots
from ._record import Record
from .algebra import check_box_budget
from .cartan import ExponentModL, Weight
from .errors import IncompleteTable


class Grid(Record):
    """The box [-box, box]^dimension: its vectors in lexicographic order,
    their positions (index), those of zero and of the unit vectors (one per
    axis, none at box 0), and where the pair sums lie.  It pickles as
    box_grid(dimension, box), so it unpickles onto the process's own grid."""

    dimension: int
    box: int
    zero: int
    vecs: tuple[tuple[int, ...], ...]
    units: tuple[int, ...]
    # (at, zero) on the doubled box [-2 box, 2 box]^dimension, which holds
    # every pair sum: the i-th plus the j-th box vector is at zero + at[i] + at[j].
    doubled: tuple[tuple[int, ...], int]
    # For each position of the doubled box, that vector's position in the box, None outside.
    inside: tuple[int | None, ...]
    index: MappingProxyType

    def __reduce__(self):
        return box_grid, (self.dimension, self.box)

    def forms(self, matrix) -> tuple[tuple[int, ...], ...]:
        """For each vector a of the box in order, the integers a.matrix.m
        for every vector m of the box, in order.  By bilinearity each row
        is the one before it along an axis plus that axis's unit row.  The
        slowest axes whose matrix rows are zero add nothing, so the rows
        over the others are built once and repeated, each row one tuple."""
        spans = (span := range(-self.box, self.box + 1),) * self.dimension
        skip = next((t for t, m in enumerate(matrix) if any(m)), len(matrix))
        rows = [tuple(box_dots(spans, [-self.box * sum(col) for col in zip(*matrix)]))]  # at (-box, ..., -box)
        for unit in (box_dots(spans, m) for m in matrix[skip:]):
            rows = [(row := first if c == -self.box else tuple(map(add, row, unit)))
                    for first in rows for c in span]
        return tuple(rows) * len(span) ** skip


# Typed, so that a float box, which the range refuses, never meets an int box's grid.
@functools.lru_cache(maxsize=None, typed=True)
def box_grid(dimension: int, box: int) -> Grid:
    """The one Grid of the box [-box, box]^dimension in this process, which
    every table on the box shares; check_box_budget runs before it is built."""
    check_box_budget(box, dimension)
    span = range(-box, box + 1)
    vecs = tuple(product(span, repeat=dimension))
    index = {v: i for i, v in enumerate(vecs)}
    zero = index[(0,) * dimension]
    units = tuple(zero + (2 * box + 1) ** t for t in reversed(range(dimension))) if box else ()
    radix = [(4 * box + 1) ** t for t in reversed(range(dimension))]
    at, middle = tuple(box_dots((span,) * dimension, radix)), 2 * box * sum(radix)
    where = {middle + t: k for k, t in enumerate(at)}
    inside = tuple(map(where.get, range((4 * box + 1) ** dimension)))
    return Grid(dimension, box, zero, vecs, units, (at, middle), inside, MappingProxyType(index))


class TableEntries(Mapping, Record):
    """A CocycleTable's entries, a read-only mapping (n, m) -> ExponentModL
    held as a form plus a cochain over one denominator den: the exponent at
    the box vectors (a, b) is (B(a, b) + f(a + b) - f(a) - f(b) + R(a, b)) /
    den.  B(a, b) = a.lower.b, with lower B's strictly lower integer matrix;
    the cochain f is listed over the doubled box (Grid.doubled), zero at 0; the
    residual R is dense rows, which hold a table read from a mapping that is
    not B plus a coboundary (B is then zero), None where there is no entry.
    cochain and residual are None when zero.  With inbox set, only the pairs
    whose sum stays in the box have an entry.  Rows are derived only when
    read.  The record equals any mapping of the same items, and is unhashable."""

    grid: Grid
    ell: int
    lower: tuple[tuple[int, ...], ...]
    cochain: tuple[int, ...] | None
    den: int
    inbox: bool
    residual: tuple[tuple[int | None, ...], ...] | None

    def at(self, i: int, j: int) -> int | None:
        """The integer over den at the i-th and j-th box vectors, None where there is no entry."""
        grid, f, res = self.grid, self.cochain, self.residual
        (at, zero), b = grid.doubled, grid.vecs[j]
        s = zero + at[i] + at[j]
        if self.inbox and grid.inside[s] is None or res is not None and res[i][j] is None:
            return None
        x = 0 if res is None else res[i][j]
        for c, row in zip(grid.vecs[i], self.lower):
            if c:
                x += c * sum(map(mul, row, b))
        return x if f is None else x + f[s] - f[zero + at[i]] - f[zero + at[j]]

    @property
    def rows(self) -> tuple[tuple[int | None, ...], ...]:
        """The dense rows: rows[i][j] / den is the exponent at (vecs[i],
        vecs[j]), None where there is no entry.  B's rows are the grid's
        forms, so a table that is B alone shares one tuple per distinct row."""
        grid, f = self.grid, self.cochain
        rows = grid.forms(self.lower) if self.residual is None else self.residual
        (at, zero), inside = grid.doubled, grid.inside
        keys = [zero + t for t in at]
        if f is not None:
            fk = [f[k] for k in keys]
            rows = [[x if x is None else x + f[a + b] - fa - fb for x, b, fb in zip(row, at, fk)]
                    for a, fa, row in zip(keys, fk, rows)]
        if self.inbox:
            rows = [[None if inside[a + b] is None else x for x, b in zip(row, at)] for a, row in zip(keys, rows)]
        return tuple(map(tuple, rows))

    def __getitem__(self, key) -> ExponentModL:
        try:
            left, right = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if (x := self.at(self.grid.index[left], self.grid.index[right])) is None:
            raise KeyError(key)
        return ExponentModL.over(x, self.den, self.ell)

    def __iter__(self):
        vecs = self.grid.vecs
        return ((left, right) for left, row in zip(vecs, self.rows) for right, x in zip(vecs, row) if x is not None)

    def __len__(self) -> int:
        if self.residual is not None:
            return sum(len(row) - row.count(None) for row in self.rows)
        # Per axis, 3 box^2 + 3 box + 1 of the (2 box + 1)^2 pairs have their sum in the box.
        box, d = self.grid.box, self.grid.dimension
        return (3 * box * box + 3 * box + 1 if self.inbox else (2 * box + 1) ** 2) ** d

    def items(self):
        return _TableItems(self)

    def __repr__(self) -> str:
        return f"TableEntries({dict(self.items())!r})"

    def require(self, positions) -> None:
        """Raise IncompleteTable naming the first (i, j) in positions with no entry."""
        if not self.inbox:
            # A sum of ints raises exactly when some entry is None, without the
            # rich comparison with None that "None in row" makes.
            try:
                sum(map(sum, self.residual or ()))
                return
            except TypeError:
                pass
        for i, j in positions:
            if self.at(i, j) is None:
                raise IncompleteTable(f"no entry for pair ({self.grid.vecs[i]}, {self.grid.vecs[j]})")


class _TableItems(ItemsView):
    def __iter__(self):
        e = self._mapping
        vecs, den, ell, over = e.grid.vecs, e.den, e.ell, ExponentModL.over
        for left, row in zip(vecs, e.rows):
            yield from (((left, right), over(x, den, ell)) for right, x in zip(vecs, row) if x is not None)


def read_exponents(items, ell: int, den: int = 1) -> tuple[list[int], int]:
    """The ExponentModL values of (key, value) items as integers over d,
    the lcm of den and their denominators, and d; each must be mod ell."""
    for key, x in items:
        if x.modulus != ell:
            raise ValueError(f"exponents live at different orders of q: {x.modulus} at {key}, {ell} in the table")
    den = lcm(den, *(x.den for _, x in items))
    return [x.num * (den // x.den) for _, x in items], den


class CocycleTable(Record):
    """Structure-constant exponents on a bounded coefficient box.

    Entries are keyed by pairs of generator-coefficient vectors with all
    coefficients in [-box, box]; the value at (n, m) is the exponent of
    the product scalar on the corresponding pair of summands.  They are
    held as a form plus a cochain over one denominator (TableEntries),
    factored once from any other mapping of ExponentModL passed as entries
    (a dict, or the entries of a table of another box) and never edited.
    """

    generators: tuple[Weight, ...]
    box: int
    ell: int
    entries: TableEntries

    def __init__(self, generators, box: int, ell: int, entries):
        if not isinstance(entries, TableEntries) or (
            entries.ell, entries.grid.box, entries.grid.dimension
        ) != (ell, box, len(generators)):
            grid, items = box_grid(len(generators), box), list(entries.items())
            nums, den = read_exponents(items, ell)
            rows = [[None] * len(grid.vecs) for _ in grid.vecs]
            for ((left, right), _), x in zip(items, nums):
                if left not in grid.index or right not in grid.index:
                    raise ValueError(f"pair {(left, right)} lies outside the box {box}")
                rows[grid.index[left]][grid.index[right]] = x
            entries = factored(grid, ell, tuple(map(tuple, rows)), den)
        super().__init__(generators, box, ell, entries)


def gauge_cochain(grid: Grid, rows) -> list[int]:
    """The cochain f of algebra.gauge_normalize's recursion on the dense
    integer rows e, listed over the box: zero at 0 and on each generator, and
    built so that e(a, b) + f(a + b) - f(a) - f(b) vanishes on the pairs
    (n g_i, g_i) and on (v - t, t) for t the last nonzero component of v.
    It reads only pairs whose sum stays in the box."""
    vecs, zero = grid.vecs, grid.zero
    steps = [one - zero for one in grid.units]
    f = [None] * len(vecs)
    f[zero] = 0
    for one, step in zip(grid.units, steps):
        f[one] = 0
        for pos in range(one, zero + grid.box * step, step):
            f[pos + step] = f[pos] - rows[pos][one]
        for pos in range(zero - step, zero - grid.box * step - 1, -step):
            f[pos] = f[pos + step] + rows[pos][one]
    # Fewer nonzero components first, so each head is known before its vector.
    for pos in sorted(range(len(vecs)), key=lambda i: len(vecs[i]) - vecs[i].count(0)):
        if f[pos] is None:
            vec = vecs[pos]
            k = max(i for i, c in enumerate(vec) if c)
            tail = zero + vec[k] * steps[k]
            head = pos + zero - tail
            f[pos] = f[head] + f[tail] - rows[head][tail]
    return f


# The split.  Let B be the strictly lower form with B(g_i, g_k) = e(g_i, g_k)
# - e(g_k, g_i) for i > k, and f a cochain over the doubled box with f(0) = 0.
# If e = B + f(a + b) - f(a) - f(b) on every pair of the box, then:
# - the unit rows are e(a, 0) = -f(0) = 0;
# - in each associativity defect on a triple the scan reads, the B terms
#   cancel by bilinearity and the f terms cancel, f(a + b + c) included,
#   also where a + b + c leaves the box;
# - e(a, b) - e(b, a) = B(a, b) - B(b, a), so the commutation defect is
#   bilinear and vanishes on the box iff it does on the unit pairs.
# The gauge recursion g is linear in e, zero on B (which vanishes on the pairs
# it reads) and L_f - f on f's coboundary, L_f(v) = sum_i v_i f(g_i); so -g
# is f less L_f, which has no coboundary.  Each sum s that leaves the box is
# the pair (a, s - a) with a = s clamped to the box, where e gives f(s).
# So a table read from a mapping is factored once; when it has a hole or is
# not B + f(a + b) - f(a) - f(b), it is kept whole as the residual R, with B
# and f zero.
def factored(grid: Grid, ell: int, rows, den: int) -> TableEntries:
    """The entries of the integer rows over den (tuples, None where there is
    no entry), factored by the split (see the comment above)."""
    d, units, box = grid.dimension, grid.units, grid.box
    (at, zero), inside, index = grid.doubled, grid.inside, grid.index
    whole = TableEntries(grid, ell, ((0,) * d,) * d, None, den, False, rows)
    try:
        lower = tuple(tuple(rows[ui][units[k]] - rows[units[k]][ui] if k < i else 0 for k in range(d))
                      for i, ui in enumerate(units)) or whole.lower
        forms, f = grid.forms(lower), [0] * len(inside)
        for t, x in zip(at, gauge_cochain(grid, rows)):
            f[zero + t] = -x
        for s, vec in enumerate(product(range(-2 * box, 2 * box + 1), repeat=d)):
            if inside[s] is None:
                a = tuple(max(-box, min(box, c)) for c in vec)
                i, j = index[a], index[tuple(map(sub, vec, a))]
                f[s] = rows[i][j] - forms[i][j] + f[zero + at[i]] + f[zero + at[j]]
    except TypeError:  # a pair the split reads has no entry
        return whole
    split = TableEntries(grid, ell, lower, tuple(f) if any(f) else None, den, False, None)
    return split if split.rows == rows else whole


def coboundary(entries: TableEntries, phi: dict) -> TableEntries:
    """algebra.apply_coboundary on the factored table: phi, read once over
    the doubled box, is added to its cochain, phi(0) as 0; B and R stay."""
    grid, items, zero = entries.grid, [], entries.grid.doubled[1]
    for vec in product(range(-2 * grid.box, 2 * grid.box + 1), repeat=grid.dimension):
        if (x := phi.get(vec)) is None:
            raise IncompleteTable(f"coboundary cochain missing {vec}")
        items.append((vec, x))
    f, den = read_exponents(items, entries.ell, entries.den)
    if f[zero] % (den * entries.ell):
        raise ValueError(f"coboundary cochain must be 0 modulo {entries.ell} at 0, got {items[zero][1].value}")
    f[zero] = 0
    lower, old, res = entries.lower, entries.cochain, entries.residual
    if (up := den // entries.den) > 1:
        lower = tuple(tuple(x * up for x in row) for row in lower)
        old = old and [x * up for x in old]
        res = res and tuple(tuple(x if x is None else x * up for x in row) for row in res)
    if old:
        f = list(map(add, f, old))
    return TableEntries(grid, entries.ell, lower, tuple(f) if any(f) else None, den, entries.inbox, res)


def normalize(entries: TableEntries) -> tuple[list[int], TableEntries]:
    """algebra.gauge_normalize by the split (see the comment above factored):
    the gauge cochain on the box, L_f - f plus the recursion's cochain h on the
    residual, and the entries B + R + h's coboundary on the in-box pairs."""
    grid, res = entries.grid, entries.residual
    (at, zero), inside = grid.doubled, grid.inside
    f, h = entries.cochain or [0] * len(inside), [0] * len(inside)
    if res is not None:
        entries.require((i, j) for i, a in enumerate(at) for j, b in enumerate(at)
                        if inside[zero + a + b] is not None)
        for t, x in zip(at, gauge_cochain(grid, res)):
            h[zero + t] = x
    linear = [f[zero + at[one]] for one in grid.units]
    g = [h[zero + t] + sum(map(mul, vec, linear)) - f[zero + t] for t, vec in zip(at, grid.vecs)]
    return g, TableEntries(grid, entries.ell, entries.lower, tuple(h) if any(h) else None, entries.den, True, res)


def scan_structure(entries: TableEntries) -> tuple | None:
    """The first failure of the unit rows, then of associativity, in
    lexicographic order (see algebra.cocycle_check)."""
    grid, e, mod = entries.grid, entries.rows, entries.den * entries.ell
    vecs, z, inside, (at, zero) = grid.vecs, grid.zero, grid.inside, grid.doubled
    # For each vector, the positions (j, k) of every vecs[j] whose sum vecs[k] with it stays in the box.
    in_box = [[(j, k) for j, b in enumerate(at) if (k := inside[zero + a + b]) is not None] for a in at]
    # The generator expression binds its hoisted rows with "for x in
    # [value]", which Python compiles to a plain assignment.
    return next(
        (("unit", v) for i, v in enumerate(vecs) if e[i][z] % mod or e[z][i] % mod), None
    ) or next(
        (
            ("associativity", vecs[i1], vecs[i2], vecs[i3])
            for i1, (e1, row) in enumerate(zip(e, in_box))
            for i2, i12 in row
            for e2, e12, e1_2 in [(e[i2], e[i12], e1[i2])]
            for i3, i23 in in_box[i2]
            if (e12[i3] + e1_2 - e1[i23] - e2[i3]) % mod
        ),
        None,
    )


def scan_commutation(entries: TableEntries, pairs, up: int, scale: int, mod: int) -> tuple | None:
    """The first pair, in lexicographic order, failing the commutation relation
    on the rows times up, with <g_i, g_k> as scale * pairs[i][k], modulo mod."""
    vecs = entries.grid.vecs
    e = [[x * up for x in row] for row in entries.rows] if up > 1 else entries.rows
    scaled = [[scale * x for x in row] for row in pairs]
    return next(
        (
            ("commutativity", v1, vecs[i2])
            for i1, (v1, e1, pair_row) in enumerate(zip(vecs, e, entries.grid.forms(scaled)))
            for i2, (x, e2, c) in enumerate(zip(e1, e, pair_row))
            if (x - e2[i1] - c) % mod
        ),
        None,
    )


def violations(entries: TableEntries, pairs, p: int) -> tuple[tuple | None, tuple | None]:
    """cocycle_check's first structure and first commutation violation,
    None for each that holds, with <g_i, g_k> = pairs[i][k] / p; the split
    spares what it proves."""
    grid, lower, units = entries.grid, entries.lower, range(len(entries.grid.units))
    entries.require(product(range(len(grid.vecs)), repeat=2))
    den = lcm(p, entries.den)
    up, scale, mod = den // entries.den, den // p, den * entries.ell
    if entries.residual is not None:
        return scan_structure(entries), scan_commutation(entries, pairs, up, scale, mod)
    # The commutation defect is B(a, b) - B(b, a) - <a, b>, bilinear, a.M.b: M, read off
    # lower by columns, decides it, and the first row a.M not zero mod mod holds the first failure.
    cols = [[(lower[i][k] - lower[k][i]) * up - scale * pairs[i][k] for i in units] for k in units]
    if not any(x % mod for col in cols for x in col):
        return None, None
    a, w = next((a, w) for a in grid.vecs for w in [[sum(map(mul, a, c)) for c in cols]] if any(x % mod for x in w))
    return None, next(("commutativity", a, b) for b in grid.vecs if sum(map(mul, w, b)) % mod)
