"""Dense storage for structure-constant tables: integer rows over one
denominator, indexed by the box vectors in lexicographic order.  The table
operations in uproll.algebra run their kernels here, on these rows, and
read each pair sum at its position in the doubled box; ExponentModL
values appear only through the mapping view TableEntries.

The cocycle identities are decided here too: the gauge recursion that
builds a table's cochain, the split certificate that proves them in one
pass over the pairs, and the scans that run when it does not apply."""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from itertools import product
from math import lcm

from ._linalg import box_dots
from ._record import Record
from .algebra import check_box_budget
from .cartan import ExponentModL, Weight
from .errors import IncompleteTable


class Grid:
    """The box [-box, box]^dimension: its vectors in lexicographic order,
    their positions and (on first use) those in the doubled box of the pair
    sums, built once per table and handed on to the tables derived from it."""

    def __init__(self, dimension: int, box: int):
        check_box_budget(box, dimension)
        self.dimension, self.box, self.span = dimension, box, range(-box, box + 1)
        self.vecs = list(product(self.span, repeat=dimension))
        self.index = {v: i for i, v in enumerate(self.vecs)}
        self.zero = self.index[(0,) * dimension]

    @cached_property
    def units(self) -> list[int]:
        """The positions of the unit vectors, one per axis; none at box 0."""
        if not self.box:
            return []
        return [self.zero + (2 * self.box + 1) ** t for t in reversed(range(self.dimension))]

    @cached_property
    def doubled(self) -> tuple[list[int], int]:
        """Positions in the doubled box [-2 box, 2 box]^dimension, which
        holds every sum of two box vectors: (at, zero) with the sum of the
        i-th and j-th box vectors at zero + at[i] + at[j]."""
        radix = [(4 * self.box + 1) ** t for t in reversed(range(self.dimension))]
        return box_dots((self.span,) * self.dimension, radix), 2 * self.box * sum(radix)

    @cached_property
    def inside(self) -> list[int | None]:
        """For each position of the doubled box, the position of the same
        vector in the box, None where it lies outside."""
        at, zero = self.doubled
        where = {zero + t: k for k, t in enumerate(at)}
        return [where.get(pos) for pos in range((4 * self.box + 1) ** self.dimension)]

    def forms(self, matrix) -> list[list[int]]:
        """For each vector a of the box in order, the integers a.matrix.m
        for every vector m of the box, in order.  By bilinearity each row
        is the one before it along an axis plus that axis's unit row."""
        spans = (self.span,) * self.dimension
        rows = [box_dots(spans, [-self.box * sum(col) for col in zip(*matrix)])]  # at (-box, ..., -box)
        for unit in (box_dots(spans, m) for m in matrix):
            rows = [(row := first if c == -self.box else [x + y for x, y in zip(row, unit)])
                    for first in rows for c in self.span]
        return rows


class TableEntries(Mapping):
    """A CocycleTable's entries, a read-only mapping (n, m) -> ExponentModL
    held as dense integer rows over one denominator den: rows[i][j] / den
    is the unreduced exponent at (vecs[i], vecs[j]) of the grid, None where
    there is no entry."""

    __slots__ = ("grid", "ell", "rows", "den")

    def __init__(self, grid: Grid, ell: int, rows: list[list], den: int):
        self.grid, self.ell, self.rows, self.den = grid, ell, rows, den

    def __getitem__(self, key) -> ExponentModL:
        try:
            left, right = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if (x := self.rows[self.grid.index[left]][self.grid.index[right]]) is None:
            raise KeyError(key)
        return ExponentModL.over(x, self.den, self.ell)

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
        # A sum of ints raises exactly when some entry is None, without the
        # rich comparison with None that "None in row" makes per entry.
        try:
            sum(map(sum, self.rows))
        except TypeError:
            for i, j in positions:
                if self.rows[i][j] is None:
                    raise IncompleteTable(f"no entry for pair ({self.grid.vecs[i]}, {self.grid.vecs[j]})")


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
    held as dense integer rows over one denominator (TableEntries), read
    once from any other mapping of ExponentModL passed as entries (a dict,
    or the entries of a table of another box) and never edited.
    """

    generators: tuple[Weight, ...]
    box: int
    ell: int
    entries: TableEntries

    def __init__(self, generators, box: int, ell: int, entries):
        if not isinstance(entries, TableEntries) or (
            entries.ell, entries.grid.box, entries.grid.dimension
        ) != (ell, box, len(generators)):
            grid, items = Grid(len(generators), box), list(entries.items())
            nums, den = read_exponents(items, ell)
            rows = [[None] * len(grid.vecs) for _ in grid.vecs]
            for ((left, right), _), x in zip(items, nums):
                if left not in grid.index or right not in grid.index:
                    raise ValueError(f"pair {(left, right)} lies outside the box {box}")
                rows[grid.index[left]][grid.index[right]] = x
            entries = TableEntries(grid, ell, rows, den)
        super().__init__(generators, box, ell, entries)

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def vectors(self):
        return iter(self.entries.grid.vecs)

    def in_box(self, vec) -> bool:
        return all(-self.box <= c <= self.box for c in vec)


def gauge_cochain(grid: Grid, e) -> list[int]:
    """The cochain f of algebra.gauge_normalize's recursion on integer rows
    e: zero at 0 and on each generator, and built so that e(a, b) +
    f(a + b) - f(a) - f(b) vanishes on the pairs (n g_i, g_i) and on
    (v - t, t) for t the last nonzero component of v."""
    vecs, zero = grid.vecs, grid.zero
    steps = [one - zero for one in grid.units]
    f = [None] * len(vecs)
    f[zero] = 0
    for one, step in zip(grid.units, steps):
        f[one] = 0
        for pos in range(one, zero + grid.box * step, step):
            f[pos + step] = f[pos] - e[pos][one]
        for pos in range(zero - step, zero - grid.box * step - 1, -step):
            f[pos] = f[pos + step] + e[pos][one]
    # Fewer nonzero components first, so each head is known before its vector.
    for pos in sorted(range(len(vecs)), key=lambda i: len(vecs[i]) - vecs[i].count(0)):
        if f[pos] is None:
            vec = vecs[pos]
            k = max(i for i, c in enumerate(vec) if c)
            tail = zero + vec[k] * steps[k]
            head = pos + zero - tail
            f[pos] = f[head] + f[tail] - e[head][tail]
    return f


def coboundary_rows(grid: Grid, rows, f) -> list[list]:
    """The rows of x + f(a + b) - f(a) - f(b), with x = rows[i][j] at the
    i-th and j-th box vectors a and b and f listed over the doubled box
    (Grid.doubled); None where x or f(a + b) is None."""
    at, zero = grid.doubled
    keys = [zero + t for t in at]
    f_box = [f[k] for k in keys]
    return [[None if x is None or (s := f[a + b]) is None else x + s - fa - fb
             for x, b, fb in zip(row, at, f_box)] for a, fa, row in zip(keys, f_box, rows)]


def coboundary(entries: TableEntries, phi: dict) -> TableEntries:
    """algebra.apply_coboundary on the table's rows."""
    grid, items = entries.grid, []
    for vec in product(range(-2 * grid.box, 2 * grid.box + 1), repeat=grid.dimension):
        if (x := phi.get(vec)) is None:
            raise IncompleteTable(f"coboundary cochain missing {vec}")
        items.append((vec, x))
    f, den = read_exponents(items, entries.ell, entries.den)
    rows = entries.rows
    if (up := den // entries.den) > 1:
        rows = [[x if x is None else x * up for x in row] for row in rows]
    return TableEntries(grid, entries.ell, coboundary_rows(grid, rows, f), den)


def normalize(entries: TableEntries) -> tuple[list[int], TableEntries]:
    """algebra.gauge_normalize on the table's rows: the gauge cochain on the
    box, in order, and the normalized entries, none where a sum leaves the box."""
    grid, rows = entries.grid, entries.rows
    (at, zero), inside = grid.doubled, grid.inside
    entries.require((i, j) for i, a in enumerate(at) for j, b in enumerate(at)
                    if inside[zero + a + b] is not None)
    f = gauge_cochain(grid, rows)
    spread = [k if k is None else f[k] for k in inside]
    return f, TableEntries(grid, entries.ell, coboundary_rows(grid, rows, spread), entries.den)


# The split certificate.  Modulo den * ell, let B be the strictly lower form
# with B(g_i, g_k) = e(g_i, g_k) - e(g_k, g_i) for i > k and phi = -f the
# gauge cochain.  If h(a, b) = e(a, b) - B(a, b) + phi(a) + phi(b) depends
# only on a + b for every pair of box vectors, as psi(a + b), with psi = phi
# on the box, then e = B + psi(a + b) - phi(a) - phi(b), and:
# - the unit rows are e(a, 0) = -phi(0) = 0;
# - in each associativity defect on a triple the scan reads, the B terms
#   cancel by bilinearity, the phi terms cancel, and psi(a + b + c), also
#   where a + b + c leaves the box, enters both sides;
# - e(a, b) - e(b, a) = B(a, b) - B(b, a), so the commutation defect is
#   bilinear and vanishes on the box iff it does on the unit pairs.
# Every pair counts: e(a + b, c) is read where a + b + c leaves the box.
# A fail proves nothing, and the scans decide.
def split_certificate(entries: TableEntries) -> bool:
    """Whether the table is a bilinear form plus a coboundary on every pair
    of the box (see the comment above)."""
    grid, rows, mod = entries.grid, entries.rows, entries.den * entries.ell
    f = gauge_cochain(grid, rows)
    # B's matrix is empty at box 0, where the only vector is zero.
    units = grid.units
    lower = [[rows[ui][uk] - rows[uk][ui] if i > k else 0 for k, uk in enumerate(units)]
             for i, ui in enumerate(units)]
    # A sum's position in the doubled box, which every sum reaches, and h
    # modulo den * ell make one int; a map of sums has one int per sum.
    at, zero = grid.doubled
    keys = [mod * (zero + t) for t in at]
    seen = {k + -x % mod for k, x in zip(keys, f)}
    for fa, t, row, form in zip(f, at, rows, grid.forms(lower)):
        shift = mod * t
        seen.update([(x - y - fa - fb) % mod + k + shift for x, y, fb, k in zip(row, form, f, keys)])
    return len(seen) == (4 * grid.box + 1) ** grid.dimension


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


def scan_commutation(entries: TableEntries, pairs, p: int) -> tuple | None:
    """The first pair, in lexicographic order, failing the commutation
    relation, with <g_i, g_k> = pairs[i][k] / p."""
    grid = entries.grid
    vecs, den = grid.vecs, lcm(p, entries.den)
    up, scale, mod = den // entries.den, den // p, den * entries.ell
    e = [[x * up for x in row] for row in entries.rows] if up > 1 else entries.rows
    scaled = [[scale * x for x in row] for row in pairs]
    return next(
        (
            ("commutativity", v1, vecs[i2])
            for i1, (v1, e1, pair_row) in enumerate(zip(vecs, e, grid.forms(scaled)))
            for i2, (x, e2, c) in enumerate(zip(e1, e, pair_row))
            if (x - e2[i1] - c) % mod
        ),
        None,
    )


def violations(entries: TableEntries, pairs, p: int) -> tuple[tuple | None, tuple | None]:
    """cocycle_check's first structure and first commutation violation,
    None for each that holds; the certificate spares what it proves."""
    entries.require(product(range(len(entries.grid.vecs)), repeat=2))
    if not split_certificate(entries):
        return scan_structure(entries), scan_commutation(entries, pairs, p)
    # The commutation defect is now bilinear, so the unit pairs decide it.
    rows, units, den = entries.rows, entries.grid.units, lcm(p, entries.den)
    up, scale, mod = den // entries.den, den // p, den * entries.ell
    if all(
        ((rows[ui][uk] - rows[uk][ui]) * up - scale * pairs[i][k]) % mod == 0
        for i, ui in enumerate(units)
        for k, uk in enumerate(units)
    ):
        return None, None
    return None, scan_commutation(entries, pairs, p)
