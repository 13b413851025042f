"""Small exact linear-algebra kernels, on integers only.

Integer Hermite and Smith normal forms with plain bignum arithmetic; the
leading principal minors; one fraction-free Gauss-Jordan elimination
(Bareiss) behind det_int and mat_inverse (adjugate and determinant),
which refuse a matrix that is not square, and combination_in_rows, which
solves any number of targets at once as integer numerators over one
denominator; and the echelon reduction that finishes the Hermite form and
reduces a vector modulo a lattice.  Everything here works on lists of
lists of plain ints, up to cartan.MAX_RANK = 32 columns: dense lattices
up to rank 16 take about 0.02 s, but at ranks 22-31 the Hermite form of
a scaled dual can run for tens of seconds.
"""

from __future__ import annotations


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def row_hermite_form(rows) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix.

    Pivots are positive, pivot columns strictly increase, entries above a
    pivot are reduced into [0, pivot), and zero rows are dropped.  The
    result depends only on the row span of the input.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    width = len(work[0])
    result: list[list[int]] = []
    for col in range(width):
        acc = None
        rest = []
        for row in work:
            if row[col] == 0:
                rest.append(row)
                continue
            if acc is None:
                acc = row
                continue
            g, x, y = xgcd(acc[col], row[col])
            fa, fr = acc[col] // g, row[col] // g
            merged = [x * a + y * b for a, b in zip(acc, row)]
            cleared = [fa * b - fr * a for a, b in zip(acc, row)]
            acc = merged
            if any(cleared):
                rest.append(cleared)
        work = rest
        if acc is not None:
            if acc[col] < 0:
                acc = [-a for a in acc]
            result.append(acc)
        if not work:
            break
    return [echelon_reduce(row, result[i + 1:]) for i, row in enumerate(result)]


def echelon_reduce(v, rows) -> list[int]:
    """The integer vector v less integer multiples of the echelon rows,
    taken in order of their pivots, so that v's entry at each row's pivot
    ends in [0, pivot).  On the rows of a row Hermite form this is the
    canonical representative of v modulo their integer span."""
    for row in rows:
        p = row.index(next(filter(None, row)))  # the first nonzero entry
        q = v[p] // row[p]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


def smith_normal_form(mat) -> tuple[list[int], list[list[int]]]:
    """Smith normal form of an integer matrix.

    Returns (diag, vinv) where diag lists the positive diagonal entries,
    each dividing the next, and vinv is the inverse of the accumulated
    unimodular column transform: U * mat * V = diag(diag) for unimodular
    U, V with vinv = V ** -1.  Row operations are not tracked.
    """
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    vinv = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_add(dst: int, src: int, q: int) -> None:
        # C <- C * (I + q e_{src,dst}); the inverse acts on rows of vinv.
        for row in a:
            row[dst] += q * row[src]
        vinv[src] = [u - q * v for u, v in zip(vinv[src], vinv[dst])]

    def col_swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            col_swap(t, bj)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        while True:
            done = True
            for i in range(t + 1, m):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    done = False
            for j in range(t + 1, n):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                col_add(j, t, -q)
                if a[t][j] != 0:
                    col_swap(t, j)
                    done = False
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            if done:
                break
        divisible = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    col_add(t, j, 1)
                    divisible = False
                    break
            if not divisible:
                break
        if not divisible:
            continue
        t += 1
    diag = [a[i][i] for i in range(t)]
    return diag, vinv


def leading_minors(mat) -> list[int]:
    """The leading principal minors of a square integer matrix, in order,
    up to and including the first that is not positive.  They are the
    pivots of one fraction-free elimination (Bareiss) without row
    exchanges; every division is by an earlier, positive pivot and exact."""
    a = [list(r) for r in mat]
    minors, prev = [], 1
    for k, row in enumerate(a):
        p = row[k]
        minors.append(p)
        if p <= 0:
            break
        for i in range(k + 1, len(a)):
            f = a[i][k]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
        prev = p
    return minors


def _gauss_jordan(a: list[list[int]], width: int) -> tuple[int, int] | None:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the integer rows
    a, in place, on columns 0..width-1; Sylvester's identity makes every
    division exact.  The first width columns end as the last pivot times
    the identity over zero rows.  Returns (last pivot, sign of the row
    permutation), or None when some column has no pivot."""
    n = len(a)
    sign, prev = 1, 1
    for k in range(width):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        row, p = a[k], a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
        prev = p
    return prev, sign


def _square(rows) -> int:
    """The size n of an n x n matrix; ValueError naming any other shape."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"a {len(rows)}-row matrix with row lengths {[len(row) for row in rows]} is not square")
    return len(rows)


def det_int(mat) -> int:
    """Determinant of a square integer matrix."""
    a = [list(r) for r in mat]
    done = _gauss_jordan(a, _square(a))
    return 0 if done is None else done[0] * done[1]


def mat_inverse(rows) -> tuple[list[list[int]], int]:
    """Adjugate and determinant (adj, det) of a square integer matrix, so
    that adj = det * rows ** -1.  Raises ValueError when it is singular."""
    n = _square(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    done = _gauss_jordan(a, n)
    if done is None:
        raise ValueError("matrix is singular")
    det, sign = done
    return [[sign * x for x in row[n:]] for row in a], sign * det


def combination_in_rows(rows, targets) -> tuple[int, list[list[int] | None]]:
    """Each integer target as a rational combination of the integer rows.

    Returns (den, solutions) with den > 0: solution i lists integer
    numerators over den, or is None when target i lies outside the
    rational row span.  One elimination serves every target.  Raises
    ValueError when the rows are linearly dependent, since coefficients
    would not be unique.
    """
    k = len(rows)
    if k == 0:
        return 1, [None if any(t) else [] for t in targets]
    # The rows are the first k columns, and each target one more column.
    aug = [[row[i] for row in rows] + [t[i] for t in targets] for i in range(len(rows[0]))]
    done = _gauss_jordan(aug, k)
    if done is None:
        raise ValueError("rows are linearly dependent")
    sign = 1 if done[0] > 0 else -1
    return sign * done[0], [
        None if any(row[j] for row in aug[k:]) else [sign * row[j] for row in aug[:k]]
        for j in range(k, k + len(targets))
    ]
