"""Small exact linear-algebra kernels, on integers only.

Integer Hermite and Smith normal forms with plain bignum arithmetic: the
Hermite form adds one row at a time to a basis kept in Hermite form, and
the Smith form alternates column steps with Hermite rounds, both of which
keep the entries small; det_int and mat_inverse (adjugate and
determinant), which take only an upper triangular matrix, by its
diagonal and by back-substitution, so that any other square matrix is
inverted through the Hermite form of [M | I] (Cohen, GTM 138, 2.4.3), as
cartan does for each type's D A; the echelon reduction of a vector
modulo a lattice, which also returns the multiple of each row it
subtracted, and combination_in_rows, which reads off those multiples for
any number of targets against square, upper triangular rows; and the dot
products of one integer row with every vector of a box.  Everything
here works on lists of lists of plain ints, up to cartan.MAX_RANK = 32
columns: the Hermite form of up to 128 rows of 32 columns takes about
0.1 s, and the Smith form of the discriminant matrix of a dense
rank-deficient lattice of A, B, C or D up to rank 32 about 0.015 s
(Python 3.11).
"""

from __future__ import annotations

from math import prod


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

    Each row is added to a basis kept in this form (Micciancio and
    Warinschi, ISSAC 2001): it is reduced, or merged by an xgcd step, at
    each pivot it meets until it opens a new pivot column, and the rows at
    and above the last basis row that changed are reduced again.
    """
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        v, i = list(row), 0
        first, last = len(basis), -1  # the first and last basis rows that change
        for p in range(len(v)):
            if not v[p]:
                continue
            while i < len(pivots) and pivots[i] < p:
                i += 1
            if i == len(pivots) or pivots[i] > p:
                basis.insert(i, v if v[p] > 0 else [-e for e in v])
                pivots.insert(i, p)
                first, last = min(first, i), i
                break
            b = basis[i]
            g, x, y = xgcd(b[p], v[p])
            fb, fv = b[p] // g, v[p] // g
            if fb > 1:  # the pivot does not divide v[p]: the basis row takes the gcd
                basis[i] = [x * s + y * t for s, t in zip(b, v)]
                first, last = min(first, i), i
            v = [fb * t - fv * s for s, t in zip(b, v)]
        for j in range(first, len(basis)):
            s, c = basis[j], pivots[j]
            for k in range(min(j, last + 1)):
                if q := basis[k][c] // s[c]:
                    basis[k] = [e - q * f for e, f in zip(basis[k], s)]
    return basis


def echelon_reduce(v, rows) -> tuple[list[int], list[int]]:
    """(rest, multiples): the integer vector v less integer multiples of the
    echelon rows, taken in order of their pivots, so that v's entry at each
    row's pivot ends in [0, pivot), and the multiple of each row that was
    subtracted.  On the rows of a row Hermite form rest is the canonical
    representative of v modulo their integer span."""
    multiples = []
    for row in rows:
        p = row.index(next(filter(None, row)))  # the first nonzero entry
        q = v[p] // row[p]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        multiples.append(q)
    return v, multiples


def box_dots(spans, w) -> list[int]:
    """The integers w.c for every vector c of the box spans[0] x spans[1] x
    ..., in lexicographic order, last coordinate fastest."""
    dots = [0]
    for span, x in zip(spans, w):
        steps = [c * x for c in span]
        dots = [y + t for y in dots for t in steps]
    return dots


def smith_normal_form(mat) -> tuple[list[int], list[list[int]]]:
    """Smith normal form of an integer matrix.

    Returns (diag, vinv) where diag lists the positive diagonal entries,
    each dividing the next, and vinv is the inverse of the accumulated
    unimodular column transform: U * mat * V = diag(diag) for unimodular
    U, V with vinv = V ** -1.  Row operations are not tracked.

    Rounds of row_hermite_form alternate with column steps, and the
    Hermite form between rounds keeps the entries small (Kannan and
    Bachem, SIAM J. Comput. 8(4), 1979).  A round clears each row right of
    its pivot p: an entry divisible by the pivot by subtracting column p,
    which keeps the echelon form, any other by an xgcd step on the two
    columns, which lowers the pivot and ends the round after that row.
    Once every row holds one entry, the first pivots d, e with d not
    dividing e are merged to their gcd by one column addition and a round.
    """
    a = [list(row) for row in mat]
    n = len(a[0]) if a else 0
    vinv = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        a = row_hermite_form(a)
        pivots = [row.index(next(filter(None, row))) for row in a]
        for row, p in zip(a, pivots):
            pivot = row[p]
            for j in range(p + 1, n):
                if row[j] % row[p] == 0:
                    if q := row[j] // row[p]:
                        for r in a:
                            r[j] -= q * r[p]
                        vinv[p] = [u + q * v for u, v in zip(vinv[p], vinv[j])]
                    continue
                # Columns p, j times [[x, -t], [y, s]], of determinant 1.
                g, x, y = xgcd(row[p], row[j])
                s, t = row[p] // g, row[j] // g
                for r in a:
                    r[p], r[j] = x * r[p] + y * r[j], s * r[j] - t * r[p]
                vp, vj = vinv[p], vinv[j]
                vinv[p] = [s * u + t * v for u, v in zip(vp, vj)]
                vinv[j] = [x * v - y * u for u, v in zip(vp, vj)]
            if row[p] != pivot:  # an xgcd step lowered it and broke the echelon form
                break
        else:
            diag = [row[p] for row, p in zip(a, pivots)]
            k = next((k for k in range(1, len(a)) if diag[k] % diag[k - 1]), None)
            if k is None:
                break
            # Column p_k onto column p_(k-1); only row k is nonzero at p_k.
            a[k][pivots[k - 1]] = diag[k]
            vinv[pivots[k]] = [u - v for u, v in zip(vinv[pivots[k]], vinv[pivots[k - 1]])]
    for i, p in enumerate(pivots):
        vinv[i], vinv[p] = vinv[p], vinv[i]
    return diag, vinv


def _square(rows) -> int:
    """The size n of an n x n matrix; ValueError naming any other shape."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"a {len(rows)}-row matrix with row lengths {[len(row) for row in rows]} is not square")
    return len(rows)


def _upper_triangular(rows) -> bool:
    """Whether every entry below the diagonal of a square matrix is zero."""
    return not any(any(row[:i]) for i, row in enumerate(rows))


def det_int(mat) -> int:
    """Determinant of a square, upper triangular integer matrix: the
    product of its diagonal.  Raises ValueError for any other matrix."""
    n = _square(mat)
    if not _upper_triangular(mat):
        raise ValueError(f"a {n}x{n} matrix with an entry below the diagonal is not upper triangular")
    return prod(row[i] for i, row in enumerate(mat))


def mat_inverse(rows) -> tuple[list[list[int]], int]:
    """Adjugate and determinant (adj, det) of a square, upper triangular
    integer matrix H, so that adj = det * H ** -1, by back-substitution:
    adj is upper triangular too, and row i of H adj = det I gives adj's row
    i from the rows below it, divided exactly by H_ii since adj is
    integral.  Raises det_int's ValueError for any other matrix, and
    ValueError when H is singular.
    """
    det = det_int(rows)
    if not det:
        raise ValueError("matrix is singular")
    n = len(rows)
    adj = [None] * n
    for i in reversed(range(n)):
        row = rows[i]
        v = [0] * n
        v[i] = det
        for k in range(i + 1, n):
            if c := row[k]:
                v = [x - c * y for x, y in zip(v, adj[k])]
        adj[i] = [x // row[i] for x in v]
    return adj, det


def combination_in_rows(rows, targets) -> list[list[int] | None]:
    """Each integer target as an integer combination of the rows of a
    square, upper triangular integer matrix with a nonzero diagonal, such
    as the Hermite form of a lattice of full rank: the multiples that
    echelon_reduce subtracts (Cohen, GTM 138, 2.4), or None when the
    target is not in the integer row span.  Raises ValueError when a
    target's length is not the rows' length, and for any other rows.
    """
    n = _square(rows)
    if any(len(t) != n for t in targets):
        raise ValueError(f"targets of lengths {[len(t) for t in targets]} against rows of length {n}")
    if not _upper_triangular(rows) or not all(row[i] for i, row in enumerate(rows)):
        raise ValueError(f"a {n}x{n} matrix is not upper triangular with a nonzero diagonal")
    return [None if any(rest) else multiples for rest, multiples in (echelon_reduce(t, rows) for t in targets)]
