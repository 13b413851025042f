"""Shared helpers: spec draws for the randomized tests, and bounded CLI
child processes."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform; children then run uncapped
    resource = None

from uproll import AlgebraSpec, Weight, build_cartan_datum, weight
from uproll.errors import HypothesisViolated, UprollError

# (series, rank, r, expected census order det(A) * r^rank) of triplet cases
TRIPLET_CASES = [
    ("A", 1, 2, 4),
    ("A", 1, 3, 6),
    ("A", 1, 4, 8),
    ("A", 2, 2, 12),
    ("A", 3, 2, 32),
]

# Every Dynkin type up to rank 8; ell = 7 satisfies the datum hypothesis for all.
ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(1, 9)]
    + [("C", n) for n in range(1, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

TYPE_POOL = [("A", 1), ("A", 2), ("B", 1), ("B", 2), ("C", 1), ("C", 2)]


def draw_commutativity_specs(seed: int, count: int, pool=TYPE_POOL) -> list[AlgebraSpec]:
    """Random low-rank specs with generators in the simple-current lattice.

    Types from pool (by default series A/B/C at rank <= 2), ell in 3..12
    (resampling combinations that violate the datum hypothesis), one or
    two generators with coefficient multiples of ell/2 drawn from [-2, 2].
    """
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        series, rank = rng.choice(pool)
        ell = rng.randint(3, 12)
        try:
            datum = build_cartan_datum(series, rank, ell)
        except HypothesisViolated:
            continue
        half = Fraction(ell, 2)
        gens = [
            weight([half * rng.randint(-2, 2) for _ in range(rank)])
            for _ in range(rng.randint(1, 2))
        ]
        specs.append(AlgebraSpec(datum, gens))
    return specs


def draw_super_specs(specs) -> list[AlgebraSpec]:
    """A superalgebra variant of each spec that admits one: the even
    generators doubled and the first generator as the odd one."""
    out = []
    for spec in specs:
        gens = spec.generators
        try:
            out.append(AlgebraSpec(spec.datum, [2 * g for g in gens], mu=gens[0]))
        except UprollError:
            continue
    return out


def sympy_gram(datum):
    """The Gram matrix D (D A)^-1 D of the datum, computed by sympy."""
    import sympy

    d = sympy.diag(*datum.symmetrizers)
    return d * (d * sympy.Matrix(datum.cartan)).inv() * d


def sympy_form(gram, lam, mu) -> Fraction:
    """<lam, mu> through a sympy Gram matrix, as a Fraction."""
    import sympy

    def column(w):
        return sympy.Matrix([sympy.Rational(c.numerator, c.denominator) for c in w.coords])

    value = (column(lam).T * gram * column(mu))[0, 0]
    return Fraction(int(value.p), int(value.q))


def fundamental_weight(datum, i: int) -> Weight:
    """The i-th fundamental weight of the datum."""
    return Weight.over([int(k == i) for k in range(datum.rank)], 1)


def alpha_coordinates(datum, lam) -> tuple[Fraction, ...]:
    """Coordinates of a weight over the simple roots.  Since <omega_i,
    alpha_j> = d_j delta_ij, coordinate i is <lam, omega_i> / d_i, read off
    row i of the Gram matrix."""
    return tuple(sum(g * c for g, c in zip(row, lam.coords)) / d
                 for row, d in zip(datum.gram, datum.symmetrizers))


def lattice_rows(lattice) -> tuple[Weight, ...]:
    """The lattice's canonical basis, its Hermite rows, as weights."""
    return tuple(Weight.over(row, lattice.denominator) for row in lattice.hnf)


def sympy_discriminant_factors(datum, lattice) -> tuple[int, ...]:
    """The invariant factors above 1 of the scaled dual within the span of
    the lattice modulo the lattice: sympy's Smith form of the Fraction
    matrix 2<h_i, h_j>/ell on its Hermite rows, each entry from
    oracle.pairing, which must be integral."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    from uproll.oracle import pairing

    rows = lattice_rows(lattice)
    gram = [[2 * pairing(datum, x, y) / datum.ell for y in rows] for x in rows]
    assert all(x.denominator == 1 for row in gram for x in row)
    if not rows:
        return ()
    ref = smith_normal_form(Matrix([[int(x) for x in row] for row in gram]), domain=ZZ)
    return tuple(s for s in (abs(int(ref[i, i])) for i in range(len(rows))) if s > 1)


def random_weight(rng: random.Random, rank: int, span: int = 6, den: int = 4):
    """A random rational weight with bounded numerators and denominators."""
    return weight(
        [Fraction(rng.randint(-span, span), rng.randint(1, den)) for _ in range(rank)]
    )


def child_env() -> dict:
    """The environment of a child process that imports this source tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_cli(argv, stdin=None, timeout=120, max_mb=1024) -> subprocess.CompletedProcess:
    """Run python with argv (for a request, "-m", "uproll.cli", ...) in a
    child that imports this source tree, with text stdin and captured text
    output.  The child alone gets an address-space cap of max_mb MB, so a
    request that outgrows its budget fails fast instead of swapping."""

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = max_mb * 2**20 if hard == resource.RLIM_INFINITY else min(max_mb * 2**20, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *argv], input=stdin, capture_output=True, text=True, env=child_env(),
        timeout=timeout, preexec_fn=cap if resource else None,
    )
