"""Random command lines and problem documents against the CLI exit-code contract.

Every invocation must end in a documented exit code (0, 2-7) with no
exception escaping cli.run; an argparse rejection counts as its exit 2.
Sizes stay small so that the whole property runs in a few seconds, with
a few huge integers mixed in to reach the rank cap and the budgets.
"""

import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uproll import build_cartan_datum
from uproll.cli import run

EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}
HUGE = 10**40

junk = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.floats(),
        st.integers(-HUGE, HUGE),
        st.text(max_size=4),
        st.sampled_from(["1/0", "p/q", "3/", "1e400", "--1", " 2", "4/2", "0x10"]),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


# Coordinates outside (ell/2)Z, fractions, HUGE (which reaches the census
# budget) and strings Fraction reads but the rational grammar refuses; most
# coordinates are drawn as small multiples of ell/2.
COORDINATES = [1, 3, "1/2", "3/2", "-3", HUGE, "4.0", " 2", "1_0"]
TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("G", 2)]
BAD_TYPES = [("X", 1), ("A", 0), ("A", 10**8), ("D", 2), ("E", 3), ("G", 3)]


def document(rnd: random.Random) -> dict:
    """A problem document with well-typed fields, mostly of a valid type
    at a valid order, whose values may still be invalid: unknown types,
    ranks past the cap, orders below 3, rows outside the simple-current
    lattice, dependent or odd generators."""
    series, rank = rnd.choice(TYPES if rnd.random() < 0.85 else BAD_TYPES)
    size = rank if 0 < rank <= 3 else rnd.randint(1, 3)
    ell = rnd.choice([3, 4, 5, 6, 8, 12] if rnd.random() < 0.9 else [2, -4, 0])

    def coordinate():
        if rnd.random() < 0.1:
            return rnd.choice(COORDINATES)
        return str(Fraction(ell * rnd.randint(-2, 3), 2))

    def row():
        return [coordinate() for _ in range(size)]

    def rows(k):
        return [row() for _ in range(rnd.randint(0, k))]

    doc = {
        "series": series,
        "rank": rank,
        "ell": ell,
        "lattice": rows(3),
        "mu": row(),
        "pairs": [[row(), row()] for _ in range(rnd.randint(0, 2))],
        "ext_weights": [{"qg": row(), "fock": row()} for _ in range(rnd.randint(0, 3))],
        "heisenberg": {"a_squared": rnd.choice([coordinate(), "-1/2", "-1/3"])},
    }
    # an odd generator is rarely half-odd, so it comes less often
    keep = ["series", "rank", "ell"] + [
        key for key in list(doc)[3:] if rnd.random() < (0.2 if key == "mu" else 0.5)
    ]
    if rnd.random() < 0.05:
        keep.remove(rnd.choice(keep))
    return {key: doc[key] for key in keep}


FIELDS = ["series", "rank", "ell", "lattice", "mu", "pairs", "ext_weights", "heisenberg"]
BROKEN_TEXT = ["", "{", "[]", "nul", '{"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]']


@st.composite
def stdin_text(draw, rnd):
    """Mostly a document from document(); otherwise a document with some
    fields replaced by values of any JSON type, any JSON value, or text
    that is not JSON."""
    kind = rnd.random()
    if kind < 0.8:
        return json.dumps(document(rnd))
    if kind < 0.93:
        doc = document(rnd)
        for key in rnd.sample(FIELDS, rnd.randint(1, 3)):
            doc[key] = draw(junk)
        return json.dumps(doc)
    if kind < 0.97:
        return json.dumps(draw(junk))
    return rnd.choice(BROKEN_TEXT)


FLAG_VALUES = {
    "--format": ["json", "tsv", "xml"],
    # No subcommand reads --box.
    "--box": ["-1", "0", "1", "1", "1", str(10**9), "two"],
    "--series": ["A", "D", "E", "E", "B", "X", "e"],
    "--rank": ["-1", "0", "1", "2", "4", "6", "8", str(10**8), "x"],
    "--ell": ["-1", "2", "3", "4", "6", str(10**6)],
    "--r": ["-1", "0", "1", "2", "2", "2", str(10**6)],
    "--input": ["/nonexistent/uproll-problem.json"],
}
# The flags each subcommand reads; others are drawn now and then as well.
OWN_FLAGS = {
    "census": ["--format"],
    "twists": ["--format"],
    "datum": ["--series", "--rank", "--ell"],
    "triplet": ["--series", "--rank", "--r"],
}
COMMANDS = ["datum", "check-algebra", "census", "twists", "monodromy", "ribbon", "muger",
            "triplet", "bq"]


def command_line(rnd: random.Random) -> list[str]:
    cmd = rnd.choice(COMMANDS) if rnd.random() < 0.97 else "nonsense"
    names = [name for name in OWN_FLAGS.get(cmd, []) if rnd.random() < 0.95]
    if rnd.random() < 0.05:
        names.append(rnd.choice(sorted(FLAG_VALUES)))
    argv = [cmd]
    for name in names:
        argv += [name, rnd.choice(FLAG_VALUES[name])]
    return argv


def invoke(argv, text) -> int:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return run(argv)
            except SystemExit as exc:  # argparse rejects the command line
                return exc.code
    finally:
        sys.stdin = saved


@st.composite
def invocation(draw):
    rnd = random.Random(draw(st.integers(0, 2**32)))
    return command_line(rnd), draw(stdin_text(rnd))


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=invocation())
def test_every_invocation_ends_in_a_documented_exit_code(case):
    assert invoke(*case) in EXIT_CODES


# Dense lattices of rank below the datum's: the census is infinite, and its
# Smith form once ran for minutes on such a lattice of rank 5 in A6.  The
# rows are ell*N times integers up to 9, N the Gram denominator, so they
# lie in the simple-current lattice and pair into ell*Z; no entry is zero.
DENSE_TYPES = [("A", 4), ("A", 5), ("A", 6), ("D", 5), ("D", 6), ("E", 6)]
DENSE_COMMANDS = ["census", "twists", "monodromy", "ribbon", "muger", "check-algebra"]


@st.composite
def dense_deficient_invocation(draw):
    series, rank = draw(st.sampled_from(DENSE_TYPES))
    ell = draw(st.sampled_from([3, 4, 5, 6, 8]))
    scale = ell * build_cartan_datum(series, rank, ell).gram_denominator
    k = rank - draw(st.integers(1, 2))
    rows = draw(st.lists(
        st.lists(st.integers(-9, 9).filter(bool), min_size=rank, max_size=rank),
        min_size=k, max_size=k,
    ))
    doc = {"series": series, "rank": rank, "ell": ell,
           "lattice": [[str(scale * c) for c in row] for row in rows]}
    return [draw(st.sampled_from(DENSE_COMMANDS))], json.dumps(doc)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=dense_deficient_invocation())
def test_dense_rank_deficient_lattices_end_promptly(case):
    start = time.perf_counter()
    assert invoke(*case) in EXIT_CODES
    assert time.perf_counter() - start < 2.0, case
