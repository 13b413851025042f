"""The four workloads: seeded input generation and the timed operations.

Inputs are plain data (strings, ints and lists), so every library object,
from the Cartan datum on, is built by the program inside an operation.
Each ``run_*`` function takes the program handle and one input item,
times each library call it makes with the program's clock (``speed.py``),
and returns a small hashable summary of the answer that ``answers.py``
checks after the timed loop.  Digests stay small on purpose, so that stored
answers do not inflate the measured peak memory.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Callable


# ---------------------------------------------------------------------------
# Root-system data, kept here so inputs and known answers do not come from
# the library under test.  Conventions match uproll.cartan: Bourbaki node
# order, a_ij = <alpha_i, alpha_j> / d_i, short roots of squared length 2.

def cartan(series: str, rank: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix and symmetrizers of a finite simple type."""
    n = rank
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    d = [1] * n
    if series == "B":
        a[n - 1][n - 2] = -2
        d = [2] * (n - 1) + [1]
    elif series == "C":
        a[n - 2][n - 1] = -2
        d = [1] * (n - 1) + [2]
    elif series == "D":
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    elif series == "E":
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3), (5, 6), (6, 7)][: n - 1]:
            a[i][j] = a[j][i] = -1
    elif series == "F":
        a[2][1] = -2
        d = [2, 2, 1, 1]
    elif series == "G":
        a = [[2, -3], [-1, 2]]
        d = [1, 3]
    return a, d


_DET = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2, "D": lambda n: 4,
        "E": lambda n: 9 - n, "F": lambda n: 1, "G": lambda n: 1}

TYPES = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def r_of(ell: int) -> int:
    """r of the datum; r*Q is commutative inside the simple-current lattice."""
    return ell if ell % 2 else ell // 2


def valid_ells(series: str, rank: int) -> list[int]:
    """Orders 3..16 meeting the datum hypothesis r > max gcd(d_i, r)."""
    _, d = cartan(series, rank)
    return [ell for ell in range(3, 17) if r_of(ell) > max(gcd(x, r_of(ell)) for x in d)]


def roots(series: str, rank: int) -> list[list[int]]:
    """Simple roots in fundamental-weight coordinates (columns of A)."""
    a, _ = cartan(series, rank)
    return [[a[k][j] for k in range(rank)] for j in range(rank)]


def _census_order(series: str, rank: int, ell: int) -> int:
    """Order of the local-module census of r*Q."""
    det = _DET[series](rank)
    if ell % 2 == 0:
        return det * r_of(ell) ** rank
    _, d = cartan(series, rank)
    prod_d = 1
    for x in d:
        prod_d *= x
    return (2 * ell) ** rank * prod_d * det


# (series, rank, ell, order) with the census of r*Q no larger than 128.
FINITE_MENU = [
    (s, n, ell, _census_order(s, n, ell))
    for s, n in TYPES
    for ell in valid_ells(s, n)
    if _census_order(s, n, ell) <= 128
]

# Supercommutative (series, rank, ell, mu/r coefficients over the simple
# roots): L = rQ and mu = (r/2) * sum of the marked roots.
SUPER_MENU = [
    ("A", 1, 4, (1,)), ("A", 1, 12, (1,)), ("A", 3, 6, (1, 0, 1)),
    ("A", 3, 10, (1, 0, 1)), ("B", 2, 6, (1, 0)), ("B", 2, 10, (1, 0)),
    ("B", 2, 14, (1, 0)), ("C", 2, 6, (0, 1)), ("C", 2, 10, (0, 1)),
    ("C", 2, 14, (0, 1)), ("C", 3, 6, (0, 0, 1)), ("D", 4, 6, (0, 0, 1, 1)),
]

BQ_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 2), ("G", 2), ("D", 4)]


def _s(x) -> str:
    return str(Fraction(x))


def _row(values) -> list[str]:
    return [_s(v) for v in values]


def _combine(rng: random.Random, basis: list[list[int]], lo: int, hi: int) -> list[int]:
    """A nonzero integer combination of the basis rows."""
    while True:
        coeffs = [rng.randint(lo, hi) for _ in basis]
        if any(coeffs):
            return [sum(c * row[k] for c, row in zip(coeffs, basis)) for k in range(len(basis[0]))]


def _unimodular(rng: random.Random, rows: list[list[int]], steps: int = 3) -> list[list[int]]:
    """Same lattice, another basis: a few seeded elementary row operations."""
    rows = [list(r) for r in rows]
    for _ in range(steps if len(rows) > 1 else 0):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return rows


def _spec(cls, series, rank, ell, lattice, mu=None) -> dict:
    return {"kind": "alg", "cls": cls, "series": series, "rank": rank, "ell": ell,
            "lattice": [_row(r) for r in lattice], "mu": _row(mu) if mu is not None else None}


def finite_spec(rng: random.Random, max_order: int = 128, entry=None, double=None) -> dict:
    """Commutative full-rank spec: a seeded basis of r*Q, or of an index-2
    sublattice (census four times larger) when ``double`` holds."""
    s, n, ell, order = entry or rng.choice([m for m in FINITE_MENU if m[3] <= max_order])
    k = r_of(ell)
    rows = [[k * c for c in a] for a in roots(s, n)]
    if double is None:
        double = 4 * order <= max_order and rng.random() < 0.5
    if double:
        i = rng.randrange(n)
        rows[i] = [2 * c for c in rows[i]]
    return _spec("finite", s, n, ell, _unimodular(rng, rows))


def super_spec(rng: random.Random, entry=None) -> dict:
    s, n, ell, marks = entry or rng.choice(SUPER_MENU)
    r = ell // 2
    rts = roots(s, n)
    rows = [[r * c for c in a] for a in rts]
    mu = [Fraction(r, 2) * sum(m * a[k] for m, a in zip(marks, rts)) for k in range(n)]
    return _spec("super", s, n, ell, _unimodular(rng, rows), mu)


def deficient_spec(rng: random.Random, entry=None, count=None) -> dict:
    """Commutative spec of lower rank than the datum: infinite census."""
    s, n = entry or rng.choice([t for t in TYPES if t[1] >= 3])
    ell = rng.choice(valid_ells(s, n))
    k = r_of(ell)
    basis = [[k * c for c in a] for a in roots(s, n)]
    count = min(count or rng.randint(1, 3), n - 1)
    rows = [_combine(rng, basis, -1, 1) for _ in range(count)]
    return _spec("deficient", s, n, ell, rows)


def random_spec(rng: random.Random, entry=None) -> dict:
    """Generators drawn from (ell/2)P, one to three, below full rank."""
    s, n = entry or rng.choice([t for t in TYPES if t[1] >= 2])
    ell = rng.choice(valid_ells(s, n))
    half = Fraction(ell, 2)
    rows = []
    for _ in range(rng.randint(1, min(3, n - 1))):
        vec = [0] * n
        while not any(vec):
            vec = [rng.randint(-1, 1) for _ in range(n)]
        rows.append([half * c for c in vec])
    return _spec("random", s, n, ell, rows)


def outside_spec(rng: random.Random, entry=None) -> dict:
    """A random spec with one coordinate moved off (ell/2)Z."""
    item = random_spec(rng, entry)
    row = item["lattice"][rng.randrange(len(item["lattice"]))]
    c = rng.randrange(len(row))
    row[c] = _s(Fraction(row[c]) + 1)
    item["cls"] = "outside"
    return item


def bq_item(rng: random.Random, entry=None) -> dict:
    """Four current-Fock weights over the r*P extension: two local, one in
    the unit orbit, one shifted by a fundamental weight."""
    s, n = entry or rng.choice(BQ_TYPES)
    ell = rng.choice([e for e in valid_ells(s, n) if e % 2 == 0])
    r = ell // 2
    rts = roots(s, n)
    weights = []
    for _ in range(2):
        qg = [rng.randint(-3, 3) for _ in range(n)]
        shift = _combine(rng, rts, -1, 1)
        weights.append((qg, [a - b for a, b in zip(qg, shift)]))
    unit = [r * rng.randint(-1, 1) for _ in range(n)]
    weights.append((unit, list(unit)))
    qg = [rng.randint(-3, 3) for _ in range(n)]
    j = rng.randrange(n)
    weights.append((qg, [c + (i == j) for i, c in enumerate(qg)]))
    return {"kind": "bq", "series": s, "rank": n, "ell": ell,
            "weights": [{"qg": _row(q), "fock": _row(f)} for q, f in weights]}


# ---------------------------------------------------------------------------
# triplet-census

TRIPLET_CASES = (("E", 6, 3), ("E", 7, 3), ("A", 4, 5), ("D", 4, 3), ("E", 8, 2))


def triplet_generate(seed: int) -> list[dict]:
    cases = list(TRIPLET_CASES)
    random.Random(seed).shuffle(cases)
    return [{"series": s, "rank": n, "r": r} for s, n, r in cases]


def _wstr(w) -> str:
    return ",".join(str(c) for c in w.coords)


def triplet_run(p, item):
    u = p.uproll
    t0 = p.clock.start()
    rep = u.triplet_report(item["series"], item["rank"], item["r"])
    p.clock.stop(t0)
    local = rep.report
    unit = local.twists.get(u.Weight.zero(rep.rank))
    return (
        local.census.order, rep.expected_order, rep.match, rep.commutative.commutative,
        local.ribbon.status, tuple(_wstr(w) for w in local.muger.transparent_reps),
        None if unit is None else str(unit.canonical), len(local.twists),
    )


# ---------------------------------------------------------------------------
# spec-stream

def spec_generate(seed: int) -> list[dict]:
    """Every menu entry and every type, in fixed numbers per class, so the
    cost of a pass stays steady across seeds; the seed draws the bases,
    orders ell, generator counts, weights and the stream order."""
    rng = random.Random(seed)
    items = []
    for entry in FINITE_MENU:
        items.append(finite_spec(rng, entry=entry, double=False))
        if 4 * entry[3] <= 128:
            items.append(finite_spec(rng, entry=entry, double=True))
    items += [super_spec(rng, entry) for entry in SUPER_MENU * 2]
    deep = [t for t in TYPES if t[1] >= 3]
    items += [deficient_spec(rng, t, 1 + i % 3) for i, t in enumerate(deep * 2)]
    wide = [t for t in TYPES if t[1] >= 2]
    items += [random_spec(rng, t) for t in wide]
    items += [outside_spec(rng, t) for t in wide]
    items += [bq_item(rng, t) for t in BQ_TYPES * 4]
    rng.shuffle(items)
    return items


def spec_warmup(items: list[dict]) -> dict:
    """The finite spec with the smallest census: r*Q for A1 at ell = 4."""
    return next(i for i in items if i.get("cls") == "finite" and i["rank"] == 1
                and i["ell"] == 4 and i["lattice"] == [["4"]])


def _alg_run(p, item):
    u = p.uproll
    t0 = p.clock.start()
    datum = u.build_cartan_datum(item["series"], item["rank"], item["ell"])
    gens = [u.weight(row) for row in item["lattice"]]
    mu = u.weight(item["mu"]) if item["mu"] is not None else None
    try:
        spec = u.AlgebraSpec(datum, gens, mu)
    except u.errors.NotInSimpleCurrentLattice:
        p.clock.stop(t0)
        return ("outside",)
    if not u.spec_verdict(spec):
        p.clock.stop(t0)
        return ("invalid",)
    census = u.simple_census(spec)
    ribbon = u.check_ribbon(spec).status
    if not census.finite:
        p.clock.stop(t0)
        return ("infinite", census.complement_dimension, ribbon)
    twists = [u.twist_exponent(datum, rep) for rep in census.reps]
    muger = u.muger_center(spec)
    p.clock.stop(t0)
    unit = twists[census.reps.index(u.Weight.zero(datum.rank))]
    return ("finite", census.order, len(twists), str(unit.canonical), ribbon,
                  tuple(_wstr(w) for w in muger.transparent_reps))


def _bq_run(p, item):
    u = p.uproll
    t0 = p.clock.start()
    datum = u.build_cartan_datum(item["series"], item["rank"], item["ell"])
    spec = u.BqSpec(datum)
    ws = [u.ExtWeight(u.weight(w["qg"]), u.weight(w["fock"])) for w in item["weights"]]
    commutative = u.bq_check_commutative(spec)
    rows = []
    for w in ws:
        local = u.bq_is_local(spec, w)
        rows.append((u.bq_twist_exponent(datum, w), local,
                     u.bq_transparent(spec, w) if local else None))
    pairs = []
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            both = rows[i][1] and rows[j][1]
            pairs.append((u.bq_monodromy_exponent(datum, ws[i], ws[j]),
                          u.bq_equivalent(spec, ws[i], ws[j]) if both else None))
    p.clock.stop(t0)
    return ("bq", commutative,
                  tuple((str(e.canonical), loc, tr) for e, loc, tr in rows),
                  tuple((str(e.canonical), eq) for e, eq in pairs))


def spec_run(p, item):
    return (_bq_run if item["kind"] == "bq" else _alg_run)(p, item)


# ---------------------------------------------------------------------------
# cocycle-box

def cocycle_generate(seed: int) -> list[dict]:
    """A2 (ell 6, generators 3*alpha_i) at box 3 and 4, and the A1 (ell 4)
    superalgebra spec at box 2, each with a seeded gauge cochain."""
    rng = random.Random(seed)
    a2 = [[3 * c for c in a] for a in roots("A", 2)]
    cases = [("A", 2, 6, a2, None, 3), ("A", 2, 6, a2, None, 4),
             ("A", 1, 4, [[4]], [2], 2)]
    items = []
    for s, n, ell, gens, mu, box in cases:
        dims = len(gens) + (mu is not None)
        span = range(-2 * box, 2 * box + 1)
        phi = [(vec, rng.randrange(ell) if any(vec) else 0) for vec in product(span, repeat=dims)]
        items.append({"series": s, "rank": n, "ell": ell, "lattice": [_row(g) for g in gens],
                      "mu": _row(mu) if mu is not None else None, "box": box, "phi": phi,
                      "perturb_seed": rng.randrange(1 << 30)})
    return items


def cocycle_spec(u, item):
    datum = u.build_cartan_datum(item["series"], item["rank"], item["ell"])
    mu = u.weight(item["mu"]) if item["mu"] is not None else None
    return datum, u.AlgebraSpec(datum, [u.weight(g) for g in item["lattice"]], mu)


def table_digest(entries) -> int:
    """Order-free hash of a table's canonical exponents (ints and Fractions
    hash the same in every process)."""
    return hash(frozenset((key, e.canonical) for key, e in entries.items()))


def cocycle_run(p, item):
    u = p.uproll
    datum, spec = cocycle_spec(u, item)
    phi = {vec: u.exponent(val, item["ell"]) for vec, val in item["phi"]}
    clock = p.clock
    t0 = clock.start()
    table = u.structure_constant_table(spec, item["box"])
    clock.stop(t0)
    t0 = clock.start()
    verdict = u.cocycle_check(table, datum)
    clock.stop(t0)
    t0 = clock.start()
    twisted = u.apply_coboundary(table, phi)
    clock.stop(t0)
    t0 = clock.start()
    gauge = u.gauge_normalize(twisted, spec)
    clock.stop(t0)
    normalized = gauge.normalized.entries
    round_trip = all(table.entries[key] == e for key, e in normalized.items())
    return (verdict.valid, verdict.commutative, round_trip, len(normalized),
                 table_digest(table.entries))


# ---------------------------------------------------------------------------
# cli-mix

def _doc(item: dict) -> dict:
    doc = {"series": item["series"], "rank": item["rank"], "ell": item["ell"]}
    if "lattice" in item:
        doc["lattice"] = item["lattice"]
        if item.get("mu") is not None:
            doc["mu"] = item["mu"]
    if item.get("kind") == "bq":
        doc["ext_weights"] = item["weights"]
    return doc


def _request(cmd, argv, item=None, stdin=None, exit_code=0) -> dict:
    if stdin is None:
        stdin = json.dumps(_doc(item)) if item is not None else ""
    return {"cmd": cmd, "argv": argv, "stdin": stdin, "item": item, "exit": exit_code}


def _spread(xs: list, k: int = 4) -> list:
    """k entries spread evenly over a list, from its first to its last."""
    return [xs[round(i * (len(xs) - 1) / (k - 1))] for i in range(k)]


def cli_generate(seed: int) -> list[dict]:
    """Per pass: four requests to each of eight report subcommands, eight
    requests that must fail with exit 2, 3, 4 or 5, and three triplets.
    Report requests use fixed types and menu entries, spread over the
    census sizes, so the cost of a pass stays steady across seeds; the seed
    draws bases, orders ell, weights and the request order."""
    rng = random.Random(seed)
    by_order = sorted(FINITE_MENU, key=lambda m: m[3])
    small = _spread([m for m in by_order if m[3] <= 32])
    tiny = _spread([m for m in by_order if m[3] <= 16])
    types, supers, bqs = _spread(TYPES), _spread(SUPER_MENU), _spread(BQ_TYPES)
    wide = _spread([t for t in TYPES if t[1] >= 2])
    reqs = []
    for i in range(4):
        s, n = types[i]
        ell = rng.choice(valid_ells(s, n))
        reqs.append(_request("datum", ["datum", "--series", s, "--rank", str(n), "--ell", str(ell)],
                             {"series": s, "rank": n, "ell": ell}, stdin=""))
        algebra = (finite_spec(rng, entry=small[i], double=False), super_spec(rng, supers[i]),
                   random_spec(rng, wide[i]))[i % 3]
        reqs.append(_request("check-algebra", ["check-algebra"], algebra))
        reqs.append(_request("census", ["census", "--format", "tsv"],
                             finite_spec(rng, entry=small[i], double=False)))
        reqs.append(_request("twists", ["twists"], finite_spec(rng, entry=small[i], double=False)))
        reqs.append(_request("monodromy", ["monodromy"], finite_spec(rng, entry=tiny[i], double=False)))
        ribbon = super_spec(rng, supers[i]) if i % 2 else finite_spec(rng, entry=small[i], double=False)
        reqs.append(_request("ribbon", ["ribbon"], ribbon))
        reqs.append(_request("muger", ["muger"], finite_spec(rng, entry=small[i], double=False)))
        reqs.append(_request("bq", ["bq"], bq_item(rng, bqs[i])))
    r = rng.choice((3, 5, 7))
    non_commutative = {"series": "A", "rank": 1, "ell": 2 * r, "lattice": [[str(r)]]}
    reqs += [
        _request("bad", ["census"], stdin="{\"series\": ", exit_code=2),
        _request("bad", ["datum", "--series", "X", "--rank", "2", "--ell", "6"], stdin="", exit_code=2),
        _request("bad", ["ribbon"], {"series": "A", "rank": 2, "ell": 2, "lattice": []}, exit_code=3),
        _request("bad", ["triplet", "--series", rng.choice("BCFG"), "--rank", "2", "--r", "3"],
                 stdin="", exit_code=3),
        _request("bad", ["census"], outside_spec(rng), exit_code=4),
        _request("bad", ["check-algebra"], outside_spec(rng), exit_code=4),
        _request("bad", ["census"], non_commutative, exit_code=5),
        _request("bad", ["muger"], deficient_spec(rng), exit_code=5),
    ]
    for s, n, r in (("A", 2, 2), ("D", 4, 3), ("E", 6, 3)):
        reqs.append(_request("triplet", ["triplet", "--series", s, "--rank", str(n), "--r", str(r)],
                             {"series": s, "rank": n, "r": r}, stdin=""))
    rng.shuffle(reqs)
    return reqs


def cli_run(p, item):
    t0 = p.clock.start()
    if p.cli is not None:
        code, out = p.cli_inprocess(item["argv"], item["stdin"])
        p.clock.stop(t0)
        return code, out
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "uproll.cli", *item["argv"]], input=item["stdin"],
            capture_output=True, text=True, env=p.env, cwd=p.root, timeout=120,
        )
    except subprocess.TimeoutExpired:
        p.clock.stop(t0, elsewhere=True)
        return "timeout", ""
    p.clock.stop(t0, elsewhere=True)
    return proc.returncode, proc.stdout


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], list]
    run: Callable
    warmup: Callable[[list], dict]
    # Scaled seconds (speed.py) one pass takes.  A run makes
    # round(--seconds / pass_s) passes, or more where the tail percentile
    # needs them, so the sample count is fixed by the arguments.  At
    # --seconds 15 the tail percentile then falls inside the samples of one
    # operation, not between two: the middle of the two heaviest specs on
    # spec-stream (10 passes), the median cocycle_check at box 3 on
    # cocycle-box (7 passes).
    pass_s: float
    children: bool = False
    ops: int = 1  # timed library calls per input item


WORKLOADS = {
    w.name: w
    for w in (
        Workload("triplet-census", triplet_generate, triplet_run,
                 lambda items: next(i for i in items if i["series"] == "D"), 5.4),
        Workload("spec-stream", spec_generate, spec_run,
                 spec_warmup, 1.5),
        Workload("cocycle-box", cocycle_generate, cocycle_run,
                 lambda items: next(i for i in items if i["mu"] is not None), 2.2, ops=4),
        Workload("cli-mix", cli_generate, cli_run,
                 lambda items: next(i for i in items if i["cmd"] == "datum"), 5.2, children=True),
    )
}
