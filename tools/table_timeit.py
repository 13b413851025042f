#!/usr/bin/env python3
"""In-process timings of the cocycle-table operations.

    python3 tools/table_timeit.py

It imports ``uproll`` from the ``src`` directory next to it, so a ``git
archive`` copy of another commit times that commit's code.  Each figure is
the best of 5 repeats of 20 calls, in milliseconds per call:

- each timed operation of the benchmark's ``cocycle-box`` seed-1 items
  (``structure_constant_table``, ``cocycle_check``, ``apply_coboundary``,
  ``gauge_normalize``), on the items of ``perfbench/workloads.py``, and
  their sum per pass;
- ``cocycle_check`` on two A2 (ell 6, generators 3 alpha_i) box-4 tables
  built from dicts: the normal form twisted by a fractional cochain
  (denominators 1-4, zero at 0), and the normal form with
  e((1, 0), (0, 1)) raised by 1;
- the lookups ``table.entries[key]`` of the ``cocycle-box`` round trip,
  one per entry of the normalized A2 box-4 table (3721), in one call.
"""

from __future__ import annotations

import random
import sys
import timeit
from fractions import Fraction
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import uproll as u  # noqa: E402
from workloads import cocycle_generate, cocycle_spec  # noqa: E402


def best_ms(call) -> float:
    return min(timeit.repeat(call, number=20, repeat=5)) / 20 * 1e3


def show(label: str, ms: float) -> None:
    print(f"{label:<58} {ms:8.3f} ms")


def main() -> None:
    total = 0.0
    for item in cocycle_generate(1):
        datum, spec = cocycle_spec(u, item)
        phi = {vec: u.exponent(val, item["ell"]) for vec, val in item["phi"]}
        box = item["box"]
        table = u.structure_constant_table(spec, box)
        twisted = u.apply_coboundary(table, phi)
        name = f"{item['series']}{item['rank']}{'+mu' if item['mu'] else ''} box {box}"
        for op, call in (
            ("structure_constant_table", lambda: u.structure_constant_table(spec, box)),
            ("cocycle_check", lambda: u.cocycle_check(table, datum)),
            ("apply_coboundary", lambda: u.apply_coboundary(table, phi)),
            ("gauge_normalize", lambda: u.gauge_normalize(twisted, spec)),
        ):
            ms = best_ms(call)
            total += ms
            show(f"cocycle-box seed 1  {name:<12} {op}", ms)
    show("cocycle-box seed 1  one pass, summed", total)

    datum = u.build_cartan_datum("A", 2, 6)
    spec = u.AlgebraSpec(datum, [3 * datum.simple_root(0), 3 * datum.simple_root(1)])
    table = u.structure_constant_table(spec, 4)
    rng = random.Random(37)
    phi = {vec: u.exponent(Fraction(rng.randrange(-24, 24), rng.randint(1, 4)) if any(vec) else 0, 6)
           for vec in product(range(-8, 9), repeat=2)}
    twisted = u.CocycleTable(table.generators, 4, 6, dict(u.apply_coboundary(table, phi).entries))
    key = ((1, 0), (0, 1))
    perturbed = u.CocycleTable(table.generators, 4, 6, {**table.entries, key: table.entries[key] + u.exponent(1, 6)})
    for name, other in (("twisted", twisted), ("perturbed", perturbed)):
        show(f"A2 box 4 dict table {name:<12} cocycle_check", best_ms(lambda: u.cocycle_check(other, datum)))

    entries = table.entries
    keys = list(u.gauge_normalize(table, spec).normalized.entries)
    show(f"A2 box 4 round trip  {len(keys)} lookups", best_ms(lambda: [entries[k] for k in keys]))


if __name__ == "__main__":
    main()
