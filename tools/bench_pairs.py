#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarized as BENCH_<PR>.json.

    python3 tools/bench_pairs.py --parent <commit> --pr <N> --pairs 10 --workloads cocycle-box

Each side is a clean ``git archive`` copy: the parent commit, and the change
(a commit, or ``worktree`` for the tracked and staged files of the working
tree).  Pair i runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

on both copies, with T the run_seconds of BENCHMARK.json, the parent first
on even i and the change first on odd i, and S taken in turn from --seeds.
For each workload and end-to-end metric of BENCHMARK.json the file holds
each side's median and quartiles, the pairs the change won (ties count for
neither), the bound, and a verdict:

- gain: at least ten pairs ran, the change won at least nine tenths of
  them, the medians differ by more than the parent's interquartile range
  (in a run of six pairs of one commit against itself, one metric read as
  a gain), and the change failed no larger share of its operations;
- regression: the change's median is worse than the parent's by more than
  the bound;
- unresolved: the parent's own interquartile range, over its median, is
  wider than the bound, unless every change run beat every parent run;
- within bound: every other case.

The file also records one ``--seconds 1 --trace 1`` run of each workload per
side (exit code, answers, span-guard messages and per-pass layer metrics)
and the line count of ``src/uproll`` on each side.  An existing output file
whose two sides have the same ``src`` and ``perfbench`` trees keeps the
workloads this call does not run, so they can be measured in separate calls.

The exit code is 0 when every run the file holds exited 0, answered every
operation correctly and printed no span-guard line; otherwise the file is
still written, each such run is named on stderr, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
MIN_GAIN_PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def resolve(rev: str) -> dict:
    """The commit to archive for rev, and the trees of what a run reads
    (``src`` and ``perfbench``); ``worktree`` stands for the tracked and
    staged files as they are now."""
    if rev == "worktree":
        rev = git("stash", "create") or "HEAD"
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    return {"commit": commit, "measured": {path: git("rev-parse", f"{commit}:{path}") for path in ("src", "perfbench")}}


def export(commit: str, dest: Path) -> Path:
    """A clean copy of the commit's files at dest."""
    dest.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def source_lines(copy: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted((copy / "src" / "uproll").glob("*.py")))


def parse_result(stdout: str) -> dict:
    """The JSON result on the last line of a run.py stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    return json.loads(lines[-1])


def run_once(copy: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py run in the copy: its exit code, result and span-guard lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=copy, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    result = parse_result(proc.stdout)
    guard = [line for line in proc.stderr.splitlines() if line.startswith("span guard")]
    return {"exit": proc.returncode, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "span_guard": guard,
            "metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: dict, change: dict, wins: int, pairs: int, bound: float, lower_is_better: bool,
            *, beats_every_run: bool, fails_more: bool) -> str:
    """gain, regression, unresolved or within bound, as the module docstring
    defines them; beats_every_run says every change run beat every parent
    run, and fails_more that the change failed a larger share of operations."""
    sign = 1 if lower_is_better else -1
    gap = sign * (parent["median"] - change["median"])  # positive when the change is better
    if (pairs >= MIN_GAIN_PAIRS and wins >= math.ceil(0.9 * pairs) and gap > parent["q3"] - parent["q1"]
            and not fails_more):
        return "gain"
    base = abs(parent["median"])
    if base and -gap / base > bound:
        return "regression"
    if base and (parent["q3"] - parent["q1"]) / base > bound and not beats_every_run:
        return "unresolved"
    return "within bound"


def failures(runs: list[dict], side: str) -> dict:
    return {"failed": sum(r[side]["failed"] for r in runs), "attempted": sum(r[side]["attempted"] for r in runs)}


def bad_runs(doc: dict) -> list[str]:
    """One line for each run in doc that exited non-zero, answered wrongly
    or printed a span-guard line, naming the run and what went wrong."""
    named = [(f"{workload} pair {i + 1} seed {pair['seed']} {side}", pair[side])
             for workload, entry in doc["workloads"].items()
             for i, pair in enumerate(entry["runs"]) for side in ("parent", "change")]
    named += [(f"{workload} traced {side}", run) for workload, sides in doc["trace"].items()
              for side, run in sides.items()]
    out = []
    for name, run in named:
        problems = list(run["span_guard"])
        if not run["correct"]:
            problems.insert(0, f"{run['failed']} of {run['attempted']} answers wrong")
        if run["exit"]:
            problems.insert(0, f"exit {run['exit']}")
        if problems:
            out.append(f"{name}: {'; '.join(problems)}")
    return out


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's spread, the pair wins, the bound,
    the median's relative change and the verdict.  runs holds one entry
    per pair, {"parent": run, "change": run} with each run as run_once
    returns it."""
    share = {side: (f["failed"] / f["attempted"] if f["attempted"] else 0.0)
             for side, f in ((side, failures(runs, side)) for side in ("parent", "change"))}
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name]) for r in runs]
        parents, changes = [p for p, _ in pairs], [c for _, c in pairs]
        parent, change = spread(parents), spread(changes)
        wins = sum(c < p if lower else c > p for p, c in pairs)
        beats = max(changes) < min(parents) if lower else min(changes) > max(parents)
        out[name] = {
            "unit": spec["unit"], "parent": parent, "change": change, "wins": wins, "pairs": len(pairs),
            "bound": spec["bound"],
            "relative_change": (change["median"] - parent["median"]) / parent["median"] if parent["median"] else None,
            "verdict": verdict(parent, change, wins, len(pairs), spec["bound"], lower,
                               beats_every_run=beats, fails_more=share["change"] > share["parent"]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--change", default="worktree", help="the change: a commit, or worktree (default)")
    parser.add_argument("--pr", required=True, help="the number in BENCH_<PR>.json")
    parser.add_argument("--workloads", nargs="+", default=None, help="default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--workdir", default=None, help="where the copies go (default: a new temporary directory)")
    parser.add_argument("--out", default=None, help="default: BENCH_<PR>.json at the repository root")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    out_path = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    sides = {"parent": resolve(args.parent), "change": resolve(args.change)}
    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    copies = {side: export(rev["commit"], work / f"{side}-{rev['commit'][:12]}") for side, rev in sides.items()}

    doc = {}
    if out_path.exists():
        doc = json.loads(out_path.read_text())
        if any(doc.get(side, {}).get("measured") != rev["measured"] for side, rev in sides.items()):
            doc = {}
    doc.update({side: {**rev, "src_uproll_lines": source_lines(copies[side])} for side, rev in sides.items()})
    doc.update({"pr": args.pr, "seconds": seconds,
                "machine": {"python": platform.python_version(), "cpus": os.cpu_count()}})
    doc.setdefault("workloads", {})
    doc.setdefault("trace", {})

    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(copies[side], workload, seed, seconds, 0)
            runs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                  + ", ".join(f"{side} wall_s {pair[side]['metrics']['wall_s']:.6g}" for side in sides),
                  file=sys.stderr)
        doc["workloads"][workload] = {"pairs": len(runs), "seeds": sorted({r["seed"] for r in runs}),
                                      "failed": {side: failures(runs, side) for side in sides},
                                      "metrics": None, "runs": runs}
        doc["trace"][workload] = {side: run_once(copies[side], workload, 1, 1, 1) for side in sides}
        # Kept workloads are summarized again, so every verdict follows the rules above.
        for entry in doc["workloads"].values():
            entry["metrics"] = summarize(entry["runs"], bench["end_to_end"])
        out_path.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["metrics"].items():
            rel = "" if m["relative_change"] is None else f" ({m['relative_change']:+.1%})"
            print(f"{workload:15} {name:12} {m['parent']['median']:.6g} -> {m['change']['median']:.6g}"
                  f"{rel}, won {m['wins']}/{m['pairs']}: {m['verdict']}")
    bad = bad_runs(doc)
    for line in bad:
        print(f"bad run: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
