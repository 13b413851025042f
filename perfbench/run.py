#!/usr/bin/env python3
"""Benchmark of the uproll library and CLI.

One run measures one workload in a single closed-loop client:

    python3 perfbench/run.py --workload spec-stream --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  Without ``--workload`` every workload runs in turn, each
in its own process, and the last line merges their results.  The exit
code is 1 when any operation fails its known-answer check or when the
traced run misses a span it must record, and 2 when the checkout holds
no ``src/uproll``.  Times of operations and set-ups are scaled to the
reference speed of the host (``speed.py``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from speed import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 11
TAIL_BEYOND = 10
IMPORT_RUNS = 3


def fresh_import():
    """Import uproll as a new process would, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "uproll" or n.startswith("uproll.")]:
        del sys.modules[name]
    return importlib.import_module("uproll")


class Program:
    """The program under test, as the workloads reach it.

    ``cli`` is None for CLI requests made as ``python -m uproll.cli``
    child processes; the traced run sets it to the imported module and
    calls ``cli.run`` in process, so that library spans are seen.
    ``clock`` times the operations; it records nothing until the timed
    loop replaces it.
    """

    def __init__(self):
        self.clock = Clock(probing=False)
        self.uproll = fresh_import()
        self.root = str(ROOT)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.cli = None
        self.stdout_bytes = 0

    def cli_inprocess(self, argv, stdin_text):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.run(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            sys.stdin = saved
        text = out.getvalue()
        self.stdout_bytes += len(text.encode())
        return code, text


def run_passes(wl, program, inputs, passes, results):
    """Closed loop over the input set; returns the scaled per-pass times
    and operation latencies, and the measured median pass time."""
    bounds = []
    with Clock() as clock:
        program.clock = clock
        for _ in range(passes):
            first = len(clock.spans)
            for item in inputs:
                done = len(clock.spans)
                t0 = clock.start()
                try:
                    digest = wl.run(program, item)
                except Exception:  # an undocumented exception fails the operation
                    traceback.print_exc(file=sys.stderr)
                    digest = None
                    if len(clock.spans) == done:
                        clock.stop(t0)
                results.append((item, len(clock.spans) - done, digest))
            bounds.append((first, len(clock.spans)))
    lats, raw = clock.scaled(), clock.measured()
    walls = [sum(lats[a:b]) for a, b in bounds]
    return walls, lats, statistics.median(sum(raw[a:b]) for a, b in bounds)


def tail(samples):
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    xs = sorted(samples)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_seconds(program) -> float:
    """Median time for a fresh interpreter to import uproll.cli."""
    code = "import time; t = time.perf_counter(); import uproll.cli; print(time.perf_counter() - t)"
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=program.env, cwd=ROOT, timeout=60, check=True).stdout)
        for _ in range(IMPORT_RUNS)
    )


def check(wl, program, results) -> tuple[int, int]:
    from answers import Known

    known = Known(program.uproll)
    attempted = failed = 0
    for item, ops, digest in results:
        attempted += ops
        try:
            ok = digest is not None and known.check(wl.name, item, digest)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            failed += ops
            print(f"FAILED {wl.name} {json.dumps(item, default=str)[:300]} -> {str(digest)[:300]}",
                  file=sys.stderr)
    return attempted, failed


def measure(wl, seed: int, seconds: float, trace: bool) -> int:
    if wl.children:
        # Child processes inherit this, so they run on the CPU whose speed
        # the probes in this process measure.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with Clock() as setups:
        for _ in range(SETUPS):
            t0 = setups.start()
            program = Program()
            inputs = wl.generate(seed)
            wl.run(program, wl.warmup(inputs))
            setups.stop(t0)
    setup, setup_raw = setups.scaled(), setups.measured()
    # The pass count depends on the arguments only, and is large enough
    # for the tail percentile to have TAIL_BEYOND samples beyond it.
    per_pass = len(inputs) * wl.ops
    passes = max(math.ceil((TAIL_BEYOND + 1) / per_pass), round(seconds / wl.pass_s))
    results = []
    missing = []
    if not trace:
        walls, lats, raw_wall = run_passes(wl, program, inputs, passes, results)
        peak = peak_rss_mb(wl.children)
        value, pct = tail(lats)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_ms": (1e3 * statistics.median(lats), "ms"),
            "op_tail_ms": (1e3 * value, "ms"),
            "peak_rss_mb": (peak, "MB"),
        }
        note = (f"op_tail_ms is p{pct:.1f} of {len(lats)} samples over {passes} passes; "
                f"measured, unscaled: setup_s {statistics.median(setup_raw):.6g}, "
                f"wall_s {raw_wall:.6g}")
    else:
        from spans import Tracer

        if wl.children:
            program.cli = importlib.import_module("uproll.cli")
        half = max(1, passes // 2)
        plain, _, _ = run_passes(wl, program, inputs, half, results)
        tracer = Tracer()
        tracer.install()
        program.stdout_bytes = 0
        traced, _, _ = run_passes(wl, program, inputs, half, results)
        metrics = tracer.metrics(half)
        missing = tracer.missing(wl.name)
        cli_import = import_seconds(program) if wl.children else 0.0
        metrics["cli.import_s"] = (cli_import, "s")
        metrics["cli.stdout_bytes"] = (program.stdout_bytes / half, "bytes")
        if wl.children and not (cli_import > 0 and program.stdout_bytes > 0):
            missing.append("cli.import_s/cli.stdout_bytes")
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = (overhead, "s")
        note = (f"tracing overhead {overhead:+.4f} s per pass "
                f"({100 * overhead / statistics.median(plain):+.2f}% of untraced wall_s)")
    attempted, failed = check(wl, program, results)
    if missing:
        print(f"span guard: no call recorded on {wl.name} for: {', '.join(missing)}", file=sys.stderr)
    print(f"{wl.name} seed {seed}: {'traced ' if trace else ''}{passes if not trace else 2 * half} passes, "
          f"failed_frac {failed / attempted:.6g} ({failed}/{attempted}); {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 and not missing else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="target measuring time; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "uproll" / "__init__.py").is_file():
        print(f"no uproll sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
