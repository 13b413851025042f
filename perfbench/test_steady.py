"""Steadiness of the benchmark itself.

Two sets of runs of the same code, on the same seeds, must agree within
the bounds that BENCHMARK.json fixes: in each set the quartile spread of
every end-to-end metric but ``setup_s`` stays within its bound, and the
second set's median is no worse than the first's by more than the bound.

The spreads are taken over ten seeds, as in the acceptance rule for the
benchmark, so each workload takes about nine minutes and the test runs
only on request, one workload at a time if wanted:

    python3 -m pytest perfbench/test_steady.py -k spec-stream
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = tuple(range(101, 111))


def run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_two_sets_agree(workload):
    first = [run(workload, seed) for seed in SEEDS]
    second = [run(workload, seed) for seed in SEEDS]
    for metric in BENCH["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = statistics.median(r[name] for r in first)
        b = statistics.median(r[name] for r in second)
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        assert worse <= bound, f"{workload} {name}: second median {b:.6g} vs first {a:.6g}"
        if name != "setup_s":
            for runs in (first, second):
                s = spread([r[name] for r in runs])
                assert s <= bound, f"{workload} {name}: quartile spread {s:.3f} > {bound}"
