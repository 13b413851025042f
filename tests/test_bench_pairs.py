"""tools/bench_pairs.py: the summary and verdicts of alternating parent/change
pairs, on synthetic perfbench/run.py output.  No benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
NAMES = [m["name"] for m in END_TO_END]


def run_stdout(values: dict, failed: int = 0) -> str:
    """What run.py --trace 0 prints: a summary line, one line per metric and
    the JSON result last."""
    lines = ["cocycle-box seed 1: 7 passes, failed_frac 0 (0/84); op_tail_ms is p88.1 of 84 samples"]
    lines += [f"  {name} = {value:.6g} s" for name, value in values.items()]
    lines.append(json.dumps({"correct": not failed, "attempted": 84, "failed": failed,
                             "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}))
    return "\n".join(lines) + "\n"


def as_run(stdout: str) -> dict:
    result = bench_pairs.parse_result(stdout)
    return {"failed": result["failed"], "attempted": result["attempted"],
            "metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}


def pairs(parent_walls, change_walls, other=1.0, change_failed=0):
    """Runs whose wall_s follows the two lists, every other metric fixed;
    each change run fails change_failed operations."""
    runs = []
    for p, c in zip(parent_walls, change_walls):
        runs.append({side: as_run(run_stdout({name: wall if name == "wall_s" else other for name in NAMES},
                                             failed))
                     for side, wall, failed in (("parent", p, 0), ("change", c, change_failed))})
    return runs


PARENT = [4.80, 4.90, 4.85, 4.95, 4.79, 4.88, 4.92, 4.83, 4.87, 4.91]


def test_parse_result_reads_the_last_line():
    result = bench_pairs.parse_result(run_stdout({"wall_s": 0.5}))
    assert result["metrics"]["wall_s"]["value"] == 0.5 and result["attempted"] == 84
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n")


def test_spread_gives_median_and_inclusive_quartiles():
    assert bench_pairs.spread([1, 2, 3, 4, 5]) == {"median": 3, "q1": 2, "q3": 4}
    assert bench_pairs.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_a_change_that_wins_every_pair_by_more_than_the_spread_is_a_gain():
    summary = bench_pairs.summarize(pairs(PARENT, [3.1 + i / 100 for i in range(10)]), END_TO_END)
    wall = summary["wall_s"]
    assert wall["wins"] == 10 and wall["pairs"] == 10 and wall["bound"] == 0.25
    assert wall["verdict"] == "gain"
    assert wall["relative_change"] == pytest.approx((3.145 - 4.875) / 4.875)
    # The other metrics are equal in every pair: ties count for neither side.
    assert summary["op_p50_ms"]["wins"] == 0 and summary["op_p50_ms"]["verdict"] == "within bound"


def test_eight_wins_of_ten_are_no_gain():
    change = [3.0] * 8 + [5.5, 5.6]
    wall = bench_pairs.summarize(pairs(PARENT, change), END_TO_END)["wall_s"]
    assert wall["wins"] == 8 and wall["verdict"] == "within bound"


def test_nine_wins_inside_the_parents_spread_are_no_gain():
    parent = [4.8, 5.2] * 5  # quartiles 4.8 and 5.2
    change = [p - 0.1 for p in parent[:9]] + [5.3]
    wall = bench_pairs.summarize(pairs(parent, change), END_TO_END)["wall_s"]
    assert wall["wins"] == 9 and wall["verdict"] == "within bound"


def test_fewer_than_ten_pairs_are_no_gain():
    wall = bench_pairs.summarize(pairs(PARENT[:9], [3.0] * 9), END_TO_END)["wall_s"]
    assert wall["wins"] == 9 and wall["verdict"] == "within bound"


def test_a_change_worse_than_the_bound_is_a_regression():
    wall = bench_pairs.summarize(pairs(PARENT, [p * 1.3 for p in PARENT]), END_TO_END)["wall_s"]
    assert wall["wins"] == 0 and wall["verdict"] == "regression"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [2.0, 6.0, 2.0, 6.0, 2.0, 6.0, 2.0, 6.0, 2.0, 6.0]  # IQR 4 over median 4
    wall = bench_pairs.summarize(pairs(parent, [p * 1.1 for p in parent]), END_TO_END)["wall_s"]
    assert wall["verdict"] == "unresolved"


def test_a_change_that_fails_more_operations_is_no_gain():
    change = [3.1 + i / 100 for i in range(10)]
    wall = bench_pairs.summarize(pairs(PARENT, change, change_failed=1), END_TO_END)["wall_s"]
    assert wall["wins"] == 10 and wall["verdict"] == "within bound"
    # Failing no more than the parent keeps the gain.
    runs = pairs(PARENT, change, change_failed=1)
    for run in runs:
        run["parent"]["failed"] = 1
    assert bench_pairs.summarize(runs, END_TO_END)["wall_s"]["verdict"] == "gain"


def test_a_wide_parent_spread_beaten_by_every_change_run_is_resolved():
    parent = [2.0, 6.0, 2.0, 6.0, 2.0, 6.0, 2.0, 6.0, 2.0, 6.0]  # IQR 4 over median 4
    change = [1.9 - i / 100 for i in range(10)]  # below every parent run, gap 2.1 < IQR
    wall = bench_pairs.summarize(pairs(parent, change), END_TO_END)["wall_s"]
    assert wall["wins"] == 10 and wall["verdict"] == "within bound"
    # One change run at the parent's best keeps the verdict unresolved.
    wall = bench_pairs.summarize(pairs(parent, change[:9] + [2.0]), END_TO_END)["wall_s"]
    assert wall["verdict"] == "unresolved"
    spec = [{"name": "wall_s", "unit": "ops/s", "better": "higher", "bound": 0.25}]
    wall = bench_pairs.summarize(pairs(parent, [6.1 + i / 100 for i in range(10)]), spec)["wall_s"]
    assert wall["verdict"] == "within bound"
    wall = bench_pairs.summarize(pairs(parent, [6.0] + [6.1] * 9), spec)["wall_s"]
    assert wall["verdict"] == "unresolved"


def test_higher_is_better_metrics_win_upwards():
    spec = [{"name": "wall_s", "unit": "ops/s", "better": "higher", "bound": 0.25}]
    wall = bench_pairs.summarize(pairs(PARENT, [p * 1.5 for p in PARENT]), spec)["wall_s"]
    assert wall["wins"] == 10 and wall["verdict"] == "gain"
    wall = bench_pairs.summarize(pairs(PARENT, [p * 0.5 for p in PARENT]), spec)["wall_s"]
    assert wall["wins"] == 0 and wall["verdict"] == "regression"


def test_failures_are_counted_against_the_attempts():
    runs = pairs(PARENT[:2], PARENT[:2])
    runs[1]["change"] = as_run(run_stdout({name: 1.0 for name in NAMES}, failed=3))
    assert bench_pairs.failures(runs, "change") == {"failed": 3, "attempted": 168}
    assert bench_pairs.failures(runs, "parent") == {"failed": 0, "attempted": 168}


def test_source_lines_count_the_package_modules(tmp_path):
    package = tmp_path / "src" / "uproll"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not counted\n")
    assert bench_pairs.source_lines(tmp_path) == 3


def fake_run(exit=0, failed=0, guard=()):
    """A run as run_once returns it."""
    return {"exit": exit, "correct": not failed, "attempted": 84, "failed": failed, "span_guard": list(guard),
            "metrics": {name: 1.0 for name in NAMES}}


def run_main(monkeypatch, tmp_path, runs):
    """main on one cocycle-box pair with no git and no benchmark: run_once
    hands out the given runs in call order (the pair, then the traced run
    of each side), and the file goes to tmp_path."""
    calls = iter(runs)
    monkeypatch.setattr(bench_pairs, "resolve", lambda rev: {"commit": rev * 12, "measured": {}})
    monkeypatch.setattr(bench_pairs, "export", lambda commit, dest: dest)
    monkeypatch.setattr(bench_pairs, "source_lines", lambda copy: 0)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: next(calls))
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", "p", "--change", "c", "--pr", "t", "--pairs", "1",
                             "--workloads", "cocycle-box", "--workdir", str(tmp_path), "--out", str(out)])
    return code, json.loads(out.read_text())


def test_clean_runs_exit_zero(monkeypatch, tmp_path, capsys):
    code, doc = run_main(monkeypatch, tmp_path, [fake_run() for _ in range(4)])
    assert code == 0 and doc["workloads"]["cocycle-box"]["pairs"] == 1
    assert "bad run" not in capsys.readouterr().err


def test_a_failed_wrong_or_guarded_run_is_named_and_exits_one(monkeypatch, tmp_path, capsys):
    runs = [fake_run(), fake_run(exit=1, failed=2), fake_run(guard=["span guard: linalg.det_int made no call"]),
            fake_run()]
    code, doc = run_main(monkeypatch, tmp_path, runs)
    assert code == 1
    # The file is written all the same.
    assert doc["workloads"]["cocycle-box"]["runs"][0]["change"]["exit"] == 1
    bad = [line for line in capsys.readouterr().err.splitlines() if line.startswith("bad run: ")]
    assert bad == ["bad run: cocycle-box pair 1 seed 1 change: exit 1; 2 of 84 answers wrong",
                   "bad run: cocycle-box traced parent: span guard: linalg.det_int made no call"]
