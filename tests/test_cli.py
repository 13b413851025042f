import ast
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import child_env, run_cli

import uproll
import uproll.oracle
from uproll import AlgebraSpec, build_cartan_datum, twist_exponent, weight
from uproll.cli import run
from uproll.errors import BudgetExceeded, InfiniteCensus


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def walk_rationals(node):
    """Yield every string that encodes a rational in a report document."""
    if isinstance(node, dict):
        for value in node.values():
            yield from walk_rationals(value)
    elif isinstance(node, list):
        for value in node:
            yield from walk_rationals(value)
    elif isinstance(node, str) and not node.startswith("q^"):
        try:
            Fraction(node)
        except ValueError:
            return
        yield node


class TestTriplet:
    def test_documented_invocation(self, capsys):
        code, doc = run_json(capsys, ["triplet", "--series", "A", "--rank", "2", "--r", "2"])
        assert code == 0
        assert doc["order"] == 12
        assert doc["match"] is True
        assert doc["ribbon"] == "ribbon"
        assert doc["invariant_factors"] == [2, 6]
        assert doc["muger"]["trivial"] is True

    def test_non_ade_exits_three(self, capsys):
        assert run(["triplet", "--series", "B", "--rank", "2", "--r", "3"]) == 3

    def test_missing_flags_exit_two(self, capsys):
        assert run(["triplet", "--series", "A"]) == 2


class TestCheckAlgebra:
    def test_negative_verdict_exits_zero(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "A", "rank": 1, "ell": 4, "lattice": [["2"]]},
        )
        code, doc = run_json(capsys, ["check-algebra", "--input", path])
        assert code == 0
        assert doc["commutative"] is False
        assert doc["witnesses"] and doc["witnesses"][0]["value"] == "2"

    def test_super_verdict(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]], "mu": ["2"]},
        )
        code, doc = run_json(capsys, ["check-algebra", "--input", path])
        assert code == 0
        assert doc["supercommutative"] is True

    def test_mu_not_half_odd_exits_two(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]], "mu": ["4"]},
        )
        assert run(["check-algebra", "--input", path]) == 2


class TestCensus:
    def test_generator_outside_lattice_exits_four(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "A", "rank": 1, "ell": 4, "lattice": [["1"]]},
        )
        assert run(["census", "--input", path]) == 4

    def test_non_commutative_exits_five(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "A", "rank": 1, "ell": 4, "lattice": [["2"]]},
        )
        assert run(["census", "--input", path]) == 5

    def test_census_report(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]},
        )
        code, doc = run_json(capsys, ["census", "--input", path])
        assert code == 0
        assert doc["finite"] is True
        assert doc["order"] == 4
        assert doc["reps"] == [["0"], ["1"], ["2"], ["3"]]

    def test_tsv_line_count_equals_order(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]},
        )
        code = run(["census", "--input", path, "--format", "tsv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 4
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_infinite_census_reported(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "A", "rank": 2, "ell": 4, "lattice": [["4", "-2"]]},
        )
        code, doc = run_json(capsys, ["census", "--input", path])
        assert code == 0
        assert doc["finite"] is False
        assert doc["reps"] is None

    def test_dense_infinite_census_ends_at_once(self, tmp_path, capsys):
        # A rank-5 lattice in A6 whose full Smith form once ran for minutes.
        lattice = [
            ["-98", "-56", "-42", "-28", "-56", "0"], ["-84", "-112", "14", "-70", "-98", "70"],
            ["-70", "-28", "-112", "0", "28", "-112"], ["126", "-98", "70", "-42", "-28", "-56"],
            ["-84", "-112", "-42", "-112", "-84", "-98"],
        ]
        doc = {"series": "A", "rank": 6, "ell": 4, "lattice": lattice}
        path = write_doc(tmp_path, "p.json", doc)
        start = time.perf_counter()
        code, doc = run_json(capsys, ["census", "--input", path])
        assert time.perf_counter() - start < 1
        assert code == 0
        assert doc["invariant_factors"] == [14, 98, 98, 98, 34088968368]
        assert doc["complement_dimension"] == 1


# A rank-7 lattice in A8 at ell = 6 whose census Smith form once ran past
# 30 s: a min-pivot elimination grew its entries pass after pass.
DENSE_A8 = {
    "series": "A", "rank": 8, "ell": 6,
    "lattice": [
        ["-162", "54", "-108", "162", "-162", "54", "108", "-108"],
        ["54", "-54", "-162", "108", "-54", "-54", "162", "54"],
        ["162", "-108", "-108", "54", "162", "54", "-108", "108"],
        ["-108", "-162", "162", "162", "162", "108", "108", "-54"],
        ["54", "54", "54", "108", "54", "-162", "54", "-54"],
        ["162", "108", "108", "54", "-108", "-162", "-54", "162"],
        ["54", "-162", "-108", "-108", "-162", "-162", "-108", "108"],
    ],
}


@pytest.mark.parametrize("command,code", [("census", 0), ("twists", 5), ("monodromy", 5)])
def test_dense_rank_deficient_a8_census_ends(command, code):
    # A child process, so that a hang fails the test at the timeout.
    proc = run_cli(["-m", "uproll.cli", command], json.dumps(DENSE_A8), timeout=30)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 0:
        doc = json.loads(proc.stdout)
        assert doc["finite"] is False
        assert doc["invariant_factors"] == [108, 972, 972, 972, 1944, 1944, 3360947580000]
    else:
        assert proc.stdout == ""
        assert "needs a finite census" in proc.stderr


class TestRationalRoundTrip:
    def test_twists_report_round_trips(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]},
        )
        code, doc = run_json(capsys, ["twists", "--input", path])
        assert code == 0
        datum = build_cartan_datum("A", 1, 4)
        for row in doc["twists"]:
            rep = weight(row["rep"])
            assert Fraction(row["exponent"]) == twist_exponent(datum, rep).canonical
        for text in walk_rationals(doc):
            assert str(Fraction(text)) == text

    def test_datum_report_round_trips(self, capsys):
        code, doc = run_json(capsys, ["datum", "--series", "A", "--rank", "2", "--ell", "4"])
        assert code == 0
        assert doc["gram"] == [["2/3", "1/3"], ["1/3", "2/3"]]
        for text in walk_rationals(doc):
            assert str(Fraction(text)) == text


class TestOtherCommands:
    def test_datum_hypothesis_exit_three(self, capsys):
        assert run(["datum", "--series", "A", "--rank", "1", "--ell", "2"]) == 3

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(["census", "--input", str(path)]) == 2

    def test_bad_rational_exits_two(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "A", "rank": 1, "ell": 4, "lattice": [["abc"]]},
        )
        assert run(["census", "--input", str(path)]) == 2

    def test_unknown_series_exits_two(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "Q", "rank": 1, "ell": 4, "lattice": []},
        )
        assert run(["census", "--input", str(path)]) == 2

    def test_stdin_is_the_default_input(self, monkeypatch, capsys):
        import io

        doc = {"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out = run_json(capsys, ["census"])
        assert code == 0 and out["order"] == 4

    def test_monodromy_census_mode(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]},
        )
        code, doc = run_json(capsys, ["monodromy", "--input", path])
        assert code == 0
        # 4 reps give 10 unordered pairs including the diagonal
        assert len(doc["pairs"]) == 10

    def test_monodromy_pairs(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {
                "series": "A", "rank": 1, "ell": 4,
                "pairs": [[["1"], ["1"]], [["1"], ["2"]]],
            },
        )
        code, doc = run_json(capsys, ["monodromy", "--input", path])
        assert code == 0
        assert [p["exponent"] for p in doc["pairs"]] == ["1", "2"]

    def test_ribbon_and_muger(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]},
        )
        code, doc = run_json(capsys, ["ribbon", "--input", path])
        assert code == 0 and doc["verdict"] == "ribbon"
        code, doc = run_json(capsys, ["muger", "--input", path])
        assert code == 0
        assert doc["trivial"] is True and doc["transparent_reps"] == [["0"]]

    def test_bq_report(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "p.json",
            {
                "series": "A", "rank": 1, "ell": 4,
                "ext_weights": [
                    {"qg": ["1"], "fock": ["1"]},
                    {"qg": ["3"], "fock": ["3"]},
                ],
            },
        )
        code, doc = run_json(capsys, ["bq", "--input", path])
        assert code == 0
        assert doc["commutative"] is True
        assert doc["a_squared"] == "-1/2"
        assert [w["local"] for w in doc["weights"]] == [True, True]
        assert doc["pairs"][0]["equivalent"] is True


A1_NON_COMMUTATIVE = {"series": "A", "rank": 1, "ell": 4, "lattice": [["2"]]}


@pytest.mark.parametrize(
    "argv,doc,field",
    [
        (["census"], {"series": "A", "rank": 2.7, "ell": 4, "lattice": []}, "'rank'"),
        (["census"], {"series": "A", "rank": True, "ell": 4, "lattice": []}, "'rank'"),
        (["census"], {"series": "A", "rank": 1, "ell": 1e400, "lattice": []}, "'ell'"),
        (["census"], {"series": "A", "rank": 1, "ell": "4", "lattice": []}, "'ell'"),
        (["census"], {"series": "A", "rank": 1, "ell": 4, "lattice": [["1/0"]]},
         "lattice[0][0]"),
        (["census"], {"series": "A", "rank": 1, "ell": 4, "lattice": [[4.0]]},
         "lattice[0][0]"),
        (["check-algebra"], {**A1_NON_COMMUTATIVE, "mu": [True]}, "mu[0]"),
        (["bq"], {"series": "A", "rank": 1, "ell": 4, "heisenberg": {"a_squared": 0.5}},
         "heisenberg.a_squared"),
    ],
    ids=["rank-float", "rank-bool", "ell-overflow", "ell-string", "zero-denominator",
         "rational-float", "mu-bool", "a-squared-float"],
)
def test_bad_numbers_exit_two_naming_the_field(argv, doc, field, tmp_path, capsys):
    assert_exit_two_naming(argv, doc, field, tmp_path, capsys)


# Strings that Fraction reads as 4 or 10 but the rational grammar
# -?[0-9]+(/[0-9]+)? of ASCII digits refuses.
OFF_GRAMMAR = ["4.0", " 4", "4_0", "1e1", "+4", "\u0664"]
A1_4 = {"series": "A", "rank": 1, "ell": 4}
RATIONAL_FIELDS = {
    "lattice": (["census"], lambda s: {**A1_4, "lattice": [[s]]}, "lattice[0][0]"),
    "mu": (["check-algebra"], lambda s: {**A1_4, "lattice": [["4"]], "mu": [s]}, "mu[0]"),
    "pairs": (["monodromy"], lambda s: {**A1_4, "pairs": [[["2"], [s]]]}, "pairs[0][1][0]"),
    "qg": (["bq"], lambda s: {**A1_4, "ext_weights": [{"qg": [s], "fock": ["0"]}]},
           "ext_weights[0].qg[0]"),
    "fock": (["bq"], lambda s: {**A1_4, "ext_weights": [{"qg": ["2"], "fock": [s]}]},
             "ext_weights[0].fock[0]"),
    "a_squared": (["bq"], lambda s: {**A1_4, "heisenberg": {"a_squared": s}},
                  "heisenberg.a_squared"),
}


@pytest.mark.parametrize("text", OFF_GRAMMAR)
@pytest.mark.parametrize("name", list(RATIONAL_FIELDS))
def test_rationals_off_the_grammar_exit_two_naming_the_field(name, text, tmp_path, capsys):
    argv, doc, field = RATIONAL_FIELDS[name]
    assert_exit_two_naming(argv, doc(text), field, tmp_path, capsys)


def assert_exit_two_naming(argv, doc, field, tmp_path, capsys):
    path = write_doc(tmp_path, "p.json", doc)
    assert run(argv + ["--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err
    assert "Traceback" not in captured.err


def test_internal_error_is_not_reported_as_malformed_input(tmp_path, monkeypatch):
    from uproll import _linalg
    from uproll.errors import InternalError

    path = write_doc(tmp_path, "p.json", {"series": "A", "rank": 1, "ell": 4, "lattice": [["4"]]})
    # Zero coefficients: a singular change of basis.
    monkeypatch.setattr(
        _linalg, "combination_in_rows",
        lambda rows, targets: (1, [[0] * len(rows) for _ in targets]),
    )
    with pytest.raises(InternalError, match="singular change of basis"):
        run(["census", "--input", path])


A1_4 = {"series": "A", "rank": 1, "ell": 4}


@pytest.mark.parametrize(
    "argv,doc,field",
    [
        (["census"], {**A1_4, "lattice": "x"}, "'lattice'"),
        (["census"], {**A1_4, "lattice": {"0": ["4"]}}, "'lattice'"),
        (["check-algebra"], {**A1_4, "lattice": 4}, "'lattice'"),
        (["monodromy"], {**A1_4, "pairs": "x"}, "'pairs'"),
        (["monodromy"], {**A1_4, "pairs": [["1"]]}, "pairs[0]"),
        (["bq"], {**A1_4, "lattice": "x"}, "'lattice'"),
        (["bq"], {**A1_4, "ext_weights": "x"}, "'ext_weights'"),
        (["bq"], {**A1_4, "ext_weights": [["1"]]}, "ext_weights[0]"),
        (["bq"], {**A1_4, "ext_weights": [{"qg": ["1"]}]}, "ext_weights[0]"),
        (["bq"], {**A1_4, "heisenberg": "x"}, "heisenberg"),
        (["bq"], {**A1_4, "heisenberg": {"a": "1"}}, "heisenberg"),
    ],
    ids=["lattice-string", "lattice-object", "lattice-number", "pairs-string",
         "pair-short", "bq-lattice-string", "ext-weights-string", "ext-weight-list",
         "ext-weight-no-fock", "heisenberg-string", "heisenberg-no-a-squared"],
)
def test_bad_structure_exits_two_naming_the_field(argv, doc, field, tmp_path, capsys):
    assert_exit_two_naming(argv, doc, field, tmp_path, capsys)


@pytest.mark.parametrize(
    "argv,key,rest",
    [
        (["census"], "lattice", {}),
        (["monodromy"], "pairs", {"lattice": [["4"]]}),
        (["bq"], "lattice", {}),
        (["bq"], "heisenberg", {}),
        (["bq"], "ext_weights", {}),
    ],
)
def test_null_field_means_absent(argv, key, rest, tmp_path, capsys):
    absent = run_json(capsys, argv + ["--input", write_doc(tmp_path, "a.json", {**A1_4, **rest})])
    null = run_json(
        capsys, argv + ["--input", write_doc(tmp_path, "n.json", {**A1_4, **rest, key: None})]
    )
    assert absent[0] == 0 and null == absent


def test_bq_empty_lattice_is_not_the_default(tmp_path, capsys):
    doc = {**A1_4, "ext_weights": [{"qg": ["1"], "fock": ["1"]}]}
    _, default = run_json(capsys, ["bq", "--input", write_doc(tmp_path, "d.json", doc)])
    _, empty = run_json(
        capsys, ["bq", "--input", write_doc(tmp_path, "e.json", {**doc, "lattice": []})]
    )
    assert default["weights"][0]["local"] is True
    assert empty["weights"][0]["local"] is None


@pytest.mark.parametrize(
    "flags,missing",
    [
        (["--rank", "2", "--ell", "4"], "--series"),
        (["--series", "A", "--rank", "2"], "--ell"),
        (["--series", "A"], "--rank, --ell"),
    ],
)
def test_datum_takes_all_flags_or_none(flags, missing, monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(A1_4)))
    assert run(["datum"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith(missing)


@pytest.mark.parametrize("rest", [{}, {"lattice": [["4"]]}])
def test_empty_pairs_print_an_empty_table(rest, tmp_path, capsys):
    path = write_doc(tmp_path, "p.json", {**A1_4, **rest, "pairs": []})
    assert run_json(capsys, ["monodromy", "--input", path]) == (0, {"pairs": []})


def test_closed_stdout_exits_six_without_traceback(tmp_path):
    # The census monodromy table of 4*Q for A2 at ell = 8 (48 reps, 1176
    # pairs) is about 180 kB, more than a pipe holds, so the CLI is still
    # writing when the reader closes its end after one line.
    path = write_doc(
        tmp_path, "p.json",
        {"series": "A", "rank": 2, "ell": 8, "lattice": [["8", "-4"], ["-4", "8"]]},
    )
    with subprocess.Popen(
        [sys.executable, "-m", "uproll.cli", "monodromy", "--input", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 6
    assert "Traceback" not in err
    assert "stdout was closed" in err


DEEP = "[" * 1200 + "]" * 1200


@pytest.mark.parametrize(
    "command,text,from_file",
    [
        ("census", DEEP, False),
        ("census", DEEP, True),
        ("bq", '{"series": "A", "rank": 2, "ell": 4, "heisenberg": %s}' % DEEP, False),
        ("bq", '{"series": "A", "rank": 2, "ell": 4, "lattice": %s}' % DEEP, True),
    ],
    ids=["census-stdin", "census-input", "bq-heisenberg", "bq-lattice"],
)
def test_deeply_nested_json_exits_two_without_traceback(command, text, from_file, tmp_path):
    # Past about a thousand levels json.load runs out of recursion depth.
    argv = ["-m", "uproll.cli", command]
    if from_file:
        path = tmp_path / "p.json"
        path.write_text(text, encoding="utf-8")
        argv += ["--input", str(path)]
    proc = run_cli(argv, "" if from_file else text, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "nests too deeply" in proc.stderr


def test_rank_past_the_cap_exits_two_at_once(tmp_path, capsys):
    start = time.perf_counter()
    assert run(["datum", "--series", "A", "--rank", str(10**8), "--ell", "6"]) == 2
    path = write_doc(tmp_path, "p.json", {"series": "A", "rank": 10**8, "ell": 6})
    assert run(["census", "--input", path]) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(str(10**8)) == 2


@pytest.mark.parametrize(
    "argv,doc",
    [
        (["triplet", "--series", "E", "--rank", "8", "--r", "30"], None),
        (["census"], {**A1_4, "lattice": [["2000"]]}),
        (["twists", "--format", "tsv"], {**A1_4, "lattice": [["2000"]]}),
        # 484 reps are within the census budget, but not their 117370 pairs
        (["monodromy"], {**A1_4, "lattice": [["44"]]}),
    ],
    ids=["triplet-E8-r30", "census", "twists", "monodromy-table"],
)
def test_oversized_work_exits_seven_at_once(argv, doc, tmp_path, capsys):
    if doc is not None:
        argv = argv + ["--input", write_doc(tmp_path, "p.json", doc)]
    start = time.perf_counter()
    assert run(argv) == 7
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: ")
    assert "Traceback" not in captured.err


def doc_spec(doc):
    """The spec of a problem document, built in the library."""
    datum = build_cartan_datum(doc["series"], doc["rank"], doc["ell"])
    return AlgebraSpec(datum, [weight(row) for row in doc["lattice"]])


@pytest.mark.parametrize(
    "box,doc,triples",
    [
        (8, {"series": "A", "rank": 2, "ell": 6, "lattice": [["6", "-3"], ["-3", "6"]]}, 8_254_129),
        (2, {"series": "A", "rank": 3, "ell": 4, "lattice": [["4", "0", "0"], ["0", "4", "0"], ["0", "0", "4"]]},
         421_875),
        (80, {**A1_4, "lattice": [["4"]]}, 2_434_481),
    ],
    ids=["A2-box-8", "A3-three-generators-box-2", "A1-box-80"],
)
def test_oracle_over_the_triple_budget_exits_seven_within_a_second(box, doc, triples):
    # Each box is within the pair budget; its associativity triples are not.
    # No command reaches the cocycle scan, so the refusal is the library's.
    spec = doc_spec(doc)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        uproll.oracle.brute_cocycle(spec, box)
    assert time.perf_counter() - start < 1
    assert str(info.value) == f"cocycle scan: {triples} associativity triples in box {box}, over the budget of 100000"


def test_oracle_refuses_the_cocycle_scan_before_the_pair_scan(monkeypatch):
    # brute_cocycle builds no table and pairs no weights before its triple budget refuses.
    spec = doc_spec({"series": "A", "rank": 2, "ell": 6, "lattice": [["6", "-3"], ["-3", "6"]]})
    for name in ("structure_constant_table", "pairing"):
        monkeypatch.setattr(uproll.oracle, name, lambda *args, name=name: pytest.fail(f"{name} ran before the refusal"))
    with pytest.raises(BudgetExceeded, match="^cocycle scan: 8254129 associativity triples in box 8,"):
        uproll.oracle.brute_cocycle(spec, 8)


def refusal(argv, doc, tmp_path, capsys) -> str:
    """The stderr of a refused request, which must exit 7 and print nothing.
    A stage that no command reaches is given as a library call instead, with
    the line the CLI prints for its BudgetExceeded."""
    if callable(argv):
        with pytest.raises(BudgetExceeded) as info:
            argv()
        return f"budget exceeded: {info.value}\n"
    if doc is not None:
        argv = argv + ["--input", write_doc(tmp_path, "p.json", doc)]
    assert run(argv) == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


# The A2 lattice 300 Q at ell = 300 has a census of order 67,500 whose coset
# search spans 202,500 combinations; 600 Q at ell = 600 has order 270,000.
A2_300 = {"series": "A", "rank": 2, "ell": 300, "lattice": [["300", "-150"], ["-150", "300"]]}
A2_600 = {"series": "A", "rank": 2, "ell": 600, "lattice": [["600", "-300"], ["-300", "600"]]}


@pytest.mark.parametrize(
    "argv,doc,message",
    [
        (["triplet", "--series", "E", "--rank", "8", "--r", "30"], None,
         "census: 656100000000 representatives"),
        (["check-algebra"], {**A1_4, "ell": 6, "lattice": [["3"]] * 317}, "spec: 100489 pairs of 317 generators"),
        # The library's own stages: a table box, and the oracles' scans.
        (lambda: uproll.structure_constant_table(doc_spec({**A1_4, "lattice": [["4"]]}), 10**9), None,
         "box: 4000000004000000001 coefficient pairs in box 1000000000"),
        (lambda: uproll.oracle.brute_cocycle(doc_spec({"series": "A", "rank": 2, "ell": 6,
                                                       "lattice": [["6", "-3"], ["-3", "6"]]}), 8), None,
         "cocycle scan: 8254129 associativity triples in box 8"),
        (lambda: uproll.oracle.brute_census_order(doc_spec(A2_300)), None, "coset search: 202500 coset combinations"),
        (["monodromy"], {**A1_4, "lattice": [["44"]]}, "monodromy table: 117370 pairs"),
        (["bq"], {**A1_4, "ext_weights": [{"qg": ["1"], "fock": ["1"]}] * 448}, "bq: 100128 pairs of 448 ext_weights"),
    ],
    ids=["census", "spec", "box", "cocycle-scan", "coset-search", "monodromy-table", "bq"],
)
def test_every_refusal_names_its_stage(argv, doc, message, tmp_path, capsys):
    start = time.perf_counter()
    err = refusal(argv, doc, tmp_path, capsys)
    assert time.perf_counter() - start < 2
    assert err == f"budget exceeded: {message}, over the budget of 100000\n"


@pytest.fixture
def default_digit_limit():
    """Python's default limit of 4300 digits on int-to-str conversion, which
    an environment variable or an earlier test may have moved."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "argv,doc,message",
    [
        (["triplet", "--series", "A", "--rank", "8", "--r", str(10**600 + 1)], None,
         "census: about 2^15949 representatives"),
        (lambda: uproll.oracle.Box(10**2200, 1), None, f"box: about 2^14619 coefficient pairs in box {10**2200}"),
        (lambda: uproll.structure_constant_table(doc_spec({**A1_4, "lattice": [["4"]]}), 10**2200), None,
         f"box: about 2^14619 coefficient pairs in box {10**2200}"),
        (["census"], {**A1_4, "ell": 6, "lattice": [[str(3 * 10**2200)]]},
         "census: about 2^14618 representatives"),
    ],
    ids=["triplet-census", "oracle-box", "table-box", "census"],
)
def test_a_size_too_long_to_print_is_refused_with_its_bit_length(
    argv, doc, message, tmp_path, capsys, default_digit_limit
):
    # Each size has more than 4300 digits; printed as a decimal it would
    # raise ValueError and exit 2 as malformed input.
    start = time.perf_counter()
    err = refusal(argv, doc, tmp_path, capsys)
    assert time.perf_counter() - start < 3
    assert err == f"budget exceeded: {message}, over the budget of 100000\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit on integer digits")
@pytest.mark.parametrize("digits,shown", [(0, str(10**700)), (640, "about 2^2326")])
def test_a_refusal_prints_its_size_at_any_digit_limit(digits, shown):
    from uproll.errors import check_budget

    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        with pytest.raises(BudgetExceeded) as info:
            check_budget("census", 10**700, "representatives", 100_000)
    finally:
        sys.set_int_max_str_digits(saved)
    assert str(info.value) == f"census: {shown} representatives, over the budget of 100000"


# a = 3 (10^2200 + 1) has 2201 digits, and the values printed from it, the
# factor 2 (a/3)^2 of the A2 census and the witness <g, g> = a^2 / 2 on A1,
# have 4401: past the default limit, they print in full.
HUGE_ENTRY = 3 * (10**2200 + 1)
A2_HUGE = {"series": "A", "rank": 2, "ell": 6, "lattice": [[str(HUGE_ENTRY), "0"]]}
A1_HUGE = {"series": "A", "rank": 1, "ell": 6, "lattice": [[str(HUGE_ENTRY)]]}


@pytest.mark.parametrize(
    "command,doc,code,report,message",
    [
        ("census", A2_HUGE, 0, {"finite": False, "order": None, "invariant_factors": [2 * (HUGE_ENTRY // 3) ** 2],
                                "complement_dimension": 1, "reps": None}, None),
        ("check-algebra", A1_HUGE, 0,
         {"commutative": False, "witnesses": [{"kind": "diagonal", "i": 0, "j": 0,
                                               "value": Fraction(HUGE_ENTRY**2, 2)}]}, None),
        ("census", A1_HUGE, 5, None,
         "spec does not meet the command's precondition: commutativity check fails: diagonal witness (0, 0) "
         "has value {}, and 0 more witnesses fail\n".format),
    ],
    ids=["census-factor", "check-algebra-witness", "census-witness-message"],
)
def test_values_past_the_digit_limit_print_in_full(
    command, doc, code, report, message, tmp_path, capsys, default_digit_limit
):
    start = time.perf_counter()
    assert run([command, "--input", write_doc(tmp_path, "p.json", doc)]) == code
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    # The limit holds again once the report is out.
    assert not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 4300
    with uproll.errors.all_digits():
        if report is not None:
            assert captured.err == ""
            assert captured.out == json.dumps(report, indent=2, default=str) + "\n"
        else:
            assert captured.out == ""
            assert captured.err == message(Fraction(HUGE_ENTRY**2, 2))


def test_a_report_past_the_digit_limit_exits_zero_in_a_child():
    # The interpreter's default limit, with no test fixture in between.
    env = {key: value for key, value in child_env().items() if key != "PYTHONINTMAXSTRDIGITS"}
    proc = subprocess.run([sys.executable, "-m", "uproll.cli", "census"], input=json.dumps(A2_HUGE),
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    factor = proc.stdout.splitlines()[4].strip()
    assert len(factor) == 4401 and factor.startswith("2") and factor.endswith("2")


def budget_refusals(source: str) -> list[int]:
    """The lines of the source that build a BudgetExceeded, by a call or by
    raising the class itself."""
    def named(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "BudgetExceeded"

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and named(node.func) or isinstance(node, ast.Raise) and named(node.exc)
    ]


def test_only_the_errors_module_builds_budget_exceeded():
    # The walk finds calls and bare raises, and not imports, handlers or text.
    snippet = (
        '"""raise BudgetExceeded("x")"""\n'
        "raise BudgetExceeded(f'{size} pairs')\n"
        "raise errors.BudgetExceeded\n"
        "from .errors import BudgetExceeded\n"
        "try:\n    pass\nexcept BudgetExceeded as exc:\n    pass\n"
    )
    assert sorted(budget_refusals(snippet)) == [2, 3]
    src = Path(uproll.__file__).parent
    builders = {}
    for path in sorted(src.glob("*.py")):
        if lines := budget_refusals(path.read_text(encoding="utf-8")):
            builders[path.name] = lines
    assert set(builders) == {"errors.py"}, builders


@pytest.mark.parametrize(
    "doc,message",
    [(A2_300, "coset search: 202500 coset combinations"), (A2_600, "census: 270000 representatives")],
    ids=["coset-search", "census"],
)
def test_oracle_checks_every_budget_before_it_scans(doc, message, monkeypatch):
    # brute_census_order refuses its census, and then its coset search, before a coset is reduced.
    monkeypatch.setattr(uproll.oracle, "coset_reduce", lambda *args: pytest.fail("a coset was reduced"))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        uproll.oracle.brute_census_order(doc_spec(doc))
    assert time.perf_counter() - start < 2
    assert str(info.value) == f"{message}, over the budget of 100000"


def test_oracle_on_no_generators_takes_any_box_at_once():
    # The box of dimension 0 holds one vector and one triple, whatever its bound.
    spec = doc_spec({**A1_4, "lattice": []})
    start = time.perf_counter()
    assert uproll.oracle.brute_commutativity(spec, 10**12)
    assert uproll.oracle.brute_cocycle(spec, 10**12)
    assert time.perf_counter() - start < 1
    with pytest.raises(InfiniteCensus):
        uproll.oracle.brute_census_order(spec)


@pytest.mark.parametrize(
    "command,doc,code",
    [
        # k generators, mu included, make k**2 pairs; at ell = 6 each fails
        # commutativity, so 316 of them print about 100000 witnesses.
        ("check-algebra", {**A1_4, "ell": 6, "lattice": [["3"]] * 316}, 0),
        ("check-algebra", {**A1_4, "ell": 6, "lattice": [["3"]] * 317}, 7),
        ("census", {**A1_4, "lattice": [["4"]] * 315, "mu": ["2"]}, 0),
        ("census", {**A1_4, "lattice": [["4"]] * 316, "mu": ["2"]}, 7),
        ("bq", {**A1_4, "lattice": [["4"]] * 317}, 7),
        # 448 weights make 100128 pairs, 447 make 99681.
        ("bq", {**A1_4, "ext_weights": [{"qg": ["1"], "fock": ["1"]}] * 448}, 7),
    ],
    ids=["316-generators", "317-generators", "315-generators-and-mu", "316-generators-and-mu",
         "bq-317-generators", "bq-448-weights"],
)
def test_requests_quadratic_in_their_input_stay_within_the_table_budget(command, doc, code):
    start = time.perf_counter()
    proc = run_cli(["-m", "uproll.cli", command], json.dumps(doc), timeout=30, max_mb=512)
    assert time.perf_counter() - start < 3
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 7:
        assert proc.stdout == ""
        assert proc.stderr.startswith("budget exceeded: ")


def large_integer_census(rank, rows, digits):
    """A census request on A_rank at ell = 4 whose entries are 4 (rank + 1) y
    for signed random integers y of the given digit count (seed 5); every
    such spec is valid."""
    rng = random.Random(5)
    lattice = [[str(4 * (rank + 1) * rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10 ** digits))
                for _ in range(rank)] for _ in range(rows)]
    return {"series": "A", "rank": rank, "ell": 4, "lattice": lattice}


@pytest.mark.parametrize(
    "rank,rows,digits,code",
    [(16, 16, 10, 7), (16, 16, 100, 7), (32, 32, 10, 7), (32, 32, 100, 7), (16, 15, 30, 0),
     (16, 15, 100, 0), (32, 31, 30, 0)],
    ids=["A16-10-digits", "A16-100-digits", "A32-10-digits", "A32-100-digits", "A16-15-rows-30-digits",
         "A16-15-rows-100-digits", "A32-31-rows-30-digits"],
)
def test_census_on_large_integers_ends_within_a_time_bound(rank, rows, digits, code):
    # Full rank is refused over budget after the dual and the change of
    # basis, which once took 4 to more than 30 s on these entries; one row
    # short gives an infinite census, whose factors come from the Smith
    # form of the lattice's discriminant matrix (about 5 s on A32 by way of
    # the dual).
    start = time.perf_counter()
    proc = run_cli(["-m", "uproll.cli", "census"], json.dumps(large_integer_census(rank, rows, digits)), timeout=30)
    assert time.perf_counter() - start < 3
    assert proc.returncode == code, proc.stderr
    if code == 7:
        assert proc.stdout == ""
        assert proc.stderr.startswith("budget exceeded: census: ")
    else:
        doc = json.loads(proc.stdout)
        assert doc["finite"] is False and doc["complement_dimension"] == 1


def test_bq_twist_and_monodromy_are_taken_at_minus_one_over_r(tmp_path, capsys):
    # bq_twist_exponent and bq_monodromy_exponent read the datum only, so
    # another a**2 changes the verdicts but not a single exponent.
    doc = {
        "series": "A", "rank": 2, "ell": 4,
        "ext_weights": [{"qg": ["1", "1"], "fock": ["0", "1"]},
                        {"qg": ["2", "0"], "fock": ["2", "0"]}],
    }
    _, special = run_json(capsys, ["bq", "--input", write_doc(tmp_path, "s.json", doc)])
    other = {**doc, "heisenberg": {"a_squared": "1/3"}}
    _, shifted = run_json(capsys, ["bq", "--input", write_doc(tmp_path, "o.json", other)])
    assert (special["a_squared"], shifted["a_squared"]) == ("-1/2", "1/3")
    for report in (special, shifted):
        assert [w["twist"]["exponent"] for w in report["weights"]] == ["4/3", "0"]
        assert [p["monodromy"]["exponent"] for p in report["pairs"]] == ["8/3"]
    assert [w["twist"] for w in special["weights"]] == [w["twist"] for w in shifted["weights"]]
    assert [p["monodromy"] for p in special["pairs"]] == [p["monodromy"] for p in shifted["pairs"]]
    assert (special["commutative"], shifted["commutative"]) == (True, False)
    assert [w["local"] for w in special["weights"]] == [False, True]
    assert special["weights"][1]["transparent"] is True
    assert all(w["local"] is None and w["transparent"] is None for w in shifted["weights"])
    assert shifted["pairs"][0]["equivalent"] is None
