"""The CLI byte contract on a corpus of requests: tests/data/cli_corpus.json.

Each entry is one request (argv and stdin) with the exit code and the
sha256 of the stdout it must give.  They are the 258 requests that the
benchmark's cli-mix workload makes for seeds 1-6, plus the E8 r = 4
triplet and the twists of a 99856-representative census; all run in
process through cli.run.  A change that moves any byte of a report, or
any exit code, fails here.  tests/data/write_cli_corpus.py wrote the
corpus and checks that it still matches the benchmark's generator.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from uproll import cli

CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json").read_text())


def test_the_corpus_covers_every_exit_code_and_subcommand():
    assert len(CORPUS) == 260
    assert {e["exit"] for e in CORPUS} == {0, 2, 3, 4, 5}
    commands = {e["argv"][0] for e in CORPUS if e["exit"] == 0}
    assert commands == {"datum", "check-algebra", "census", "twists", "monodromy",
                        "ribbon", "muger", "bq", "triplet"}


@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_request_keeps_its_exit_code_and_stdout(entry, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(entry["stdin"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(entry["argv"])
        except SystemExit as exc:
            code = exc.code
    assert code == entry["exit"]
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == entry["sha256"]
