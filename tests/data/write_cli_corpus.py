"""Write or check the CLI byte-contract corpus, cli_corpus.json.

The corpus is every request that perfbench.workloads.cli_generate makes
for seeds 1-6, plus two large reports, each with its argv, stdin, exit
code and the sha256 of its stdout, all run in process through
uproll.cli.run.  tests/test_cli_corpus.py replays it without importing
perfbench; this script is the only reader of the generator, which it
leaves as it is.

    python3 tests/data/write_cli_corpus.py          # rewrite the corpus
    python3 tests/data/write_cli_corpus.py --check  # exit 1 when the committed
                                                    # argv/stdin differ from
                                                    # the generator's

Rewriting records the stdout digests of the checked-out uproll, so run it
only for a deliberate, recorded change of the CLI's output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CORPUS = HERE / "cli_corpus.json"
SEEDS = range(1, 7)

# Reports too large for the benchmark's passes: the E8 r = 4 triplet and
# the twists of the 99856-representative census of A1 at ell = 99856.
LARGE = [
    {"name": "large-triplet-E8-r4",
     "argv": ["triplet", "--series", "E", "--rank", "8", "--r", "4"], "stdin": ""},
    {"name": "large-twists-A1-99856",
     "argv": ["twists"],
     "stdin": json.dumps({"series": "A", "rank": 1, "ell": 99856, "lattice": [["99856"]]})},
]


def requests() -> list[dict]:
    """Every request of the corpus, named, with its argv and stdin."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import cli_generate

    out = []
    for seed in SEEDS:
        for i, req in enumerate(cli_generate(seed)):
            name = f"seed{seed}-{i:02d}-{req['cmd']}"
            out.append({"name": name, "argv": req["argv"], "stdin": req["stdin"]})
    return out + LARGE


def run_in_process(argv: list[str], stdin: str) -> tuple[int, str]:
    """The exit code and stdout of uproll.cli.run on argv, reading stdin."""
    from uproll import cli

    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def write() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    entries = []
    for req in requests():
        code, text = run_in_process(req["argv"], req["stdin"])
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        entries.append({**req, "exit": code, "sha256": digest})
    # One request a line, so that a diff names the requests that moved.
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"wrote {len(entries)} requests to {CORPUS}")


def check() -> int:
    committed = [{key: e[key] for key in ("name", "argv", "stdin")}
                 for e in json.loads(CORPUS.read_text())]
    expected = requests()
    if committed == expected:
        print(f"{CORPUS.name}: {len(expected)} requests match the generator")
        return 0
    for have, want in zip(committed, expected):
        if have != want:
            print(f"{CORPUS.name}: {have['name']} differs from the generator's {want['name']}")
            break
    else:
        print(f"{CORPUS.name}: {len(committed)} requests, the generator makes {len(expected)}")
    return 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    write()
