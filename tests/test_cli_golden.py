"""Byte-level guard on the CLI: one or more valid invocations per subcommand.

Each digest is the sha256 of the stdout that the CLI printed for the
invocation before the unread `free_rank` census key was dropped, with that
one line removed; the two `muger-*` digests were taken when transparency
was still found by the pairwise scan, and the `census-json`, `twists-*` and
`triplet-*` digests were retaken when the census representatives became
the Hermite-box ones, Sum c_i D_i over the dual's HNF rows with
0 <= c_i < H_ii.  A refactor that changes any other byte of a report fails
here.
"""

import hashlib
import io
import json

import pytest

from uproll.cli import run

A1_4 = {"series": "A", "rank": 1, "ell": 4}
A2_4 = {"series": "A", "rank": 2, "ell": 4}
A2_4_DOUBLED_ROOTS = {**A2_4, "lattice": [["4", "-2"], ["-2", "4"]]}
A2_6_TRIPLED_ROOTS = {"series": "A", "rank": 2, "ell": 6, "lattice": [["6", "-3"], ["-3", "6"]]}
A1_4_SUPER = {**A1_4, "lattice": [["4"]], "mu": ["2"]}

CASES = {
    "datum-flags": (
        ["datum", "--series", "B", "--rank", "3", "--ell", "8"], None,
        "b3fee8c1b687c2ddac5f40ef40f148ea58f887b33b18c24a59bbabc3470f91bf",
    ),
    "datum-stdin": (
        ["datum"], {"series": "G", "rank": 2, "ell": 7},
        "dc0b6aea8e0cdd62ebfa585f79324a9db941cdf5dea4de6700f2e4657324ed60",
    ),
    "check-algebra-even": (
        ["check-algebra"], {**A1_4, "lattice": [["2"]]},
        "854d91b19504da2a16e18c9147597ddaea0deab98ee8f134b1babeec17494d15",
    ),
    "check-algebra-super": (
        ["check-algebra"], A1_4_SUPER,
        "0abc32718ddf1e91296d6e9f4253304986bc87f598c0cf0338365e8bcacb9bce",
    ),
    "census-json": (
        ["census"], A2_4_DOUBLED_ROOTS,
        "ee196f43d67fa7058adff14a7c961f322cbbc168f689b22dabb62f8da27169ea",
    ),
    "census-tsv": (
        ["census", "--format", "tsv"], {**A1_4, "lattice": [["4"]]},
        "b62e33a296531416fc0d78b6ea05c593c35ea987742eac53c40b35a548ed3f4c",
    ),
    "census-infinite": (
        ["census"], {**A2_4, "lattice": [["4", "-2"]]},
        "348c5f69c5c377a191b56b4fa9a30a14fb0fc75d9caf6fdd1a51a754b8c9c724",
    ),
    "twists-json": (
        ["twists"], A2_6_TRIPLED_ROOTS,
        "614cfbc3a46f998a90f2dc3e2f2f209a630c70c67464aba5ad219222c1e024af",
    ),
    "twists-tsv": (
        ["twists", "--format", "tsv"], A2_6_TRIPLED_ROOTS,
        "c625eabfd28472b750778763ede8cd25cac61f1ea7a3eab45d47fd89c5d5ebf5",
    ),
    "monodromy-census": (
        ["monodromy"], {"series": "A", "rank": 1, "ell": 6, "lattice": [["6"]]},
        "c1259b00cfdf4121cd1c932f0c8b428adea35e55020454387f0fecd46b10c653",
    ),
    "monodromy-pairs": (
        ["monodromy"],
        {**A2_4, "pairs": [[["1", "0"], ["0", "1"]], [["1/2", "2"], ["-3", "1"]]]},
        "3b3870ffbe084ae19e2a67cea5e25b1748c545f601eae1e764299247afceacc4",
    ),
    "ribbon-super": (
        ["ribbon"], A1_4_SUPER,
        "66b575da0492e980c49f88d3e6b6dd2fde10f02f30b3e2a0736147ea54cb7266",
    ),
    "muger": (
        ["muger"], A2_4_DOUBLED_ROOTS,
        "b7d2b525a79b051e036b874390830d25d30a53abc4d91cc57b1edcca55a7436e",
    ),
    "muger-super": (
        ["muger"], A1_4_SUPER,
        "bff191ee87ae404fd78e3e44697fa9ff745ad6122f61ae850bfdff9a19702180",
    ),
    "muger-tripled-roots": (
        ["muger"], A2_6_TRIPLED_ROOTS,
        "2a7b81bcfb1f86410f0a2cfb7a3ea066860b10d5bd568af8f86e3567a512582f",
    ),
    "triplet-A2": (
        ["triplet", "--series", "A", "--rank", "2", "--r", "2"], None,
        "4809e406d0d039640f838c92307107ad10db62bbd07563e79e83fcb967b77190",
    ),
    "triplet-D4": (
        ["triplet", "--series", "D", "--rank", "4", "--r", "2"], None,
        "f4fb9bbabc38f66e7c1bb629ef1fd4384523f34ef26e8f2fcdd9ac37de2df902",
    ),
    "bq-standard": (
        ["bq"],
        {
            **A2_4,
            "ext_weights": [
                {"qg": ["2", "0"], "fock": ["2", "0"]},
                {"qg": ["1", "0"], "fock": ["1", "0"]},
                {"qg": ["2", "-1"], "fock": ["0", "0"]},
                {"qg": ["1", "0"], "fock": ["0", "0"]},
            ],
        },
        "df3e4ff962c0fb2417e1af1e57261eb5a1a8125e56fa95f9664ba161866700e7",
    ),
    "bq-heisenberg": (
        ["bq"],
        {
            **A2_4,
            "heisenberg": {"a_squared": "1/3"},
            "ext_weights": [{"qg": ["1", "1"], "fock": ["0", "1"]}],
        },
        "ac80fdccd1f35a1a7bafa9f6f64a7e552c07e3f08d94d1ec2f6a27cbd2c278c3",
    ),
    # A lattice other than r*P: local, transparent and equivalent print null.
    "bq-coarse-lattice": (
        ["bq"],
        {
            **A2_4,
            "lattice": [["4", "0"], ["0", "4"]],
            "ext_weights": [
                {"qg": ["2", "0"], "fock": ["2", "0"]},
                {"qg": ["1", "0"], "fock": ["0", "0"]},
            ],
        },
        "f30cb4235b0a96ac41229e554aaaa4189bdd55e57b91090dd82e42138ded3e5f",
    ),
    # 2(1-r)<-4 omega, rho> = 12 is not in 8Z: inconclusive, witness 12.
    "ribbon-inconclusive": (
        ["ribbon"], {"series": "A", "rank": 1, "ell": 8, "lattice": [["-4"]]},
        "3b14307ac3066a5e894aa9a184f3c24af10bbaf14757e935e77abe7313fd8c0e",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_digest(name, monkeypatch, capsys):
    argv, doc, digest = CASES[name]
    monkeypatch.setattr("sys.stdin", io.StringIO("" if doc is None else json.dumps(doc)))
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
