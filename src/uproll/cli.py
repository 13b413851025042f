"""Command-line front end.

Reads a JSON problem description (stdin or --input), dispatches to the
library, and prints a machine-readable report on stdout.  Exponents are
printed as reduced rationals in [0, ell) and scalars as "q^{p/q}"
strings; no value is ever rendered through floating point.

Exit codes:
  0  report produced (verdict commands exit 0 on clean negative verdicts)
  2  malformed input: bad or too deeply nested JSON, a "rank" or "ell"
     that is not a JSON integer, a rational other than a JSON integer or
     an ASCII -?[0-9]+(/[0-9]+)? string over a nonzero denominator, a
     list or object field of another JSON type, an unknown subcommand, a
     partial set of datum or triplet flags, unknown Dynkin type, dimension
     mismatches, an odd generator that is not half-odd, bq at an odd ell
  3  hypothesis violated: ell < 3, r <= max gcd(d_i, r), or a non-ADE
     series passed to the triplet command
  4  a lattice generator (or the odd generator) is outside the
     simple-current lattice
  5  the command needs a spec the input fails to provide: the
     (super)commutativity check fails, the census is infinite, or a
     weight is not local
  6  stdout was closed before the report was written (for example by
     "| head"); the report is dropped without a traceback
  7  the work exceeds a fixed budget and is refused before it starts, with
     "budget exceeded: <stage>: <size> <what>, over the budget of <limit>"
     on stderr, a size too long to print as a decimal shown as "about
     2^<bits>".  Stage census (reps) is bounded by lattice.MAX_CENSUS_ORDER;
     spec (generator pairs, mu included), monodromy table and bq (their
     pairs) by algebra.MAX_TABLE_ENTRIES

A rank above cartan.MAX_RANK is an unknown Dynkin type (exit 2) and is
refused before any Cartan data is built.

A null field means the same as an absent one, so monodromy prints every
census pair when "pairs" is absent or null, and no pair for "pairs": [].

A failed internal invariant (errors.InternalError) is a bug, not bad
input, so it is left uncaught rather than mapped to one of these codes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import combinations
from typing import TYPE_CHECKING

import uproll

from .errors import (
    AlgebraInvalid,
    BudgetExceeded,
    HypothesisViolated,
    InfiniteCensus,
    NonADESeries,
    NotInSimpleCurrentLattice,
    NotLocal,
    NotSubgroup,
    UprollError,
    check_budget,
)

# The package loads each library module on its first read.
if TYPE_CHECKING:
    from .algebra import AlgebraSpec
    from .cartan import CartanDatum, ExponentModL, Weight


def _exponent_json(e: ExponentModL) -> dict:
    canonical = e.canonical
    return {"exponent": str(canonical), "scalar": f"q^{{{canonical}}}"}


def _load_document(args) -> dict:
    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        else:
            doc = json.load(sys.stdin)
    except RecursionError:
        raise ValueError("problem document nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("problem document must be a JSON object")
    return doc


def _doc_int(doc: dict, key: str) -> int:
    value = doc[key]
    # bool is a subclass of int, and a JSON float is not an exact integer
    if type(value) is not int:
        raise ValueError(f"{key!r} must be a JSON integer, got {value!r}")
    return value


def _doc_rational(value, field: str) -> int | str:
    if type(value) not in (int, str):
        raise ValueError(f"{field} must be a 'p/q' string or an integer, got {value!r}")
    try:
        uproll.cartan._ratio(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{field} is not a rational: {value!r}") from None
    return value


def _doc_datum(doc: dict) -> CartanDatum:
    return uproll.cartan.build_cartan_datum(
        str(doc["series"]), _doc_int(doc, "rank"), _doc_int(doc, "ell")
    )


def _doc_list(doc: dict, key: str) -> list | None:
    """A list-valued field, or None when it is absent or null."""
    value = doc.get(key)
    if value is not None and not isinstance(value, list):
        raise ValueError(f"{key!r} must be a JSON list, got {value!r}")
    return value


def _doc_object(value, field: str, *keys: str) -> dict:
    if not isinstance(value, dict) or not all(k in value for k in keys):
        raise ValueError(f"{field} must be a JSON object with keys {keys}, got {value!r}")
    return value


def _doc_rows(doc: dict, key: str, rank: int) -> list[Weight] | None:
    rows = _doc_list(doc, key)
    return None if rows is None else [
        _doc_row(row, rank, f"{key}[{i}]") for i, row in enumerate(rows)
    ]


def _doc_row(row, rank: int, field: str) -> Weight:
    if not isinstance(row, list) or len(row) != rank:
        raise ValueError(f"{field} must be a list of {rank} rationals")
    return uproll.cartan.Weight(tuple(_doc_rational(x, f"{field}[{k}]") for k, x in enumerate(row)))


def _doc_spec(doc: dict, datum: CartanDatum | None = None) -> AlgebraSpec:
    """The document's spec, on its datum unless one built from it is given."""
    datum = _doc_datum(doc) if datum is None else datum
    gens = _doc_rows(doc, "lattice", datum.rank) or []
    mu = None if doc.get("mu") is None else _doc_row(doc["mu"], datum.rank, "mu")
    return uproll.algebra.AlgebraSpec(datum, gens, mu)


def _census_json(census) -> dict:
    return {
        "finite": census.finite,
        "order": census.order,
        "invariant_factors": list(census.invariant_factors),
        "complement_dimension": census.complement_dimension,
        "reps": [r.coord_strings() for r in census.reps] if census.reps else None,
    }


def _cmd_datum(args) -> dict:
    if args.series is not None:
        datum = uproll.cartan.build_cartan_datum(args.series, args.rank, args.ell)
    else:
        datum = _doc_datum(_load_document(args))
    return {
        "series": datum.series,
        "rank": datum.rank,
        "ell": datum.ell,
        "r": datum.r,
        "symmetrizers": list(datum.symmetrizers),
        "r_i": list(datum.r_i),
        "cartan": [list(row) for row in datum.cartan],
        "gram": [[str(x) for x in row] for row in datum.gram],
        "rho": datum.rho.coord_strings(),
    }


def _cmd_check_algebra(args) -> dict:
    spec = _doc_spec(_load_document(args))
    verdict = uproll.algebra.spec_verdict(spec)
    return {
        "commutative" if spec.mu is None else "supercommutative": bool(verdict),
        "witnesses": [
            {"kind": w.kind, "i": w.i, "j": w.j, "value": str(w.value)}
            for w in verdict.witnesses
        ],
    }


def _twist_rows(twists) -> list[dict]:
    """JSON rows for (rep, twist exponent) pairs, in the order given."""
    return [{"rep": rep.coord_strings(), **_exponent_json(e)} for rep, e in twists]


def _cmd_census(args):
    """census and twists: the census JSON, or each rep with its twist as
    TSV rows or, for twists, as JSON rows after the census."""
    spec = _doc_spec(_load_document(args))
    census = uproll.localmod.simple_census(spec)
    if args.command == "census" and args.format == "json":
        return _census_json(census)
    if not census.finite:
        raise InfiniteCensus(f"{args.command} --format {args.format} needs a finite census")
    twists = uproll.localmod.census_twists(spec.datum, census).items()
    if args.format == "tsv":
        return "\n".join(
            "\t".join((",".join(rep.coord_strings()), *_exponent_json(e).values()))
            for rep, e in twists
        )
    return {**_census_json(census), "twists": _twist_rows(twists)}


def _cmd_monodromy(args) -> dict:
    doc = _load_document(args)
    datum = _doc_datum(doc)
    items = _doc_list(doc, "pairs")
    pairs = []
    for i, item in enumerate(items or []):
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"pairs[{i}] must be a list of two rows")
        a, b = (_doc_row(w, datum.rank, f"pairs[{i}][{k}]") for k, w in enumerate(item))
        pairs.append((a, b))
    if items is None:
        census = uproll.localmod.simple_census(_doc_spec(doc, datum))
        if not census.finite:
            raise InfiniteCensus("monodromy table needs a finite census")
        size = census.order * (census.order + 1) // 2
        check_budget("monodromy table", size, "pairs", uproll.algebra.MAX_TABLE_ENTRIES)
        reps = tuple(census.reps)
        pairs = [(a, b) for i, a in enumerate(reps) for b in reps[i:]]
    return {
        "pairs": [
            {
                "a": a.coord_strings(),
                "b": b.coord_strings(),
                **_exponent_json(uproll.localmod.monodromy_exponent(datum, a, b)),
            }
            for a, b in pairs
        ]
    }


def _cmd_ribbon(args) -> dict:
    verdict = uproll.localmod.check_ribbon(_doc_spec(_load_document(args)))
    return {
        "verdict": verdict.status,
        "witnesses": [
            {"kind": kind, "index": idx, "value": str(val)}
            for kind, idx, val in verdict.witnesses
        ],
    }


def _muger_json(report) -> dict:
    return {
        "transparent_reps": [w.coord_strings() for w in report.transparent_reps],
        "trivial": report.trivial,
        "hypothesis_ok": report.hypothesis_ok,
    }


def _cmd_muger(args) -> dict:
    return _muger_json(uproll.localmod.muger_center(_doc_spec(_load_document(args))))


def _cmd_triplet(args) -> dict:
    report = uproll.extensions.triplet_report(args.series, args.rank, args.r)
    return {
        "series": report.series,
        "rank": report.rank,
        "r": report.r,
        "ell": report.ell,
        "commutative": report.commutative.commutative,
        "order": report.report.census.order,
        "expected_order": report.expected_order,
        "match": report.match,
        "invariant_factors": list(report.report.census.invariant_factors),
        "ribbon": report.report.ribbon.status,
        "muger": _muger_json(report.report.muger),
        "twists": _twist_rows(report.report.twists.items()),
    }


def _cmd_bq(args) -> dict:
    """Twists and monodromy are always taken at a**2 = -1/r; another
    heisenberg.a_squared changes only commutative, local, transparent and
    equivalent, and turns the last three null."""
    ext = uproll.extensions
    doc = _load_document(args)
    datum = _doc_datum(doc)
    a_squared = None
    if doc.get("heisenberg") is not None:
        heisenberg = _doc_object(doc["heisenberg"], "heisenberg", "a_squared")
        a_squared = _doc_rational(heisenberg["a_squared"], "heisenberg.a_squared")
    spec = ext.BqSpec(datum, _doc_rows(doc, "lattice", datum.rank), a_squared)
    ext_weights = []
    for i, item in enumerate(_doc_list(doc, "ext_weights") or []):
        item = _doc_object(item, f"ext_weights[{i}]", "qg", "fock")
        qg, fock = (_doc_row(item[k], datum.rank, f"ext_weights[{i}].{k}") for k in ("qg", "fock"))
        ext_weights.append(ext.ExtWeight(qg, fock))
    size = len(ext_weights) * (len(ext_weights) - 1) // 2
    check_budget("bq", size, f"pairs of {len(ext_weights)} ext_weights", uproll.algebra.MAX_TABLE_ENTRIES)
    rows = []
    for w in ext_weights:
        local = ext.bq_is_local(spec, w) if spec.is_standard else None
        rows.append({
            "qg": w.qg.coord_strings(),
            "fock": w.fock_tilde.coord_strings(),
            "twist": _exponent_json(ext.bq_twist_exponent(datum, w)),
            "local": local,
            "transparent": ext.bq_transparent(spec, w) if local else None,
        })
    return {
        "a_squared": str(spec.a_squared),
        "commutative": ext.bq_check_commutative(spec),
        "ribbon": ext.bq_ribbon_verdict(datum),
        "weights": rows,
        "pairs": [
            {
                "i": i,
                "j": j,
                "monodromy": _exponent_json(ext.bq_monodromy_exponent(datum, a, b)),
                "equivalent": (
                    ext.bq_equivalent(spec, a, b) if rows[i]["local"] and rows[j]["local"] else None
                ),
            }
            for (i, a), (j, b) in combinations(enumerate(ext_weights), 2)
        ],
    }


_COMMANDS = {
    "datum": _cmd_datum,
    "check-algebra": _cmd_check_algebra,
    "census": _cmd_census,
    "twists": _cmd_census,
    "monodromy": _cmd_monodromy,
    "ribbon": _cmd_ribbon,
    "muger": _cmd_muger,
    "triplet": _cmd_triplet,
    "bq": _cmd_bq,
}


# Flags that describe a datum on the command line.  triplet reads no
# document, so it needs all of them; datum takes all of them or none.
_DATUM_FLAGS = {"datum": ("series", "rank", "ell"), "triplet": ("series", "rank", "r")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uproll",
        description="Exact reports on lattice simple-current extension algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name != "triplet":
            p.add_argument("--input", default=None, help="problem JSON file (default stdin)")
        if name in ("census", "twists"):
            p.add_argument("--format", choices=("json", "tsv"), default="json")
        for flag in _DATUM_FLAGS.get(name, ()):
            p.add_argument(f"--{flag}", type=None if flag == "series" else int)
    return parser


def run(argv=None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    flags = _DATUM_FLAGS.get(args.command, ())
    missing = [f"--{name}" for name in flags if getattr(args, name) is None]
    if missing and (args.command == "triplet" or len(missing) < len(flags)):
        print(f"{args.command} is missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        result = _COMMANDS[args.command](args)
    except (HypothesisViolated, NonADESeries) as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 3
    except NotInSimpleCurrentLattice as exc:
        print(f"not in the simple-current lattice: {exc}", file=sys.stderr)
        return 4
    except (AlgebraInvalid, InfiniteCensus, NotLocal, NotSubgroup) as exc:
        print(f"spec does not meet the command's precondition: {exc}", file=sys.stderr)
        return 5
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 7
    except (UprollError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    try:
        print(result if isinstance(result, str) else json.dumps(result, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; send what is left to
        # devnull so that flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("stdout was closed before the report was written", file=sys.stderr)
        return 6
    return 0


def main() -> None:
    code = run()
    # The process is about to end: frozen objects are left out of the
    # collections that interpreter shutdown makes over the whole heap.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
