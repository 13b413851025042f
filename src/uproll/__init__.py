"""Exact classification of lattice simple-current extension algebras and
the structure of their categories of local modules.

Every module loads on first use: importing the package compiles nothing,
and the first read of a public name imports the module that defines it
and keeps the value here, so later reads are plain attribute reads.  The
CLI reads library names through the package as ``uproll.<module>.<name>``
at call time, so a request compiles only the modules its command uses;
and since the request is a whole process, ``cli.main`` freezes the heap
before it exits, which spares interpreter shutdown its full collections.
"""

from importlib import import_module as _import_module

# Each public name, with the module that defines it; a module's own name
# stands for the module.
_HOMES = {
    **dict.fromkeys(("cartan", "CartanDatum", "ExponentModL", "Weight", "build_cartan_datum",
                     "exponent", "in_root_lattice", "in_simple_current_lattice", "weight"), "cartan"),
    **dict.fromkeys(("lattice", "Census", "RationalLattice", "adjoin", "canonical_basis",
                     "contains", "coset_reduce", "quotient_census", "scaled_dual"), "lattice"),
    **dict.fromkeys(("algebra", "AlgebraSpec", "CocycleVerdict", "CommutativityVerdict",
                     "GaugeResult", "SuperVerdict", "Witness", "apply_coboundary",
                     "check_commutative", "check_supercommutative", "cocycle_check",
                     "gauge_normalize", "spec_verdict", "structure_constant_table"), "algebra"),
    **dict.fromkeys(("localmod", "LocalReport", "MugerReport", "RibbonVerdict", "census_twists",
                     "check_ribbon", "is_local", "local_report", "monodromy_exponent",
                     "muger_center", "simple_census", "twist_exponent"), "localmod"),
    **dict.fromkeys(("extensions", "BqSpec", "ExtWeight", "TripletReport",
                     "bq_check_commutative", "bq_equivalent", "bq_is_local",
                     "bq_monodromy_exponent", "bq_ribbon_verdict", "bq_transparent",
                     "bq_twist_exponent", "triplet_report"), "extensions"),
    "errors": "errors",
    **dict.fromkeys(("oracle", "Box", "brute_census_order", "brute_cocycle",
                     "brute_commutativity", "brute_transparent_reps", "is_multiple",
                     "pairing"), "oracle"),
    "CocycleTable": "_table",
    "CensusReps": "_census",
    "CensusTwists": "_census",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOMES[name]
    module = _import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
