"""Exact classification of lattice simple-current extension algebras and
the structure of their categories of local modules."""

from importlib import import_module as _import_module

from .cartan import (
    CartanDatum,
    ExponentModL,
    Weight,
    alpha_coordinates,
    build_cartan_datum,
    exponent,
    in_root_lattice,
    in_simple_current_lattice,
    is_multiple,
    pairing,
    weight,
)
from .lattice import (
    AdjoinResult,
    Census,
    DualGroup,
    RationalLattice,
    adjoin,
    canonical_basis,
    contains,
    coset_reduce,
    quotient_census,
    scaled_dual,
)
from .algebra import (
    AlgebraSpec,
    CocycleVerdict,
    CommutativityVerdict,
    GaugeResult,
    SuperVerdict,
    Witness,
    apply_coboundary,
    check_commutative,
    check_supercommutative,
    cocycle_check,
    exponent_from_coefficients,
    gauge_normalize,
    spec_verdict,
    structure_constant_exponent,
    structure_constant_table,
)
from .localmod import (
    LocalReport,
    MugerReport,
    RibbonVerdict,
    census_twists,
    check_ribbon,
    is_local,
    local_report,
    monodromy_exponent,
    muger_center,
    simple_census,
    twist_exponent,
)
from .extensions import (
    BqSpec,
    ExtWeight,
    TripletReport,
    bq_check_commutative,
    bq_equivalent,
    bq_is_local,
    bq_monodromy_exponent,
    bq_ribbon_verdict,
    bq_transparent,
    bq_twist_exponent,
    triplet_report,
)
from . import errors

# The brute-force oracle, the dense table storage and the census views are
# loaded on first use of one of their names, so that an import of the
# package, which every CLI request makes, leaves them out.
_ORACLE_NAMES = ("Box", "brute_census_order", "brute_cocycle", "brute_commutativity",
                 "brute_transparent_reps")
_LAZY_NAMES = {**dict.fromkeys(_ORACLE_NAMES, "oracle"), "CocycleTable": "_table",
               "CensusReps": "_census", "CensusTwists": "_census"}

__all__ = [name for name in dir() if not name.startswith("_")] + list(_LAZY_NAMES)


def __getattr__(name):
    if name in _LAZY_NAMES:
        return getattr(_import_module(f"{__name__}.{_LAZY_NAMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})
