"""Spans around the library's public functions, installed from outside.

Spans are named ``layer.function`` after the module that defines the
function; ``uproll._linalg`` appears as ``linalg``, since metric names
start with a letter.

Each target function is replaced, in every ``uproll`` module namespace
that holds it, by a wrapper that records calls, self time (the span's
duration minus the time of the spans it encloses) and a size.  Wrapping
every namespace matters: ``uproll.localmod`` looks up ``quotient_census``
as a module global imported by name, while ``_linalg`` kernels are reached
through the ``_linalg`` module attribute.
"""

from __future__ import annotations

import sys
from functools import wraps
from time import perf_counter

TARGETS = {
    "_linalg": ("row_hermite_form", "smith_normal_form", "mat_inverse",
                "combination_in_rows", "det_int"),
    "cartan": ("build_cartan_datum",),
    "lattice": ("canonical_basis", "adjoin", "scaled_dual", "quotient_census"),
    "algebra": ("spec_verdict", "structure_constant_table", "cocycle_check",
                "apply_coboundary", "gauge_normalize"),
    "localmod": ("simple_census", "twist_exponent", "muger_center", "check_ribbon"),
    "extensions": ("triplet_report", "bq_transparent"),
    "cli": ("run",),
}

# Size recorded per call: (field, measure, how calls combine).
SIZES = {
    "lattice.quotient_census": ("reps", lambda c: len(c.reps) if c.reps else 0, "sum"),
    "linalg.smith_normal_form": (
        "max_bits", lambda res: max((abs(x).bit_length() for row in res[1] for x in row), default=0), "max"),
    "algebra.structure_constant_table": ("entries", lambda t: len(t.entries), "sum"),
}

# Per-layer metrics: span name, fields reported, and the workloads on which
# the span must record at least one call (the completeness guard).
LAYER_METRICS = (
    ("lattice.quotient_census", ("calls", "self_s", "reps"), ("triplet-census", "spec-stream")),
    ("localmod.simple_census", ("calls",), ("triplet-census", "spec-stream")),
    ("localmod.twist_exponent", ("calls", "self_s"), ("triplet-census",)),
    ("localmod.muger_center", ("self_s",), ("triplet-census",)),
    ("localmod.check_ribbon", ("self_s",), ("triplet-census",)),
    ("linalg.row_hermite_form", ("calls", "self_s"), ("spec-stream",)),
    ("linalg.smith_normal_form", ("calls", "self_s", "max_bits"), ("spec-stream",)),
    ("linalg.mat_inverse", ("calls", "self_s"), ("spec-stream",)),
    ("linalg.combination_in_rows", ("calls", "self_s"), ("spec-stream",)),
    ("linalg.det_int", ("calls", "self_s"), ("spec-stream",)),
    ("cartan.build_cartan_datum", ("calls", "self_s"), ("spec-stream",)),
    ("lattice.canonical_basis", ("calls", "self_s"), ("spec-stream",)),
    ("lattice.adjoin", ("calls", "self_s"), ("spec-stream",)),
    ("lattice.scaled_dual", ("calls", "self_s"), ("spec-stream",)),
    ("algebra.spec_verdict", ("calls",), ("spec-stream",)),
    ("extensions.triplet_report", ("self_s",), ("triplet-census",)),
    ("extensions.bq_transparent", ("calls", "self_s"), ("spec-stream",)),
    ("algebra.structure_constant_table", ("self_s", "entries"), ("cocycle-box",)),
    ("algebra.cocycle_check", ("self_s",), ("cocycle-box",)),
    ("algebra.apply_coboundary", ("self_s",), ("cocycle-box",)),
    ("algebra.gauge_normalize", ("self_s",), ("cocycle-box",)),
    ("cli.run", ("self_s",), ("cli-mix",)),
)

UNITS = {"calls": "count", "self_s": "s", "reps": "count", "entries": "count", "max_bits": "bits"}


class Tracer:
    """In-memory span statistics keyed by ``layer.function``."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._children: list[float] = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        field, measure, combine = SIZES.get(name, (None, None, None))
        if field:
            stat[field] = 0
        children = self._children

        @wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                stat["calls"] += 1
                stat["self_s"] += dt - inner
            if field:
                size = measure(result)
                stat[field] = max(stat[field], size) if combine == "max" else stat[field] + size
            return result

        return span

    def install(self) -> None:
        """Replace every target in every loaded ``uproll`` namespace."""
        mods = [m for n, m in sys.modules.items() if n == "uproll" or n.startswith("uproll.")]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"uproll.{layer}")
            if home is None:
                continue
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(f"{layer.lstrip('_')}.{name}", original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass values of every layer metric, 0 where nothing ran."""
        out = {}
        for name, fields, _ in LAYER_METRICS:
            stat = self.stats.get(name, {})
            for field in fields:
                value = stat.get(field, 0)
                if field != "max_bits":
                    value = value / passes
                out[f"{name}.{field}"] = (value, UNITS[field])
        return out

    def missing(self, workload: str) -> list[str]:
        """Spans that the guard requires on this workload but saw no call."""
        return [name for name, _, required in LAYER_METRICS
                if workload in required and not self.stats.get(name, {}).get("calls")]
