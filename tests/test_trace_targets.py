"""The benchmark tracer wraps library functions by name; each must exist.

perfbench/spans.py lists its targets as (module, function) names.  A
rename or deletion in uproll would otherwise surface only in a traced
benchmark run, so it is caught here instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_is_a_uproll_callable():
    targets = load_targets()
    assert targets
    for layer, names in targets.items():
        module = importlib.import_module(f"uproll.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"uproll.{layer}.{name}"
