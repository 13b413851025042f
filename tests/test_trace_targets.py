"""The benchmark tracer wraps library functions by name; each must exist
and be reached.

perfbench/spans.py lists its targets as (module, function) names, and its
guard fails a traced run in which a required span records no call.  A
rename, a deletion, or a caller that stops going through the wrapped
module attribute would otherwise surface only in a traced benchmark run,
so it is caught here instead.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from helpers import run_cli

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

# Runs in a child process, so that the wrapped functions never reach the
# other tests: one finite superalgebra spec through census, twists, ribbon
# and Muger centre, one bq weight, one triplet report and one box-1
# cocycle table through check, coboundary and gauge.  Prints the spans
# that the guard would find missing on each library workload.  The tracer
# wraps only loaded modules, and modules load on first use, so the sample
# runs once untraced before the tracer is installed, as the benchmark's
# plain passes come before its traced ones.
SAMPLE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import uproll as u
def sample():
    datum = u.build_cartan_datum("A", 1, 4)
    alg = u.AlgebraSpec(datum, [u.weight([4])], u.weight([2]))
    assert u.spec_verdict(alg)
    census = u.simple_census(alg)
    [u.twist_exponent(datum, rep) for rep in census.reps]
    u.check_ribbon(alg)
    u.muger_center(alg)
    bq = u.BqSpec(datum)
    zero = u.ExtWeight(u.weight([0]), u.weight([0]))
    assert u.bq_is_local(bq, zero)
    u.bq_transparent(bq, zero)
    u.triplet_report("A", 1, 2)
    table = u.structure_constant_table(alg, 1)
    u.cocycle_check(table, datum)
    phi = {(a, b): u.exponent(a, 4) for a in range(-2, 3) for b in range(-2, 3)}
    u.gauge_normalize(u.apply_coboundary(table, phi), alg)
sample()
tracer = spans.Tracer()
tracer.install()
sample()
print(json.dumps({w: tracer.missing(w) for w in ("spec-stream", "triplet-census", "cocycle-box")}))
"""


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


def test_traced_sample_reaches_every_required_span():
    done = run_cli(["-c", SAMPLE, str(SPANS)])
    assert done.returncode == 0, done.stderr
    missing = json.loads(done.stdout.splitlines()[-1])
    assert missing == {"spec-stream": [], "triplet-census": [], "cocycle-box": []}


# Runs only the triplet report, so the triplet-census guard is met by what
# triplet_report reaches, not by direct calls elsewhere in SAMPLE.
TRIPLET_ONLY = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import uproll as u
u.triplet_report("A", 1, 2)
tracer = spans.Tracer()
tracer.install()
u.triplet_report("A", 1, 2)
print(json.dumps(tracer.missing("triplet-census")))
"""


def test_triplet_report_alone_reaches_the_triplet_census_spans():
    done = run_cli(["-c", TRIPLET_ONLY, str(SPANS)])
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
