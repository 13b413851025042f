"""Every object the library returns holds only values: a walk through the
fields of its records, and through tuples, frozensets and read-only
mappings, reaches no list, dict, set or bytearray, a table's Grid
included."""

import pickle
import random
from itertools import product
from types import MappingProxyType

import pytest

from uproll import (
    AlgebraSpec,
    BqSpec,
    GaugeResult,
    apply_coboundary,
    build_cartan_datum,
    cocycle_check,
    exponent,
    gauge_normalize,
    local_report,
    simple_census,
    structure_constant_table,
    triplet_report,
    weight,
)
from uproll._record import Record

MUTABLE = (list, dict, set, bytearray)


def mutable_fields(obj, path="", found=None, seen=None):
    """The paths, as Class.field[...] strings, of the mutable containers
    reachable from obj."""
    found, seen = ([] if found is None else found), (set() if seen is None else seen)
    if id(obj) in seen:
        return found
    seen.add(id(obj))
    if isinstance(obj, MUTABLE):
        found.append(f"{path}: {type(obj).__name__}")
    elif isinstance(obj, Record):
        for key in obj._fields:
            mutable_fields(getattr(obj, key), f"{type(obj).__name__}.{key}", found, seen)
    elif isinstance(obj, (tuple, frozenset)):
        for item in obj:
            mutable_fields(item, f"{path}[]", found, seen)
    elif isinstance(obj, MappingProxyType):
        for key, value in obj.items():
            mutable_fields(key, f"{path}[key]", found, seen)
            mutable_fields(value, f"{path}[value]", found, seen)
    return found


def sample():
    """One result of each entry point, on small inputs."""
    a2 = build_cartan_datum("A", 2, 4)
    spec = AlgebraSpec(a2, [4 * a for a in a2.simple_roots])
    odd = AlgebraSpec(build_cartan_datum("A", 1, 4), [weight([4])], mu=weight([2]))
    table = structure_constant_table(odd, 1)
    rng = random.Random(7)
    phi = {vec: exponent(rng.randrange(4) if any(vec) else 0, 4) for vec in product(range(-2, 3), repeat=2)}
    twisted = apply_coboundary(table, phi)
    return {
        "triplet_report": triplet_report("A", 2, 3),
        "local_report": local_report(spec),
        "simple_census": simple_census(spec),
        "AlgebraSpec": spec,
        "AlgebraSpec with mu": odd,
        "BqSpec": BqSpec(a2),
        "structure_constant_table": table,
        "cocycle_check": cocycle_check(table, odd.datum),
        "apply_coboundary": twisted,
        "gauge_normalize": gauge_normalize(twisted, odd),
    }


@pytest.mark.parametrize("name,obj", list(sample().items()))
def test_returned_records_hold_no_mutable_container(name, obj):
    assert isinstance(obj, Record)
    assert mutable_fields(obj) == []


def test_the_walk_finds_a_list_or_dict_field():
    class Holder(Record):
        kept: tuple
        proxy: MappingProxyType

    assert mutable_fields(Holder(((1, [2]),), MappingProxyType({1: {2}}))) == [
        "Holder.kept[][]: list",
        "Holder.proxy[value]: set",
    ]


def test_in_place_edits_raise():
    objects = sample()
    twists = objects["triplet_report"].report.twists
    with pytest.raises(TypeError):
        twists.single[0] += 1
    with pytest.raises(TypeError):
        twists.twice[0][0] = 1
    with pytest.raises(TypeError):
        objects["structure_constant_table"].entries.rows[0][0] = 1
    for key in ("structure_constant_table", "apply_coboundary"):
        with pytest.raises(TypeError):
            objects[key].entries.rows[0] = ()
    with pytest.raises(TypeError):
        objects["structure_constant_table"].entries.grid.index[(0, 0)] = 1
    phi = objects["gauge_normalize"].phi
    with pytest.raises(TypeError):
        phi[(0, 0)] = exponent(1, 4)
    with pytest.raises(TypeError):
        del phi[(0, 0)]


def test_gauge_cochain_is_a_read_only_copy_that_pickles():
    gauge = sample()["gauge_normalize"]
    plain = dict(gauge.phi)
    assert gauge.phi == plain and plain == gauge.phi
    again = pickle.loads(pickle.dumps(gauge))
    assert type(again.phi) is MappingProxyType and again == gauge and again.phi == plain
    source = dict(plain)
    copied = GaugeResult(source, gauge.normalized)
    source.clear()
    assert copied == gauge and len(copied.phi) == len(plain)
