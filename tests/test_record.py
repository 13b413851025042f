"""Semantics of the immutable value records behind uproll's result types."""

import ast
import importlib
import pickle
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import uproll
from uproll import (
    Box,
    Census,
    CommutativityVerdict,
    ExponentModL,
    SuperVerdict,
    Weight,
    build_cartan_datum,
    exponent,
    weight,
)
from uproll._record import Record
from uproll.cartan import _type_table
from uproll.errors import BudgetExceeded


def _census(**kwargs):
    fields = dict(
        finite=True, invariant_factors=(2,), reps=None, order=2, complement_dimension=0
    )
    return Census(**{**fields, **kwargs})


def uproll_records() -> list[type]:
    """Every Record subclass the uproll package defines, in any of its modules."""
    for module in pkgutil.iter_modules(uproll.__path__):
        importlib.import_module(f"uproll.{module.name}")
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("uproll."):
                found.append(cls)
    return found


class TestConstruction:
    def test_keyword_and_positional_agree(self):
        assert _census() == Census(True, (2,), None, 2, 0)
        assert Census(True, (2,), None, order=2, complement_dimension=0) == _census()

    def test_fields_follow_the_annotations_in_order(self):
        assert Census._fields == (
            "finite", "invariant_factors", "reps", "order", "complement_dimension"
        )

    def test_missing_field(self):
        with pytest.raises(TypeError, match="missing field 'order'"):
            Census(True, (2,), None, complement_dimension=0)

    def test_unknown_field(self):
        with pytest.raises(TypeError, match="no field 'size'"):
            _census(size=3)

    def test_repeated_field(self):
        with pytest.raises(TypeError, match="'finite' twice"):
            Census(True, (2,), None, 2, 0, finite=False)

    def test_wrong_number_of_positional_fields(self):
        with pytest.raises(TypeError, match="takes 5 fields, got 6"):
            Census(True, (2,), None, 2, 0, 1)
        with pytest.raises(TypeError, match="takes 5 fields, got 2"):
            Census(True, (2,))


class TestImmutability:
    @pytest.mark.parametrize(
        "record, field",
        [(_census(), "order"), (Weight.zero(2), "coords"), (exponent(1, 4), "value")],
    )
    def test_assignment_and_deletion_raise(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.new_field = 1

    def test_hot_value_types_have_no_instance_dict(self):
        assert not hasattr(Weight.zero(2), "__dict__")
        assert not hasattr(exponent(1, 4), "__dict__")

    @pytest.mark.parametrize(
        "cls", sorted(uproll_records(), key=lambda c: c.__qualname__), ids=lambda c: c.__name__
    )
    def test_every_record_class_refuses_changes(self, cls):
        # Filled through Record.__init__, past any validating __init__ of its own.
        record = object.__new__(cls)
        Record.__init__(record, *range(len(cls._fields)))
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.new_field = 1
        assert record._values() == tuple(range(len(cls._fields)))


def test_all_record_classes_are_found_and_choose_their_storage_once():
    classes = {cls.__name__: cls for cls in uproll_records()}
    assert {"Weight", "CartanDatum", "Census", "CocycleTable", "Box"} <= set(classes)
    assert len(classes) == 17
    for name, cls in classes.items():
        assert len(cls._setters) == len(cls._fields), name
        record = object.__new__(cls)
        Record.__init__(record, *range(len(cls._fields)))
        assert not hasattr(record, "__dict__"), name


def _weights():
    return [
        Weight.over((2, 1), 2),
        Weight.over([4, 2], 4),
        Weight((1, Fraction(1, 2))),
        Weight(coords=(2, 1), den=2),
        Weight(["1", "1/2"]),
    ]


def _exponents():
    return [
        ExponentModL.over(3, 2, 4),
        ExponentModL.over(6, 4, 4),
        ExponentModL(Fraction(3, 2), 4),
        ExponentModL(value="6/4", modulus=4),
    ]


def _censuses():
    return [
        Census(True, (2,), None, 2, 0),
        _census(),
        Census(True, (2,), None, order=2, complement_dimension=0),
    ]


@pytest.mark.parametrize("make", [_weights, _exponents, _censuses])
def test_every_construction_path_agrees(make):
    built = make()
    built += [pickle.loads(pickle.dumps(record)) for record in built]
    first = built[0]
    for record in built:
        assert type(record) is type(first)
        assert record == first and hash(record) == hash(first)
        assert record._values() == first._values()


def test_reading_the_twist_form_leaves_a_datum_unchanged():
    fresh, read = build_cartan_datum("F", 4, 6), build_cartan_datum("F", 4, 6)
    assert read.twist_form is _type_table("F", 4)[4]
    assert read._fields[-1] == "twist_form" and read._values()[-1] is read.twist_form
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    assert pickle.dumps(read) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(read))
    assert restored == fresh
    with pytest.raises(AttributeError):
        read.twist_form = ()


def object_setattr_uses(source: str) -> list[int]:
    """The lines of the source that name object.__setattr__, called or not."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ]


def test_only_the_record_module_uses_object_setattr():
    # The walk finds calls and aliases, and not other __setattr__s or text.
    snippet = (
        '"""object.__setattr__"""\n'
        "object.__setattr__(w, 'row', r)\n"
        "super().__setattr__('row', r)\n"
        "set_field = object.__setattr__\n"
    )
    assert sorted(object_setattr_uses(snippet)) == [2, 4]
    src = Path(uproll.__file__).parent
    users = {}
    for path in sorted(src.glob("*.py")):
        if lines := object_setattr_uses(path.read_text(encoding="utf-8")):
            users[path.name] = lines
    assert set(users) <= {"_record.py"}, users


def storage_declarations(source: str, records) -> list[int]:
    """The lines where a class deriving from one of the named records names
    __slots__ or cached_property: assigned, decorating or read."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in records for base in node.bases
        ):
            lines += [
                inner.lineno
                for inner in ast.walk(node)
                if {"__slots__", "cached_property"}
                & {getattr(inner, "id", None), getattr(inner, "attr", None)}
            ]
    return sorted(lines)


def test_no_record_class_declares_its_own_storage():
    # Records deriving from records count; other classes and text do not.
    snippet = (
        "class A(Record):\n"
        "    '''__slots__ and cached_property'''\n"
        "    __slots__ = ('x',)\n"
        "class B(A):\n"
        "    @functools.cached_property\n"
        "    def y(self): ...\n"
        "class C(Record):\n"
        "    @cached_property\n"
        "    def z(self): ...\n"
        "class Spec:\n"
        "    __slots__ = ()\n"
        "    @cached_property\n"
        "    def v(self): ...\n"
    )
    assert storage_declarations(snippet, {"Record", "A"}) == [3, 5, 8]
    records = {"Record"} | {cls.__name__ for cls in uproll_records()}
    src = Path(uproll.__file__).parent
    found = {}
    for path in sorted(src.glob("*.py")):
        if lines := storage_declarations(path.read_text(encoding="utf-8"), records):
            found[path.name] = lines
    assert found == {}


class TestEqualityAndHash:
    def test_equality_is_per_class(self):
        assert CommutativityVerdict(True, ()) != SuperVerdict(True, ())
        assert Weight.zero(2) != (0, 0)
        assert Weight.zero(2) != (Fraction(0), Fraction(0))

    def test_equal_records_hash_equal(self):
        assert hash(_census()) == hash(Census(True, (2,), None, 2, 0))
        assert _census() != _census(order=3)
        assert hash(weight([1, "1/2"])) == hash(Weight((Fraction(1), Fraction(1, 2))))
        assert len({weight([1, 0]), weight([1, 0]), weight([0, 1])}) == 2

    def test_weight_hash_is_the_hash_of_its_field_tuple(self):
        w = weight([1, "1/2"])
        assert hash(w) == hash((w.row, w.den)) == hash(((2, 1), 2))

    def test_exponents_keep_equality_mod_ell(self):
        assert exponent(1, 4) == exponent(5, 4)
        assert hash(exponent(1, 4)) == hash(exponent(5, 4))
        assert exponent(1, 4) != exponent(1, 6)


class TestRepr:
    def test_plain_record_repr(self):
        assert repr(CommutativityVerdict(True, ())) == (
            "CommutativityVerdict(commutative=True, witnesses=())"
        )

    def test_custom_reprs_are_kept(self):
        assert repr(weight([1, "1/2"])) == "Weight(1, 1/2)"
        assert repr(ExponentModL(Fraction(5), 4)) == "ExponentModL(5 mod 4)"


def test_records_pickle_round_trip():
    for record in (_census(), weight([1, "1/2"]), exponent("3/2", 4), Box(1, 2)):
        assert pickle.loads(pickle.dumps(record)) == record


def test_subclass_without_fields_is_empty():
    class Unit(Record):
        pass

    assert Unit() == Unit()
    assert repr(Unit()).endswith("<locals>.Unit()")


class TestBox:
    def test_negative_bound_is_refused(self):
        with pytest.raises(ValueError, match="box bound"):
            Box(-1, 1)

    def test_over_budget_box_is_refused(self):
        with pytest.raises(BudgetExceeded):
            Box(10**9, 1)

    def test_keyword_construction_still_validates(self):
        with pytest.raises(ValueError):
            Box(bound=-1, dimension=1)
        assert Box(bound=1, dimension=2) == Box(1, 2)
        assert len(list(Box(1, 2))) == 9
