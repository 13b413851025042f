"""Semantics of the immutable value records behind uproll's result types."""

import pickle
from fractions import Fraction

import pytest

from uproll import (
    Box,
    Census,
    CommutativityVerdict,
    ExponentModL,
    SuperVerdict,
    Weight,
    exponent,
    weight,
)
from uproll._record import Record
from uproll.errors import BudgetExceeded


def _census(**kwargs):
    fields = dict(
        finite=True, invariant_factors=(2,), reps=None, order=2, complement_dimension=0
    )
    return Census(**{**fields, **kwargs})


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
