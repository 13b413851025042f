"""Immutable value records, whose fields are the class's own annotations.
Each record class keeps its fields in slots, which its metaclass declares
from those annotations when the class is made; every field is written once,
through its slot's __set__ (past the blocking __setattr__, cheaper than
object.__setattr__), and no record has an instance __dict__.  As an ABCMeta,
the metaclass lets a record be a collections.abc Sequence or Mapping too."""

from abc import ABCMeta


class _RecordType(ABCMeta):
    def __new__(mcls, name, bases, namespace, **kwargs):
        namespace["__slots__"] = fields = tuple(namespace.get("__annotations__", ()))
        cls = super().__new__(mcls, name, bases, namespace, **kwargs)
        cls._fields = fields
        cls._setters = tuple(getattr(cls, key).__set__ for key in fields)
        return cls


class Record(metaclass=_RecordType):
    """Built from field values, positionally or by keyword; immutable; equal
    only to a record of the same class with equal fields."""

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if kwargs:
            try:
                args += tuple(kwargs.pop(key) for key in fields[len(args):])
            except KeyError as exc:
                raise TypeError(f"{name} is missing field {exc}") from None
            if kwargs:
                key = next(iter(kwargs))
                problem = "got field %r twice" if key in fields else "has no field %r"
                raise TypeError(f"{name} {problem % key}")
        if len(args) != len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
