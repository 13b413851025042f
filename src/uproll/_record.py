"""Immutable value records, whose fields are the class's own annotations.
A record class that declares __slots__ writes each field through its slot's
__set__ (past the blocking __setattr__, cheaper than object.__setattr__), any
other one its __dict__ in one update; reads from a __dict__ are slower."""


class Record:
    """Built from field values, positionally or by keyword; immutable; equal
    only to a record of the same class with equal fields."""

    __slots__ = ()
    _fields = ()
    _setters = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        if "__slots__" in vars(cls):
            cls._setters = tuple(getattr(cls, key).__set__ for key in cls._fields)

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
        if self._setters is None:
            self.__dict__.update(zip(fields, args))
        else:
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
