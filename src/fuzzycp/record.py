"""The base of fuzzycp's record classes.

A record is a plain class that lists its fields in ``__slots__`` and sets
them in its own ``__init__``, which takes the public fields (the slots
whose names do not start with an underscore) in slot order.  ``repr``
shows the public fields, equality compares them between records of the
same class, and a copy is rebuilt from them.  A ``Record`` is mutable and
therefore unhashable; a ``Frozen`` record refuses assignment and deletion
once built, and hashes its public fields.  A record that holds numpy
arrays, whose ``==`` does not give one truth value, sets ``__eq__`` and
``__hash__`` back to ``object``'s, so that it is equal only to itself.
"""


class Record:
    __slots__ = ()

    def _public(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._public() == other._public()

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_"
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._public()


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._public())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, **fields) -> None:
        """Set the fields, once, from ``__init__``."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)
