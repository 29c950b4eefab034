"""The base of fuzzycp's record classes.

A record declares its fields once, in ``__slots__``.  ``Record.__init__``
binds the public ones (not starting with ``_``), by position in slot
order or by name, takes a left-out field from the class's ``_defaults``,
and refuses a missing, unknown, repeated or extra argument with a
``TypeError`` naming the fields.  It then calls the class's ``_check``
hook, which may refuse the input, normalize a field or derive private
slots, through ``_set``.  No record writes its own ``__init__``.  A built
record refuses assignment and deletion, so nothing derived from its fields
can go stale.  ``repr``, equality (between records of one class), the hash
(none if a field is a dict) and copies all work from the public fields.  A
record holding numpy arrays, whose ``==`` gives no single truth value,
declares ``by_identity=True`` in its class statement and takes ``__eq__``
and ``__hash__`` from ``object``: it is equal only to itself.
"""


class Record:
    __slots__ = ()
    _defaults = {}  # field -> the value a build that leaves it out gets

    def __init_subclass__(cls, by_identity=False):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        if by_identity:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            given, rest = {**self._defaults, **named}, fields[len(values):]
            wrong = [f"extra value {value!r}" for value in values[len(fields):]]
            wrong += [f"{name} given twice" for name in named if name in fields[:len(values)]]
            wrong += [f"unknown field {name}" for name in named if name not in fields]
            wrong += [f"missing field {name}" for name in rest if name not in given]
            if wrong:
                raise TypeError(f"{type(self).__name__}({', '.join(fields)}): {'; '.join(wrong)}")
            values += tuple(given[name] for name in rest)
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Refuse, normalize or derive, once the fields are bound."""

    def _public(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._public() == other._public()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._public()

    def __hash__(self):
        return hash(self._public())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, **fields) -> None:
        """Set the fields, once, from ``_check``."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)
