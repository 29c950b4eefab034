import copy
import pickle

import pytest

from fuzzycp import errors
from fuzzycp.cpnet import Violation


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = [errors.FuzzycpError, *_subclasses(errors.FuzzycpError)]

REPORT = (
    Violation("node", "a", "declared more than once"),
    Violation("cpt", "b", "no preference table"),
)

# the arguments and details each error is built from; others take a message alone
ARGUMENTS = {
    errors.ShapeError: (("record 3: expected 2 cells, found 1",), {"record": 3}),
    errors.ValidationError: (
        ("invalid preference net: " + "; ".join(map(str, REPORT)),),
        {"report": REPORT},
    ),
}

# every error, every located one once more with a line and column, and a table cell's
CASES = [
    (cls, ARGUMENTS.get(cls, (("unexpected token",), {}))) for cls in ERRORS
] + [
    (cls, (("unexpected token",), {"line": 2, "column": 7}))
    for cls in ERRORS if issubclass(cls, errors._Located)
] + [
    (errors.ParseError, (("attribute 'b', record 1: cannot parse 'x' as a number",),
                         {"record": 1, "attribute": "b"})),
]


def _case_id(case):
    cls, (_, details) = case
    suffix = "-located" if "line" in details else "-cell" if "attribute" in details else ""
    return cls.__name__ + suffix


@pytest.mark.parametrize("cls, arguments", CASES, ids=map(_case_id, CASES))
def test_every_error_survives_pickle_and_copy(cls, arguments):
    arguments, details = arguments
    error = cls(*arguments, **details)
    assert vars(error) == details  # each detail is an attribute, and nothing else is
    for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(twin) is cls
        assert str(twin) == str(error)
        assert twin.args == error.args
        assert vars(twin) == vars(error)


def test_only_the_base_and_located_errors_write_a_constructor():
    # an error states its details once, as FuzzycpError's keyword arguments:
    # a constructor or pickle hook of its own would be a second statement
    assert [cls for cls in ERRORS if "__init__" in vars(cls)] == [
        errors.FuzzycpError, errors._Located
    ]
    assert [cls for cls in ERRORS if {"__reduce__", "__reduce_ex__"} & vars(cls).keys()] == []
