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

# the arguments each error is built from; others take a message alone
ARGUMENTS = {
    errors.ShapeError: (3, "row 3: expected 2 cells, found 1"),
    errors.ValidationError: ([
        Violation("node", "a", "declared more than once"),
        Violation("cpt", "b", "no preference table"),
    ],),
}


# every error, and every located one once more with a line and column
CASES = [(cls, ARGUMENTS.get(cls, ("unexpected token",))) for cls in ERRORS] + [
    (cls, ("unexpected token", 2, 7)) for cls in ERRORS if issubclass(cls, errors._Located)
]


@pytest.mark.parametrize(
    "cls, arguments", CASES,
    ids=[cls.__name__ + ("-located" if len(arguments) == 3 else "") for cls, arguments in CASES],
)
def test_every_error_survives_pickle_and_copy(cls, arguments):
    error = cls(*arguments)
    for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(twin) is cls
        assert str(twin) == str(error)
        for name in ("row", "line", "column", "report"):
            assert getattr(twin, name, None) == getattr(error, name, None), name
