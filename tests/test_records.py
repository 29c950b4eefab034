"""The contract every record class keeps: a record refuses changes once
built, equality and repr work over the public fields, and a record that
holds arrays is equal only to itself."""

import copy

import numpy as np
import pytest

from fuzzycp import (
    AttributeConfig,
    ClusterModel,
    CPNet,
    DataProjection,
    Dataset,
    Evaluation,
    FcmResult,
    KBConfig,
    KnowledgeBase,
    PreferenceVariable,
    QuerySpec,
    Ranking,
    Term,
    UCPNet,
    Violation,
    WeightedQuery,
    assign_utilities,
)
from fuzzycp.dsl import Token
from fuzzycp.ucp import DominanceViolation

X = PreferenceVariable("x", ("a", "b"))
NET = CPNet((X,), (), {"x": {(): ("a", "b")}})
UCP = assign_utilities(NET)
TERM = Term({"x": "a"}, 1.0)
ARRAY = np.array([[0.25, 0.75]])

# class -> a function that builds a record from the same field values on
# every call (arrays are shared, so equal fields compare equal)
RECORDS = {
    PreferenceVariable: lambda: PreferenceVariable("x", ["a", "b"]),
    Violation: lambda: Violation("cpt", "x", "no preference table"),
    CPNet: lambda: CPNet([X], [], {"x": {(): ["a", "b"]}}),
    QuerySpec: lambda: QuerySpec(NET, {"x": "attr_x"}, 1),
    Token: lambda: Token("ident", "price", 1, 5),
    Term: lambda: Term({"x": "a"}, 1.0),
    WeightedQuery: lambda: WeightedQuery(UCP, {"x": "attr_x"}, [TERM]),
    UCPNet: lambda: assign_utilities(NET),
    DominanceViolation: lambda: DominanceViolation("x", 1, 2),
    ClusterModel: lambda: ClusterModel("price", (1.0, 2.0), ("low", "high"), 2.0),
    AttributeConfig: lambda: AttributeConfig(2, ("low", "high")),
    KBConfig: lambda: KBConfig(seed=7),
    KnowledgeBase: lambda: KnowledgeBase({}, {"seed": 7}),
    Dataset: lambda: Dataset(["p", "q"], ARRAY),
    FcmResult: lambda: FcmResult(ARRAY, (1.0, 0.5), 2, True),
    DataProjection: lambda: DataProjection(0, ("x",), ARRAY, ()),
    Evaluation: lambda: Evaluation((0.5,), (0.5,), 0.5),
    Ranking: lambda: Ranking(("x",), ARRAY[0], ARRAY[0], ARRAY, ARRAY, ARRAY > 0.5),
}
# records that hold arrays, equal and hashed by identity
BY_IDENTITY = {Dataset, FcmResult, DataProjection, Ranking}


def _public(record):
    return [name for name in type(record).__slots__ if not name.startswith("_")]


def _with(record, name, value):
    """A copy of ``record`` with one field replaced, built without its checks."""
    other = object.__new__(type(record))
    for slot in type(record).__slots__:
        object.__setattr__(other, slot, value if slot == name else getattr(record, slot))
    return other


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    record, twin = RECORDS[cls](), RECORDS[cls]()
    fields = _public(record)
    assert type(record) is cls and fields

    text = repr(record)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    for name in fields:
        assert f"{name}={getattr(record, name)!r}" in text
    assert "_by_name" not in text

    assert record != object() and record != 1
    if cls in BY_IDENTITY:
        assert record == record and record != twin
        assert hash(record) != hash(twin)
    else:
        assert record == twin and not record != twin
        assert copy.copy(record) == record
        for name in fields:
            if not isinstance(getattr(record, name), np.ndarray):
                assert record != _with(record, name, object()), name

    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert repr(record) == text


def test_records_with_equal_distinct_arrays_answer_equality():
    pairs = [
        (Dataset(["a"], [[1.0], [2.0]]), Dataset(["a"], [[1.0], [2.0]])),
        (FcmResult(np.array([1.0, 2.0]), (0.5,), 1, True),
         FcmResult(np.array([1.0, 2.0]), (0.5,), 1, True)),
        (DataProjection(0, ("x",), np.array([[0.5], [1.0]]), ()),
         DataProjection(0, ("x",), np.array([[0.5], [1.0]]), ())),
    ]
    for record, twin in pairs:
        assert record == record and not record != record
        assert record != twin and not record == twin
        assert len({record, twin, record}) == 2


def test_equal_frozen_records_hash_alike():
    for cls in (PreferenceVariable, Violation, Token, DominanceViolation, ClusterModel,
                AttributeConfig):
        assert hash(RECORDS[cls]()) == hash(RECORDS[cls]())


def test_records_of_other_classes_differ_on_equal_fields():
    assert Violation("a", "b", "c") != Token("a", "b", "c", None)
    assert KBConfig().per_attribute is not KBConfig().per_attribute
