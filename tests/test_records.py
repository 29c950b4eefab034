"""The contract every record class keeps: a record refuses changes once
built, equality and repr work over the public fields, a record that holds
arrays is equal only to itself, and a class states its fields once, with
its defaults and checks, and no constructor of its own."""

import ast
import copy
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

import fuzzycp
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
from fuzzycp.kbdoc import DEFAULT_CLUSTERS, DEFAULT_FUZZIFIER, DEFAULT_MAX_ITER, DEFAULT_TOL
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
    Ranking: lambda: Ranking(("x",), ARRAY[0], ARRAY[0], ARRAY, ARRAY > 0.5),
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
    for cls in (PreferenceVariable, Violation, DominanceViolation, ClusterModel, AttributeConfig):
        assert hash(RECORDS[cls]()) == hash(RECORDS[cls]())


def test_records_of_other_classes_differ_on_equal_fields():
    assert Violation("a", "b", "c") != DominanceViolation("a", "b", "c")
    assert KBConfig().per_attribute is not KBConfig().per_attribute


# records that Record's constructor builds from their fields as given,
# with no default and no _check hook
PLAIN = [Violation, Term, DominanceViolation, FcmResult, DataProjection, Evaluation, Ranking]


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_plain_record_constructor(cls):
    record = RECORDS[cls]()
    fields, values = _public(record), record._public()
    by_position, by_name = cls(*values), cls(**dict(zip(fields, values)))
    for built in (by_position, by_name, cls(*values[:1], **dict(zip(fields[1:], values[1:])))):
        assert all(getattr(built, name) is value for name, value in zip(fields, values))
    if cls not in BY_IDENTITY:
        assert by_position == by_name == pickle.loads(pickle.dumps(by_name))

    signature = f"{cls.__name__}({', '.join(fields)}): "
    wrong = {
        f"missing field {fields[-1]}": (values[:-1], {}),
        "unknown field bogus": (values, {"bogus": 1}),
        f"{fields[0]} given twice": (values, {fields[0]: values[0]}),
        "extra value 'more'": ((*values, "more"), {}),
    }
    for message, (args, kwargs) in wrong.items():
        with pytest.raises(TypeError, match=re.escape(signature) + ".*" + re.escape(message)):
            cls(*args, **kwargs)


# records whose defaults or _check hook Record's constructor applies
CHECKED = [
    PreferenceVariable, CPNet, QuerySpec, WeightedQuery, UCPNet,
    ClusterModel, AttributeConfig, KBConfig, KnowledgeBase, Dataset,
]


def test_checked_classes_have_a_default_or_a_hook():
    assert set(RECORDS) == {*PLAIN, *CHECKED}
    for cls in CHECKED:
        assert cls._defaults or "_check" in vars(cls), cls.__name__
    assert not any(cls._defaults or "_check" in vars(cls) for cls in PLAIN)


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_checked_record_constructor(cls):
    record = RECORDS[cls]()
    fields, values = _public(record), record._public()
    builds = [
        cls(*values),
        cls(**dict(zip(fields, values))),
        cls(*values[:1], **dict(zip(fields[1:], values[1:]))),
    ]
    for built in builds:
        assert type(built) is cls and repr(built) == repr(record)
        if cls not in BY_IDENTITY:
            assert built == record

    signature = f"{cls.__name__}({', '.join(fields)}): "
    wrong = {
        "unknown field bogus": (values, {"bogus": 1}),
        f"{fields[0]} given twice": (values, {fields[0]: values[0]}),
        "extra value 'more'": ((*values, "more"), {}),
    }
    required = [name for name in fields if name not in cls._defaults]
    if required:
        named = {name: value for name, value in zip(fields, values) if name != required[-1]}
        wrong[f"missing field {required[-1]}"] = ((), named)
    for message, (args, kwargs) in wrong.items():
        with pytest.raises(TypeError, match=re.escape(signature) + ".*" + re.escape(message)):
            cls(*args, **kwargs)


def test_left_out_fields_take_their_defaults():
    assert KBConfig()._public() == (
        DEFAULT_CLUSTERS, None, DEFAULT_FUZZIFIER, DEFAULT_TOL, DEFAULT_MAX_ITER, 0, {}
    )
    assert KBConfig(per_attribute=None).per_attribute == {}
    assert KBConfig().per_attribute is not KBConfig().per_attribute
    assert AttributeConfig()._public() == (None, None)
    assert AttributeConfig(labels=("a", "b")) == AttributeConfig(None, ("a", "b"))
    assert QuerySpec(NET, {"x": "attr_x"}).term_count is None
    # and a hook normalizes the fields it is given
    assert PreferenceVariable("x", ["a", "b"]).domain == ("a", "b")
    assert Dataset(["p"], [[1], [2]]).records.dtype == float


def _record_constructors(source_dir: Path) -> dict[str, ast.FunctionDef]:
    """The ``__init__`` of each record class under ``source_dir`` that
    writes one, by ``module.Class``."""
    found = {}
    for path in sorted(source_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and "Record" in map(ast.unparse, node.bases):
                found.update(
                    (f"{path.stem}.{node.name}", function)
                    for function in node.body
                    if isinstance(function, ast.FunctionDef) and function.name == "__init__"
                )
    return found


def test_no_record_states_its_fields_twice():
    assert _record_constructors(Path(fuzzycp.__file__).parent) == {}


def test_records_by_identity_say_so_in_their_class_statement():
    by_identity = {cls for cls in RECORDS
                   if cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__}
    assert by_identity == BY_IDENTITY
    # from Record's by_identity keyword, not from a class body's own assignment
    stored = [
        f"{path.stem}: {node.id}"
        for path in sorted(Path(fuzzycp.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and node.id in ("__eq__", "__hash__")
    ]
    assert stored == []
