import io
import json
import random

import numpy as np
import pytest

from fuzzycp import (
    AttributeConfig,
    ConfigError,
    DegenerateDataError,
    EmptyDatasetError,
    KBConfig,
    KnowledgeBase,
    ParseError,
    ShapeError,
    build_knowledge_base,
    fuzzy_c_means,
    ingest_tabular,
)
from helpers import fcm_memberships, reference_fcm


# --- ingestion ---------------------------------------------------------------


def test_ingest_header_and_rows():
    ds = ingest_tabular("price\n10\n20\n")
    assert ds.attributes == ["price"]
    assert ds.record_count == 2
    assert ds.records[0, 0] == 10.0


def test_ingest_empty_stream():
    with pytest.raises(EmptyDatasetError):
        ingest_tabular("")


def test_ingest_ragged_rows():
    with pytest.raises(ShapeError) as err:
        ingest_tabular("a,b\n1,2\n1,2,3\n")
    assert err.value.row == 1


def test_ingest_non_numeric_cell():
    with pytest.raises(ParseError) as err:
        ingest_tabular("a,b\n1,2\n3,oops\n")
    assert err.value.line == 1
    assert err.value.column == 1


def test_ingest_without_header_synthesizes_names():
    ds = ingest_tabular("1,2\n3,4\n", has_header=False)
    assert ds.attributes == ["col0", "col1"]
    assert ds.record_count == 2


def test_ingest_alternate_delimiter():
    ds = ingest_tabular("a;b\n1;2\n", delimiter=";")
    assert ds.attributes == ["a", "b"]


def test_ingest_accepts_bytes_and_files():
    as_bytes = ingest_tabular(b"a\n1\n")
    as_file = ingest_tabular(io.BytesIO(b"a\n1\n"))
    assert as_bytes.records.tolist() == as_file.records.tolist()


def test_ingest_empty_cell_is_missing():
    ds = ingest_tabular("a,b\n1,\n2,3\n")
    assert np.isnan(ds.records[0, 1])
    assert ds.records[1, 1] == 3.0


def test_ingest_strips_byte_order_mark():
    ds = ingest_tabular(b"\xef\xbb\xbfprice\n10\n")
    assert ds.attributes == ["price"]


def test_ingest_rejects_duplicate_header_names():
    with pytest.raises(ParseError):
        ingest_tabular("a,a\n1,2\n")


# --- fuzzy c-means -----------------------------------------------------------


def test_fcm_two_well_separated_groups():
    # oracle run (textbook reference): centroids converge onto {0, 10} and
    # every 0-valued point belongs to the low cluster almost entirely
    values = [0, 0, 0, 10, 10, 10]
    result = fuzzy_c_means(values, c=2, m=2.0, seed=3)
    memberships = fcm_memberships(result, values)
    assert result.centroids[0] == pytest.approx(0.0, abs=1e-3)
    assert result.centroids[1] == pytest.approx(10.0, abs=1e-3)
    assert memberships[0, 0] >= 0.99
    assert memberships[3, 1] >= 0.99

    cents, u, _ = reference_fcm(values, c=2, m=2.0)
    assert np.allclose(result.centroids, cents, atol=1e-3)
    assert np.allclose(memberships, np.asarray(u), atol=1e-3)


def test_fcm_midway_point_splits_evenly():
    values = [0.0] * 10 + [10.0] * 10 + [5.0]
    result = fuzzy_c_means(values, c=2, m=2.0, seed=1)
    mid = fcm_memberships(result, values)[-1]
    assert mid[0] == pytest.approx(mid[1], abs=1e-6)


def test_fcm_point_on_centroid_is_one_hot():
    values = [0, 0, 0, 0, 10, 10, 10, 10]
    result = fuzzy_c_means(values, c=2, m=2.0, seed=0)
    memberships = fcm_memberships(result, values)
    # converged centroids sit on the data modes, so those points saturate
    assert memberships[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert memberships[-1, 1] == pytest.approx(1.0, abs=1e-9)


def test_fcm_rows_sum_to_one():
    rng = np.random.default_rng(11)
    values = rng.normal(size=200) * 4 + np.repeat([0, 20], 100)
    result = fuzzy_c_means(values, c=3, m=2.0, seed=5)
    sums = fcm_memberships(result, values).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_fcm_objective_non_increasing():
    rng = np.random.default_rng(2)
    values = np.concatenate([rng.normal(0, 1, 60), rng.normal(8, 1, 60)])
    result = fuzzy_c_means(values, c=2, m=2.0, seed=2)
    trace = result.objective_trace
    assert len(trace) >= 1
    for earlier, later in zip(trace, trace[1:]):
        assert later <= earlier * (1 + 1e-12) + 1e-12


def test_fcm_deterministic_for_fixed_seed():
    values = list(range(30))
    a = fuzzy_c_means(values, c=3, seed=9)
    b = fuzzy_c_means(values, c=3, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(fcm_memberships(a, values), fcm_memberships(b, values))


def test_fcm_too_few_distinct_values():
    with pytest.raises(DegenerateDataError):
        fuzzy_c_means([1.0, 1.0, 1.0], c=2)


def test_fcm_rejects_non_finite():
    with pytest.raises(ParseError):
        fuzzy_c_means([1.0, float("nan"), 3.0], c=2)


@pytest.mark.parametrize(
    "kwargs", [{"c": 1}, {"c": 2, "m": 1.0}, {"c": 2, "tol": 0.0}]
)
def test_fcm_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigError):
        fuzzy_c_means([0.0, 1.0, 2.0, 3.0], **kwargs)


def test_fcm_centroids_ascending_many_seeds():
    rng = np.random.default_rng(0)
    for seed in range(20):
        values = rng.uniform(0, 100, size=50)
        result = fuzzy_c_means(values, c=3, seed=seed)
        assert np.all(np.diff(result.centroids) > 0)


# --- knowledge base ----------------------------------------------------------


def _toy_kb(seed=7):
    ds = ingest_tabular("size\n0\n0\n10\n10\n")
    cfg = KBConfig(
        per_attribute={"size": AttributeConfig(clusters=2, labels=("low", "high"))},
        seed=seed,
    )
    return build_knowledge_base(ds, cfg, source="toy")


def test_build_orders_labels_by_centroid():
    kb = _toy_kb()
    model = kb.model("size")
    assert model.labels == ("low", "high")
    assert model.centroids[0] < model.centroids[1]


def test_build_unknown_attribute_in_config():
    ds = ingest_tabular("size\n0\n1\n2\n")
    cfg = KBConfig(per_attribute={"weight": AttributeConfig(clusters=2)})
    with pytest.raises(ConfigError):
        build_knowledge_base(ds, cfg)


def test_build_label_count_mismatch():
    ds = ingest_tabular("size\n0\n1\n2\n")
    cfg = KBConfig(clusters=2, labels=("a", "b", "c"))
    with pytest.raises(ConfigError):
        build_knowledge_base(ds, cfg)


def test_build_rejects_missing_values():
    # an empty cell survives ingestion as NaN but cannot be clustered
    ds = ingest_tabular("size,w\n0,1\n1,\n2,3\n")
    with pytest.raises(ParseError):
        build_knowledge_base(ds, KBConfig(clusters=2))


def test_build_is_byte_deterministic():
    a = _toy_kb(seed=21).dump()
    b = _toy_kb(seed=21).dump()
    assert a == b


def test_document_round_trip():
    kb = _toy_kb()
    doc = json.loads(kb.dump())
    assert doc["format_version"] == 2
    assert all("memberships" not in attr for attr in doc["attributes"])
    assert doc["provenance"]["records"] == 4
    back = KnowledgeBase.from_document(doc)
    assert back.models == kb.models


def test_membership_of_centroid_is_one():
    kb = _toy_kb()
    model = kb.model("size")
    vec = kb.membership_of("size", model.centroids[0])
    assert vec[0] == pytest.approx(1.0)
    assert vec[1] == pytest.approx(0.0)


def test_membership_of_midpoint_splits():
    kb = _toy_kb()
    model = kb.model("size")
    midpoint = sum(model.centroids) / 2
    vec = kb.membership_of("size", midpoint)
    assert vec[0] == pytest.approx(0.5, abs=1e-9)
    assert vec[1] == pytest.approx(0.5, abs=1e-9)


def test_membership_formula_hand_value():
    # centroids {0, 10}, m=2, value 2.5: distances (2.5, 7.5), so the
    # weights are 1/2.5^2 : 1/7.5^2 = 9 : 1, giving exactly (0.9, 0.1)
    from fuzzycp.kb import ClusterModel

    model = ClusterModel("x", (0.0, 10.0), ("low", "high"), 2.0)
    vec = KnowledgeBase(models={"x": model}, provenance={}).membership_of("x", 2.5)
    assert vec[0] == pytest.approx(0.9, abs=1e-12)
    assert vec[1] == pytest.approx(0.1, abs=1e-12)


def test_membership_of_unknown_attribute():
    kb = _toy_kb()
    with pytest.raises(ConfigError):
        kb.membership_of("weight", 1.0)


def test_membership_of_rejects_non_finite():
    kb = _toy_kb()
    with pytest.raises(ParseError):
        kb.membership_of("size", float("inf"))


def test_membership_grid_matches_membership_of():
    kb = _toy_kb()
    values = [-3.0, kb.model("size").centroids[1], 4.2, float("nan"), float("-inf")]
    grid = kb.membership_grid("size", values)
    for row, value in zip(grid[:3], values):
        assert np.array_equal(row, kb.membership_of("size", value))
    assert np.all(grid[3:] == 0.0)  # missing values belong to no cluster


def test_membership_rows_sum_to_one_out_of_sample():
    kb = _toy_kb()
    rng = random.Random(4)
    for _ in range(100):
        vec = kb.membership_of("size", rng.uniform(-50, 50))
        assert abs(vec.sum() - 1.0) < 1e-9
        assert np.all(vec >= 0) and np.all(vec <= 1)
