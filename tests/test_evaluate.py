import math
import random

import numpy as np
import pytest

from fuzzycp import (
    BindingError,
    CPNet,
    ConfigError,
    Dataset,
    DegenerateQueryError,
    Term,
    UCPNet,
    WeightedQuery,
    aggregate_term_score,
    assign_utilities,
    evaluate,
    node_importance,
    project,
    rank,
)
from fuzzycp.scoring import DataProjection, Ranking
from helpers import kb_for_net, random_weighted_query
from test_cpnet import chain_abc, single_node


def query_with_importances(importances):
    """Single binary variable; terms differ only in importance."""
    net = single_node()
    kb, bindings = kb_for_net(net)
    ucp = assign_utilities(net)
    terms = tuple(
        Term(assignment={"x": "a"}, importance=u)
        for u in importances
    )
    query = WeightedQuery(ucp=ucp, bindings=bindings, terms=terms)
    return kb, query


def bogus_label_query():
    """A query whose net, and so its best term, has a label the knowledge
    base lacks."""
    kb, bindings = kb_for_net(single_node())  # labels a, b
    net = single_node(domain=("zz", "b"))
    query = WeightedQuery(
        ucp=assign_utilities(net),
        bindings=bindings,
        terms=(Term(assignment={"x": "zz"}, importance=1.0),),
    )
    return kb, query


def projection_for(entries):
    entries = np.asarray(entries, dtype=float)
    return DataProjection(
        record_index=0,
        variables=tuple(f"x{i}" for i in range(entries.shape[1])) if entries.shape[1] != 1 else ("x",),
        entries=entries,
        missing=(),
    )


# --- projection --------------------------------------------------------------


def test_projection_on_centroid_is_one():
    net = single_node()
    kb, bindings = kb_for_net(net)  # centroids 0.0 and 1.0 for labels a, b
    ucp = assign_utilities(net)
    from fuzzycp import rewrite_query

    query = rewrite_query(ucp, kb, bindings, 2)
    proj = project(kb, query, {"attr_x": 0.0})
    # term 1 wants "a" (centroid 0.0), term 2 wants "b"
    assert proj.entries[0, 0] == pytest.approx(1.0)
    assert proj.entries[1, 0] == pytest.approx(0.0)


def test_projection_midpoint_splits():
    net = single_node()
    kb, bindings = kb_for_net(net)
    from fuzzycp import rewrite_query

    query = rewrite_query(assign_utilities(net), kb, bindings, 2)
    proj = project(kb, query, {"attr_x": 0.5})
    assert proj.entries[0, 0] == pytest.approx(0.5)
    assert proj.entries[1, 0] == pytest.approx(0.5)


def test_projection_membership_formula():
    # centroids {0, 1}: value 0.25 has distances (0.25, 0.75), weights
    # 1/0.0625 : 1/0.5625 = 9 : 1
    net = single_node()
    kb, bindings = kb_for_net(net)
    from fuzzycp import rewrite_query

    query = rewrite_query(assign_utilities(net), kb, bindings, 2)
    proj = project(kb, query, {"attr_x": 0.25})
    assert proj.entries[0, 0] == pytest.approx(0.9, abs=1e-12)


def test_projection_missing_value_degrades():
    net = chain_abc()
    kb, bindings = kb_for_net(net)
    from fuzzycp import rewrite_query

    query = rewrite_query(assign_utilities(net), kb, bindings, 2)
    proj = project(kb, query, {"attr_A": 0.0, "attr_C": 1.0})
    assert "B" in proj.missing
    b_column = proj.variables.index("B")
    assert np.all(proj.entries[:, b_column] == 0.0)


def test_projection_unknown_label_is_binding_error():
    kb, bogus = bogus_label_query()
    with pytest.raises(BindingError):
        project(kb, bogus, {"attr_x": 0.0})


# --- aggregation -------------------------------------------------------------


def test_aggregate_single_entry():
    assert aggregate_term_score([0.7], [1]) == pytest.approx(0.7)


def test_aggregate_weighted_mean():
    assert aggregate_term_score([0.8, 0.5], [3, 1]) == pytest.approx(0.725)


def test_aggregate_all_ones():
    assert aggregate_term_score([1.0, 1.0, 1.0], [3, 2, 1]) == 1.0


def test_aggregate_empty_is_degenerate():
    with pytest.raises(DegenerateQueryError):
        aggregate_term_score([], [])


def test_aggregate_zero_weights_is_degenerate():
    with pytest.raises(DegenerateQueryError, match="^importance weights sum to zero$"):
        aggregate_term_score([0.5, 0.7], [0, 0])


def test_aggregate_sums_left_to_right():
    # the wide-net benchmark query's nine importances; a BLAS dot product
    # sums such vectors in another order and differs in the last bit for
    # a good share of them
    importances = [7, 6, 6, 5, 5, 4, 3, 2, 1]
    rng = random.Random(93)
    for _ in range(500):
        memberships = [rng.random() for _ in importances]
        weighted = 0.0
        for m, g in zip(memberships, importances):
            weighted += m * g
        expected = min(max(weighted / sum(importances), 0.0), 1.0)
        assert aggregate_term_score(memberships, importances) == expected


def test_aggregate_importance_symmetry():
    # swapping which variable holds which membership changes the score
    # iff the importances differ
    assert aggregate_term_score([0.3, 0.9], [2, 2]) == aggregate_term_score(
        [0.9, 0.3], [2, 2]
    )
    assert aggregate_term_score([0.3, 0.9], [2, 1]) != aggregate_term_score(
        [0.9, 0.3], [2, 1]
    )


# --- evaluation --------------------------------------------------------------


def test_evaluate_fixed_point():
    kb, query = query_with_importances([1.0])
    out = evaluate(projection_for([[1.0]]), query, {"x": 1})
    assert out.score == 1.0


def test_evaluate_score_clipped_by_term_score():
    kb, query = query_with_importances([0.9])
    out = evaluate(projection_for([[0.7]]), query, {"x": 1})
    assert out.score == pytest.approx(0.7)


def test_evaluate_hand_case():
    # S = (0.2, 0.9), U = (1.0, 0.3): max(min(0.2,1.0), min(0.9,0.3)) = 0.3
    kb, query = query_with_importances([1.0, 0.3])
    out = evaluate(projection_for([[0.2], [0.9]]), query, {"x": 1})
    assert out.term_scores == (0.2, 0.9)
    assert out.clipped == (0.2, 0.3)
    assert out.score == 0.3


def test_evaluate_zero_terms_is_degenerate():
    kb, query = query_with_importances([1.0])
    query = WeightedQuery(query.ucp, query.bindings, ())
    with pytest.raises(DegenerateQueryError):
        evaluate(projection_for([[0.5]]), query, {"x": 1})


def test_evaluate_matches_inline_recomputation():
    rng = random.Random(90)
    for _ in range(100):
        kb, query, draw = random_weighted_query(rng)
        importance = node_importance(query.net)
        proj = project(kb, query, draw())
        out = evaluate(proj, query, importance)
        recomputed = max(
            min(s, t.importance) for s, t in zip(out.term_scores, query.terms)
        )
        assert out.score == recomputed
        assert 0.0 <= out.score <= 1.0


def test_evaluate_monotone_in_memberships():
    rng = random.Random(91)
    for _ in range(200):
        kb, query, draw = random_weighted_query(rng)
        importance = node_importance(query.net)
        proj = project(kb, query, draw())
        base = evaluate(proj, query, importance).score
        k = rng.randrange(proj.entries.shape[0])
        i = rng.randrange(proj.entries.shape[1])
        bumped = proj.entries.copy()
        bumped[k, i] = min(1.0, bumped[k, i] + rng.uniform(0.0, 1.0))
        proj = DataProjection(proj.record_index, proj.variables, bumped, proj.missing)
        assert evaluate(proj, query, importance).score >= base


def test_saturation_on_top_term_centroids():
    rng = random.Random(92)
    for _ in range(30):
        kb, query, _draw = random_weighted_query(rng)
        top = query.terms[0]
        record = {}
        for name, value in top.assignment.items():
            attribute = query.bindings[name]
            model = kb.model(attribute)
            record[attribute] = model.centroids[model.labels.index(value)]
        importance = node_importance(query.net)
        out = evaluate(project(kb, query, record), query, importance)
        assert out.term_scores[0] == pytest.approx(1.0)
        assert out.score >= top.importance - 1e-12
        assert out.score == pytest.approx(1.0)  # U_1 is always 1


# --- ranking -----------------------------------------------------------------


def ranked_fixture():
    net = single_node()
    kb, bindings = kb_for_net(net)
    from fuzzycp import rewrite_query

    query = rewrite_query(assign_utilities(net), kb, bindings, 2)
    return net, kb, query


def test_rank_single_record():
    _net, kb, query = ranked_fixture()
    ds = Dataset(["attr_x"], np.array([[0.0]]))
    ranking = rank(kb, query, ds)
    assert len(ranking) == 1
    # row 0 is place 1
    assert ranking.record_index.tolist() == [0]


def test_rank_orders_descending():
    _net, kb, query = ranked_fixture()
    ds = Dataset(["attr_x"], np.array([[0.4], [0.0]]))
    ranking = rank(kb, query, ds)
    assert ranking.record_index.tolist() == [1, 0]
    assert ranking.score[0] > ranking.score[1]


def test_rank_preserves_input_order_on_ties():
    _net, kb, query = ranked_fixture()
    ds = Dataset(["attr_x"], np.array([[0.3], [0.3], [0.3]]))
    ranking = rank(kb, query, ds)
    assert ranking.record_index.tolist() == [0, 1, 2]


def test_rank_truncates_to_top_n():
    _net, kb, query = ranked_fixture()
    ds = Dataset(["attr_x"], np.array([[0.1], [0.2], [0.3], [0.4]]))
    ranking = rank(kb, query, ds, top_n=2)
    assert len(ranking) == 2


def test_rank_flags_missing_attribute_column():
    _net, kb, query = ranked_fixture()
    ds = Dataset(["unrelated"], np.array([[1.0], [2.0]]))
    ranking = rank(kb, query, ds)
    assert ranking.variables == ("x",)
    assert ranking.missing.tolist() == [[True], [True]]
    assert not np.isnan(ranking.score).any()


def test_rank_rejects_unknown_term_label():
    kb, bogus = bogus_label_query()
    ds = Dataset(["attr_x"], np.array([[0.0], [1.0]]))
    with pytest.raises(BindingError, match="zz"):
        rank(kb, bogus, ds)
    # checked before scoring, so even an empty dataset fails
    with pytest.raises(BindingError):
        rank(kb, bogus, Dataset(["attr_x"], np.empty((0, 1))))


def test_rank_without_terms_is_degenerate():
    _net, kb, query = ranked_fixture()
    query = WeightedQuery(query.ucp, query.bindings, ())
    with pytest.raises(DegenerateQueryError, match="^query has no terms$"):
        rank(kb, query, Dataset(["attr_x"], np.array([[0.1]])))


def test_rank_without_variables_is_degenerate():
    _net, kb, _query = ranked_fixture()
    ucp = UCPNet(CPNet(nodes=(), edges=(), cpt={}), steps={})
    query = WeightedQuery(ucp, {}, (Term({}, 1.0),))
    with pytest.raises(DegenerateQueryError, match="^term has no variables to aggregate$"):
        rank(kb, query, Dataset(["attr_x"], np.array([[0.1]])))


@pytest.mark.parametrize("top_n", [0, -1, -3])
def test_rank_rejects_top_n_below_one(top_n):
    _net, kb, query = ranked_fixture()
    ds = Dataset(["attr_x"], np.array([[0.1], [0.2], [0.3]]))
    with pytest.raises(ConfigError):
        rank(kb, query, ds, top_n=top_n)


# --- columnar rank against the scalar oracle ----------------------------------


def random_dataset(rng, kb, query, draw, n):
    """Records from ``draw`` plus the edge cases ``rank`` must get right.

    Cells may be empty (NaN), infinite or exactly on a centroid, some rows
    are duplicated, an unrelated column rides along, and sometimes one bound
    attribute is absent from the table altogether.
    """
    attributes = list(kb.models)
    if rng.random() < 0.2:
        attributes.remove(rng.choice(sorted(set(query.bindings.values()))))
    rows = []
    for _ in range(n):
        record = draw()
        row = []
        for attribute in attributes:
            roll = rng.random()
            if roll < 0.05:
                row.append(rng.choice([math.inf, -math.inf]))
            elif roll < 0.15:
                row.append(rng.choice(kb.model(attribute).centroids))
            else:
                row.append(record.get(attribute, math.nan))
        rows.append(row + [rng.uniform(-1.0, 1.0)])
    for _ in range(n // 4):
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    records = np.array(rows, dtype=float).reshape(len(rows), len(attributes) + 1)
    return Dataset(attributes + ["unrelated"], records)


def oracle_ranking(kb, query, dataset):
    """The full ranking from ``project`` and ``evaluate``, record by record,
    and the rows' min(S_k, U_k) from ``Evaluation.clipped``."""
    importance = node_importance(query.net)
    variables = tuple(v.name for v in query.net.nodes)
    scored = []
    for idx, row in enumerate(dataset.records):
        record = {a: float(v) for a, v in zip(dataset.attributes, row)}
        projection = project(kb, query, record, record_index=idx)
        scored.append((idx, evaluate(projection, query, importance), projection.missing))
    scored.sort(key=lambda item: (-item[1].score, item[0]))
    shape = (len(scored), len(query.terms))
    clipped = np.array([o.clipped for _, o, _ in scored]).reshape(shape)
    return clipped, Ranking(
        variables=variables,
        record_index=np.array([idx for idx, _, _ in scored], dtype=np.intp),
        score=np.array([outcome.score for _, outcome, _ in scored]),
        term_scores=np.array([o.term_scores for _, o, _ in scored]).reshape(shape),
        missing=np.array(
            [[name in missing for name in variables] for _, _, missing in scored], dtype=bool
        ).reshape(len(scored), len(variables)),
    )


def assert_same_ranking(ranking, expected, rows=None):
    """Every column of ``ranking`` equals the first ``rows`` of ``expected``'s."""
    assert ranking.variables == expected.variables
    for column in ("record_index", "score", "term_scores", "missing"):
        got, want = getattr(ranking, column), getattr(expected, column)[:rows]
        assert got.dtype == want.dtype, column
        assert np.array_equal(got, want), column


def test_rank_matches_project_and_evaluate():
    # exact equality, no tolerance: both sum in declaration order
    rng = random.Random(94)
    compared = 0
    for trial in range(120):
        kb, query, draw = random_weighted_query(rng, allow_missing=True, share_attributes=True)
        n = 0 if trial % 20 == 0 else rng.randint(1, 40)
        dataset = random_dataset(rng, kb, query, draw, n)
        full = rank(kb, query, dataset)
        clipped, expected = oracle_ranking(kb, query, dataset)
        assert_same_ranking(full, expected)
        derived = np.minimum(full.term_scores, [t.importance for t in query.terms])
        assert derived.dtype == clipped.dtype and np.array_equal(derived, clipped)
        top_n = rng.randint(1, len(full) + 2)
        assert_same_ranking(rank(kb, query, dataset, top_n=top_n), full, rows=top_n)
        compared += len(full)
    assert compared > 2000


def tied_dataset(rng, kb, n, all_equal):
    """n records whose columns each take 2 or 3 distinct values (a centroid,
    a value near the centroids, an empty cell), so that most records tie;
    with ``all_equal``, every record is the same."""
    columns = []
    for model in kb.models.values():
        lo, hi = model.centroids[0] - 1.0, model.centroids[-1] + 1.0
        pool = [rng.choice(model.centroids), rng.uniform(lo, hi), math.nan]
        values = rng.sample(pool, 1 if all_equal else rng.randint(2, 3))
        columns.append([rng.choice(values) for _ in range(n)])
    return Dataset(list(kb.models), np.array(columns, dtype=float).T.reshape(n, len(columns)))


def test_rank_keeps_input_order_among_heavy_ties_at_every_cut():
    rng = random.Random(1207)
    ties = 0
    for trial in range(80):
        kb, query, _draw = random_weighted_query(rng, share_attributes=True)
        n = 0 if trial % 20 == 0 else rng.randint(1, 30)
        dataset = tied_dataset(rng, kb, n, all_equal=trial % 4 == 1)
        full = rank(kb, query, dataset)
        assert_same_ranking(full, oracle_ranking(kb, query, dataset)[1])
        by_record = np.empty(n)
        by_record[full.record_index] = full.score
        assert np.array_equal(full.record_index, np.lexsort((np.arange(n), -by_record)))
        tied = full.score[1:] == full.score[:-1]
        assert (full.record_index[1:][tied] > full.record_index[:-1][tied]).all()
        ties += int(tied.sum())
        # a top_n between two tied rows cuts a run of equal scores
        for top_n in range(1, n + 3):
            assert_same_ranking(rank(kb, query, dataset, top_n=top_n), full, rows=top_n)
    assert ties > 500
