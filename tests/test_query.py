import json
import random
import time

import pytest

from fuzzycp import (
    BindingError,
    CapacityError,
    ConfigError,
    CPNet,
    DegenerateQueryError,
    PreferenceVariable,
    Term,
    ValidationError,
    WeightedQuery,
    assign_utilities,
    compile_query,
    parse_query,
    query_from_document,
    query_to_document,
    rewrite_query,
    term_importance,
    topological_order,
)
from fuzzycp.kbdoc import document_text
from helpers import brute_force_top_terms, kb_for_net, random_cpnet
from test_cpnet import chain_abc, single_node


def rewrite(net, term_count=None, rng=None):
    kb, bindings = kb_for_net(net, rng)
    ucp = assign_utilities(net)
    return rewrite_query(ucp, kb, bindings, term_count)


# --- the net parse_query builds ---------------------------------------------


def test_build_single_variable():
    net = parse_query("var v: attr a { prefer x > y }").net
    assert len(net.nodes) == 1
    assert net.cpt["v"][()] == ("x", "y")


def test_build_chain_transcribes_rows():
    net = parse_query(
        """
        var a: attr x { prefer a1 > a2 }
        var b: attr y {
            depends a
            when a = a1: prefer b1 > b2
            when a = a2: prefer b2 > b1
        }
        """
    ).net
    assert net.edges == (("a", "b"),)
    assert net.cpt["b"][("a1",)] == ("b1", "b2")
    assert net.cpt["b"][("a2",)] == ("b2", "b1")


def test_build_reports_missing_context():
    text = """
        var a: attr x { prefer a1 > a2 }
        var b: attr y {
            depends a
            when a = a1: prefer b1 > b2
        }
        """
    with pytest.raises(ValidationError) as err:
        parse_query(text)
    assert "a2" in str(err.value)


def test_build_reports_cycles():
    text = """
        var a: attr x {
            depends b
            when b = b1: prefer a1 > a2
            when b = b2: prefer a2 > a1
        }
        var b: attr y {
            depends a
            when a = a1: prefer b1 > b2
            when a = a2: prefer b2 > b1
        }
        """
    with pytest.raises(ValidationError) as err:
        parse_query(text)
    assert "cycle" in str(err.value)


# --- rewrite_query -----------------------------------------------------------


def test_single_binary_variable_two_terms():
    query = rewrite(single_node(), term_count=2)
    assert [t.assignment["x"] for t in query.terms] == ["a", "b"]
    assert query.terms[0].importance == 1.0
    assert query.terms[1].importance == 0.0


def test_single_term_is_the_best_outcome():
    query = rewrite(chain_abc(), term_count=1)
    assert query.terms[0].assignment == {"A": "a1", "B": "b1", "C": "c1"}
    assert query.terms[0].importance == 1.0


def test_chain_top_three():
    # brute force over all 8 outcomes: utility 3 once, utility 2 three
    # times; lexicographic order decides among the ties
    query = rewrite(chain_abc(), term_count=3)
    assignments = [t.assignment for t in query.terms]
    assert assignments == [
        {"A": "a1", "B": "b1", "C": "c1"},
        {"A": "a1", "B": "b1", "C": "c2"},
        {"A": "a1", "B": "b2", "C": "c2"},
    ]
    assert [t.importance for t in query.terms] == [1.0, 2.0 / 3.0, 2.0 / 3.0]


def test_terms_match_brute_force_on_random_nets():
    # up to 6 nodes of up to 4 values (at most 4096 outcomes) and T up to
    # the whole outcome space, so the search meets every tie the stepped
    # utilities make
    rng = random.Random(77)
    for _ in range(300):
        net = random_cpnet(rng, max_nodes=6, max_domain=4)
        count = net.outcome_count()
        term_count = rng.choice([count, rng.randint(1, count)])
        query = rewrite(net, term_count, rng=rng)
        expected = brute_force_top_terms(query.ucp, term_count)
        declared = [v.name for v in net.nodes]
        assert [list(t.assignment.items()) for t in query.terms] == [
            [(n, o[n]) for n in declared] for o in expected
        ]
        assert [t.importance for t in query.terms] == [
            term_importance(query.ucp, o) for o in expected
        ]
        assert query.terms[0].importance == 1.0


def test_top_terms_of_a_net_too_large_to_enumerate():
    # 4^20 outcomes; the search touches a few hundred prefixes
    rng = random.Random(79)
    net = random_cpnet(rng, min_nodes=20, max_nodes=20, min_domain=4, max_domain=4,
                       edge_prob=0.2)
    assert net.outcome_count() == 4**20
    names = [v.name for v in net.nodes]
    kb, bindings = kb_for_net(net)
    ucp = assign_utilities(net)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        query = rewrite_query(ucp, kb, bindings, 5)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.05
    # the forward sweep gives every node its best value in its context
    best = {}
    for name in topological_order(net):
        context = tuple(best[p] for p in net.parent_names(name))
        best[name] = net.cpt[name][context][0]
    assert query.terms[0].assignment == best
    assert query.terms[0].importance == 1.0
    importances = [t.importance for t in query.terms]
    assert all(a >= b for a, b in zip(importances, importances[1:]))
    assert [list(t.assignment) for t in query.terms] == [names] * 5


def test_default_term_count():
    assert len(rewrite(chain_abc()).terms) == 5  # min(5, 8)
    assert len(rewrite(single_node()).terms) == 2  # min(5, 2)


def test_term_count_above_outcome_space():
    with pytest.raises(CapacityError):
        rewrite(single_node(), term_count=3)


def test_label_mismatch_is_a_binding_error():
    net = single_node()
    kb, bindings = kb_for_net(chain_abc())  # kb without x's attribute
    ucp = assign_utilities(net)
    with pytest.raises(BindingError):
        rewrite_query(ucp, kb, {"x": "attr_A"}, 2)


def test_unbound_variable_is_a_binding_error():
    net = single_node()
    kb, _bindings = kb_for_net(net)
    ucp = assign_utilities(net)
    with pytest.raises(BindingError):
        rewrite_query(ucp, kb, {}, 2)


def test_a_term_outside_its_domain_is_a_config_error():
    ucp = assign_utilities(single_node())
    with pytest.raises(ConfigError, match="outside its variable's domain"):
        WeightedQuery(ucp, {"x": "attr_x"}, [Term({"x": "zz"}, 1.0)])


def test_a_term_that_misses_a_variable_is_a_config_error():
    ucp = assign_utilities(chain_abc())
    with pytest.raises(ConfigError, match="^term does not assign every query variable$"):
        WeightedQuery(ucp, {}, [Term({"A": "a1", "B": "b1"}, 1.0)])


def test_terms_out_of_importance_order_are_a_config_error():
    ucp = assign_utilities(single_node())
    terms = [Term({"x": "a"}, 0.5), Term({"x": "b"}, 1.0)]
    with pytest.raises(ConfigError, match="^terms must be ordered by non-increasing importance$"):
        WeightedQuery(ucp, {"x": "attr_x"}, terms)


def test_relabeling_keeps_term_structure():
    rng = random.Random(78)
    for _ in range(20):
        net = random_cpnet(rng, max_nodes=3, max_domain=3)
        if net.outcome_count() > 12:
            continue
        term_count = min(4, net.outcome_count())
        base = rewrite(net, term_count)

        mapping = {
            v.name: {value: f"tag_{value}" for value in v.domain} for v in net.nodes
        }
        renamed_nodes = tuple(
            PreferenceVariable(v.name, tuple(mapping[v.name][d] for d in v.domain))
            for v in net.nodes
        )
        renamed_cpt = {
            name: {
                tuple(
                    mapping[p][val]
                    for p, val in zip(net.parent_names(name), key)
                ): tuple(mapping[name][v] for v in order)
                for key, order in rows.items()
            }
            for name, rows in net.cpt.items()
        }
        renamed = CPNet(nodes=renamed_nodes, edges=net.edges, cpt=renamed_cpt)
        relabeled = rewrite(renamed, term_count)

        for original, mapped in zip(base.terms, relabeled.terms):
            assert mapped.assignment == {
                name: mapping[name][value]
                for name, value in original.assignment.items()
            }
            assert mapped.importance == original.importance


# --- compile_query and documents ---------------------------------------------

QUERY_TEXT = """
var cost: attr price { prefer low > mid > high }
var wear: attr km {
    depends cost
    when cost = low: prefer high > low
    when cost = mid: prefer low > high
    when cost = high: prefer low > high
}
terms 4
"""


@pytest.fixture
def car_kb():
    from fuzzycp import AttributeConfig, KBConfig, build_knowledge_base, ingest_tabular

    rows = [(5, 200), (9, 150), (15, 90), (21, 60), (27, 35), (33, 12),
            (6, 210), (11, 130), (17, 80), (25, 45), (31, 20), (35, 8)]
    text = "price,km\n" + "\n".join(f"{p},{k}" for p, k in rows)
    ds = ingest_tabular(text)
    cfg = KBConfig(
        seed=3,
        per_attribute={
            "price": AttributeConfig(clusters=3, labels=("low", "mid", "high")),
            "km": AttributeConfig(clusters=2, labels=("low", "high")),
        },
    )
    return build_knowledge_base(ds, cfg)


def test_compile_query_end_to_end(car_kb):
    query = compile_query(QUERY_TEXT, car_kb)
    assert len(query.terms) == 4
    assert query.terms[0].assignment == {"cost": "low", "wear": "high"}
    assert query.terms[0].importance == 1.0
    assert query.bindings == {"cost": "price", "wear": "km"}


def test_compile_honors_explicit_term_count(car_kb):
    query = compile_query(QUERY_TEXT, car_kb, term_count=2)
    assert len(query.terms) == 2


@pytest.mark.parametrize("text", ["", "# nothing\n", "terms 5"])
def test_a_query_without_variables_is_refused_before_its_terms(car_kb, text):
    with pytest.raises(DegenerateQueryError, match="^query declares no variables$"):
        compile_query(text, car_kb, term_count=None if text else 3)


def test_document_round_trip(car_kb):
    query = compile_query(QUERY_TEXT, car_kb)
    doc = query_to_document(query)
    assert doc["format_version"] == 2
    back = query_from_document(json.loads(json.dumps(doc)))
    assert [t.assignment for t in back.terms] == [t.assignment for t in query.terms]
    assert [t.importance for t in back.terms] == [t.importance for t in query.terms]
    assert back.bindings == query.bindings
    assert back.ucp.tables == query.ucp.tables
    assert back.ucp.spans == query.ucp.spans
    assert back.net.edges == query.net.edges
    assert query_to_document(back) == doc
    # nets built in code, whose domain order the query text cannot always
    # express (the text takes it from the first prefer row): loading
    # derives from the stored net, so these documents reload to themselves
    rng = random.Random(80)
    for _ in range(300):
        net = random_cpnet(rng, max_nodes=6, max_domain=4)
        term_count = rng.randint(1, min(20, net.outcome_count()))
        doc = json.loads(document_text(query_to_document(rewrite(net, term_count, rng=rng))))
        assert query_to_document(query_from_document(doc)) == doc


def test_document_names_every_stale_block(car_kb):
    doc = query_to_document(compile_query(QUERY_TEXT, car_kb))
    doc["importance"]["cost"] += 1
    doc["max_total_utility"] = 0  # what older documents stored, and loading ignores
    doc["terms"][0]["importance"] = 0.5
    with pytest.raises(ConfigError) as err:
        query_from_document(doc)
    assert str(err.value).endswith("in: importance, terms")


def _leaf(doc):
    return next(name for name, importance in doc["importance"].items() if importance == 1)


# stored values that Python's == takes for the derived ones, each with the
# block it is refused in: 1 for 1.0, 1.0 for an integer step, true for 1
# and -0.0 for the 0.0 of the worst outcome, the last of all six terms
RETYPED = {
    "integer-first-term-importance": (
        lambda doc: doc["terms"][0].update(importance=1), "terms"),
    "float-step": (
        lambda doc: doc["utilities"]["cost"].update(step=float(doc["utilities"]["cost"]["step"])),
        "utilities"),
    "true-node-importance": (lambda doc: doc["importance"].update({_leaf(doc): True}), "importance"),
    "negative-zero-last-term-importance": (
        lambda doc: doc["terms"][-1].update(importance=-0.0), "terms"),
}


@pytest.mark.parametrize("case", list(RETYPED))
def test_a_stored_block_must_be_the_same_json_as_its_derivation(car_kb, case):
    edit, block = RETYPED[case]
    text = document_text(query_to_document(compile_query(QUERY_TEXT, car_kb, term_count=6)))
    query_from_document(json.loads(text))
    doc = json.loads(text)
    edit(doc)
    assert doc == json.loads(text)  # as Python compares them
    with pytest.raises(ConfigError, match=f"disagrees with its cpnet in: {block}$"):
        query_from_document(doc)


def test_document_bytes_deterministic(car_kb):
    a = document_text(query_to_document(compile_query(QUERY_TEXT, car_kb)))
    b = document_text(query_to_document(compile_query(QUERY_TEXT, car_kb)))
    assert a == b


def test_load_validates_the_net_once(car_kb, monkeypatch):
    # a net is validated as it is built, and by nothing that receives one
    from fuzzycp import Dataset, cpnet, node_importance, rank

    doc = query_to_document(compile_query(QUERY_TEXT, car_kb))
    validated = []
    validate = cpnet.validate_cpnet
    monkeypatch.setattr(cpnet, "validate_cpnet", lambda net: validated.append(net) or validate(net))

    def validations(stage, *args):
        validated.clear()
        return stage(*args), len(validated)

    spec, count = validations(parse_query, QUERY_TEXT)
    assert count == 1
    ucp, count = validations(assign_utilities, spec.net)
    assert count == 0
    bindings = {"cost": "price", "wear": "km"}
    _, count = validations(rewrite_query, ucp, car_kb, bindings)
    assert count == 0
    _, count = validations(node_importance, spec.net)
    assert count == 0
    _, count = validations(compile_query, QUERY_TEXT, car_kb)
    assert count == 1
    query, count = validations(query_from_document, doc)
    assert count == 1
    data = Dataset(["price", "km"], [[5.0, 200.0], [33.0, 12.0]])
    _, count = validations(rank, car_kb, query, data)
    assert count == 0

    # and that one validation still rejects a net it must reject
    doc["cpnet"]["edges"].append(["wear", "cost"])
    with pytest.raises(ValidationError):
        query_from_document(doc)


@pytest.mark.parametrize("doc", [[1], "terms", 3, None])
def test_document_that_is_not_an_object_is_a_config_error(doc):
    with pytest.raises(ConfigError, match="not a compiled-query document"):
        query_from_document(doc)
