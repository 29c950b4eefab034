import random

import pytest

from fuzzycp import (
    AssignmentError,
    CPNet,
    DegenerateUtilityError,
    PreferenceVariable,
    UCPNet,
    ValidationError,
    assign_utilities,
    check_dominance,
    enumerate_outcomes,
    outcome_utility,
    parse_query,
    query_from_document,
    query_to_document,
    rewrite_query,
    spans,
    term_importance,
    topological_order,
)
from helpers import kb_for_net, random_cpnet
from test_cpnet import chain_abc, single_node


def best_assignment(net):
    """Greedy cpt-best pick, parents first; the additive optimum."""
    chosen = {}
    for name in topological_order(net):
        key = tuple(chosen[p] for p in net.parent_names(name))
        chosen[name] = net.cpt[name][key][0]
    return chosen


def worst_assignment(net):
    chosen = {}
    for name in topological_order(net):
        key = tuple(chosen[p] for p in net.parent_names(name))
        chosen[name] = net.cpt[name][key][-1]
    return chosen


# --- spans -------------------------------------------------------------------


def test_spans_single_row():
    assert spans([(0, 1, 2)]) == (1, 2)


def test_spans_single_value_rows():
    assert spans([(0,), (0,)]) == (0, 0)


def test_spans_mixed_rows():
    # brute force over all adjacent and extreme pairs:
    # gaps {2, 2} and {2}; extremes {4, 2}
    assert spans([(0, 2, 4), (0, 2)]) == (2, 4)


def test_spans_empty():
    assert spans([]) == (0, 0)


# --- utility generation ------------------------------------------------------


def test_single_binary_leaf():
    ucp = assign_utilities(single_node())
    row = ucp.tables["x"][()]
    assert row == {"a": 1, "b": 0}
    assert ucp.spans["x"] == (1, 1)
    assert ucp.max_total_utility == 1


def test_parent_step_covers_child_maxspan():
    # binary parent over a 3-valued leaf: leaf step 1, leaf maxspan 2,
    # so the parent needs step 2 and utilities (2, 0)
    nodes = (
        PreferenceVariable("P", ("p1", "p2")),
        PreferenceVariable("L", ("l1", "l2", "l3")),
    )
    net = CPNet(
        nodes=nodes,
        edges=(("P", "L"),),
        cpt={
            "P": {(): ("p1", "p2")},
            "L": {("p1",): ("l1", "l2", "l3"), ("p2",): ("l3", "l2", "l1")},
        },
    )
    ucp = assign_utilities(net)
    assert ucp.steps["L"] == 1
    assert ucp.spans["L"] == (1, 2)
    assert ucp.steps["P"] == 2
    assert ucp.tables["P"][()] == {"p1": 2, "p2": 0}
    assert ucp.spans["P"] == (2, 2)
    assert check_dominance(ucp) == []


def test_chain_of_binaries_keeps_unit_steps():
    ucp = assign_utilities(chain_abc())
    assert ucp.steps == {"A": 1, "B": 1, "C": 1}
    assert check_dominance(ucp) == []
    assert ucp.max_total_utility == 3


def test_rejects_invalid_net():
    # assign_utilities takes a net's validity as given: a net with a
    # non-permutation row is refused before it can be weighted
    with pytest.raises(ValidationError):
        CPNet(nodes=(PreferenceVariable("x", ("a", "b")),), edges=(), cpt={"x": {(): ("a", "a")}})


def test_generated_nets_have_no_dominance_violations():
    rng = random.Random(55)
    for _ in range(200):
        ucp = assign_utilities(random_cpnet(rng))
        assert check_dominance(ucp) == []


def test_generated_rows_respect_preference_order():
    rng = random.Random(56)
    for _ in range(100):
        net = random_cpnet(rng, max_nodes=5)
        ucp = assign_utilities(net)
        for v in net.nodes:
            for key, order in net.cpt[v.name].items():
                utilities = [ucp.tables[v.name][key][value] for value in order]
                assert all(a > b for a, b in zip(utilities, utilities[1:]))


def test_generated_spans_match_step_arithmetic():
    rng = random.Random(57)
    for _ in range(100):
        net = random_cpnet(rng, max_nodes=6)
        ucp = assign_utilities(net)
        for v in net.nodes:
            k = len(v.domain)
            step = ucp.steps[v.name]
            assert ucp.spans[v.name] == (step, (k - 1) * step)


def test_a_one_value_domain_spans_its_step_and_its_rows_span_nothing():
    # random_cpnet draws no such node; a compiled query holding one loads
    net = parse_query(
        """
        var a: attr x { prefer only }
        var b: attr y {
            depends a
            when a = only: prefer b1 > b2
        }
        """
    ).net
    ucp = assign_utilities(net)
    assert ucp.tables["a"] == {(): {"only": 0}}
    assert ucp.spans["a"] == (1, 0)
    assert spans([list(row.values()) for row in ucp.tables["a"].values()]) == (0, 0)
    assert check_dominance(ucp) == []
    kb, bindings = kb_for_net(net)
    query = rewrite_query(ucp, kb, bindings, 2)
    assert query_from_document(query_to_document(query)) == query


def test_hand_built_violation_is_reported():
    # parent spans (1, 1) but its child reaches maxspan 2
    nodes = (
        PreferenceVariable("P", ("p1", "p2")),
        PreferenceVariable("L", ("l1", "l2", "l3")),
    )
    net = CPNet(
        nodes=nodes,
        edges=(("P", "L"),),
        cpt={
            "P": {(): ("p1", "p2")},
            "L": {("p1",): ("l1", "l2", "l3"), ("p2",): ("l3", "l2", "l1")},
        },
    )
    ucp = UCPNet(net=net, steps={"P": 1, "L": 1})
    violations = check_dominance(ucp)
    assert len(violations) == 1
    assert violations[0].node == "P"
    assert violations[0].minspan == 1
    assert violations[0].required == 2
    assert str(violations[0]) == "P: minspan 1 is below the children's maxspan sum 2"


# --- outcome utility ---------------------------------------------------------


def test_all_worst_is_zero_all_best_is_ceiling():
    rng = random.Random(58)
    for _ in range(50):
        net = random_cpnet(rng, max_nodes=5)
        ucp = assign_utilities(net)
        assert outcome_utility(ucp, worst_assignment(net)) == 0
        assert outcome_utility(ucp, best_assignment(net)) == ucp.max_total_utility


def test_chain_mixed_assignment_lookup():
    # chain A->B->C, all steps 1; (a1 best, b2 worst under a1, c2 best
    # under b2) sums the looked-up factors 1 + 0 + 1
    ucp = assign_utilities(chain_abc())
    assert outcome_utility(ucp, {"A": "a1", "B": "b2", "C": "c2"}) == 2


def test_outcome_utility_rejects_incomplete_assignment():
    ucp = assign_utilities(chain_abc())
    with pytest.raises(AssignmentError):
        outcome_utility(ucp, {"A": "a1", "B": "b1"})


def test_outcome_utility_rejects_foreign_value():
    ucp = assign_utilities(chain_abc())
    with pytest.raises(AssignmentError):
        outcome_utility(ucp, {"A": "a1", "B": "b1", "C": "nope"})


def test_outcome_utility_checks_a_parent_listed_after_its_child():
    # B's row is looked up by A's value: A must be checked before it is read
    net = CPNet(
        nodes=(PreferenceVariable("B", ("b1", "b2")), PreferenceVariable("A", ("a1", "a2"))),
        edges=(("A", "B"),),
        cpt={"A": {(): ("a1", "a2")}, "B": {("a1",): ("b1", "b2"), ("a2",): ("b2", "b1")}},
    )
    ucp = assign_utilities(net)
    assert outcome_utility(ucp, {"B": "b1", "A": "a1"}) == 2  # both best
    with pytest.raises(AssignmentError, match="^assignment misses variable 'A'$"):
        outcome_utility(ucp, {"B": "b1"})
    with pytest.raises(AssignmentError, match="^'zz' is not in the domain of 'A'$"):
        outcome_utility(ucp, {"B": "b1", "A": "zz"})


# --- term importance ---------------------------------------------------------


def test_term_importance_endpoints():
    ucp = assign_utilities(chain_abc())
    net = ucp.net
    assert term_importance(ucp, best_assignment(net)) == 1.0
    assert term_importance(ucp, worst_assignment(net)) == 0.0


def test_term_importance_chain_intermediate():
    ucp = assign_utilities(chain_abc())
    value = term_importance(ucp, {"A": "a1", "B": "b2", "C": "c2"})
    assert value == pytest.approx(2.0 / 3.0)


def test_term_importance_flat_scale_is_degenerate():
    net = CPNet(
        nodes=(PreferenceVariable("X", ("only",)),),
        edges=(),
        cpt={"X": {(): ("only",)}},
    )
    ucp = assign_utilities(net)
    assert ucp.max_total_utility == 0
    with pytest.raises(DegenerateUtilityError):
        term_importance(ucp, {"X": "only"})


def test_argmax_consistency_small_nets():
    rng = random.Random(59)
    checked = 0
    while checked < 60:
        net = random_cpnet(rng, max_nodes=4, max_domain=3)
        if net.outcome_count() > 12:
            continue
        checked += 1
        ucp = assign_utilities(net)
        outcomes = list(enumerate_outcomes(net))
        brute_best = max(outcomes, key=lambda o: outcome_utility(ucp, o))
        assert outcome_utility(ucp, brute_best) == outcome_utility(
            ucp, best_assignment(net)
        )
