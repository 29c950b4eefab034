import random

import pytest

from fuzzycp import (
    CapacityError,
    ConfigError,
    CPNet,
    PreferenceVariable,
    ValidationError,
    enumerate_outcomes,
    node_importance,
    topological_order,
    validate_cpnet,
)
from helpers import brute_force_valid, dag_as_net, longest_path_importance, random_cpnet, random_dag


def single_node(name="x", domain=("a", "b")):
    return CPNet(
        nodes=(PreferenceVariable(name, domain),),
        edges=(),
        cpt={name: {(): domain}},
    )


def chain_abc():
    nodes = (
        PreferenceVariable("A", ("a1", "a2")),
        PreferenceVariable("B", ("b1", "b2")),
        PreferenceVariable("C", ("c1", "c2")),
    )
    cpt = {
        "A": {(): ("a1", "a2")},
        "B": {("a1",): ("b1", "b2"), ("a2",): ("b2", "b1")},
        "C": {("b1",): ("c1", "c2"), ("b2",): ("c2", "c1")},
    }
    return CPNet(nodes=nodes, edges=(("A", "B"), ("B", "C")), cpt=cpt)


# --- validation --------------------------------------------------------------


def test_minimal_net_is_valid():
    assert validate_cpnet(single_node()) == []


def test_self_edge_is_a_cycle():
    with pytest.raises(ValidationError) as err:
        CPNet(
            nodes=(PreferenceVariable("X", ("a", "b")),),
            edges=(("X", "X"),),
            cpt={"X": {("a",): ("a", "b"), ("b",): ("a", "b")}},
        )
    assert any(v.kind == "cycle" and "X" in v.subject for v in err.value.report)


def test_missing_cpt_row_is_reported():
    with pytest.raises(ValidationError) as err:
        CPNet(
            nodes=(
                PreferenceVariable("P", ("p1", "p2")),
                PreferenceVariable("Q", ("q1", "q2")),
            ),
            edges=(("P", "Q"),),
            cpt={"P": {(): ("p1", "p2")}, "Q": {("p1",): ("q1", "q2")}},
        )
    assert any(v.kind == "cpt" and "missing row" in v.message for v in err.value.report)


def test_non_permutation_row_is_reported():
    with pytest.raises(ValidationError) as err:
        CPNet(nodes=(PreferenceVariable("x", ("a", "b")),), edges=(), cpt={"x": {(): ("a", "a")}})
    assert any("total order" in v.message for v in err.value.report)


def test_unknown_edge_endpoint_is_reported():
    with pytest.raises(ValidationError) as err:
        CPNet(
            nodes=(PreferenceVariable("X", ("a",)),),
            edges=(("X", "ghost"),),
            cpt={"X": {(): ("a",)}},
        )
    assert any(v.kind == "edge" for v in err.value.report)


def test_validator_matches_brute_force_on_random_nets():
    rng = random.Random(100)
    for _ in range(150):
        net = random_cpnet(rng)
        assert (validate_cpnet(net) == []) == brute_force_valid(net.nodes, net.edges, net.cpt)


def test_validator_matches_brute_force_on_broken_nets():
    rng = random.Random(101)
    for _ in range(150):
        net = random_cpnet(rng, max_nodes=5)
        edges, cpt = net.edges, dict(net.cpt)
        mutation = rng.choice(["drop_row", "dup_value", "reverse_edge", "ghost_edge"])
        if mutation == "drop_row":
            victim = rng.choice(list(cpt))
            rows = dict(cpt[victim])
            rows.pop(rng.choice(list(rows)))
            cpt[victim] = rows
        elif mutation == "dup_value":
            victim = rng.choice(list(cpt))
            rows = dict(cpt[victim])
            key = rng.choice(list(rows))
            first = rows[key][0]
            rows[key] = tuple(first for _ in rows[key])
            cpt[victim] = rows
        elif mutation == "reverse_edge":
            if not edges:
                continue
            parent, child = rng.choice(edges)
            edges = edges + ((child, parent),)
        else:
            edges = edges + ((net.nodes[0].name, "ghost"),)
        try:
            CPNet(nodes=net.nodes, edges=edges, cpt=cpt)
        except ValidationError as err:
            assert err.report
            built = False
        else:
            built = True
        assert built == brute_force_valid(net.nodes, edges, cpt)


def test_cycle_report_is_a_loop_of_edges():
    rng = random.Random(102)
    for _ in range(100):
        net = random_cpnet(rng, max_nodes=6)
        if not net.edges:
            continue
        parent, child = rng.choice(net.edges)
        edges = net.edges + ((child, parent),)
        with pytest.raises(ValidationError) as err:
            CPNet(nodes=net.nodes, edges=edges, cpt=net.cpt)
        [loop] = [v.subject.split(" -> ") for v in err.value.report if v.kind == "cycle"]
        assert loop[0] == loop[-1] and len(set(loop)) == len(loop) - 1
        assert set(zip(loop, loop[1:])) <= set(edges)


def test_a_built_net_cannot_be_changed():
    net = chain_abc()
    with pytest.raises(AttributeError):
        net.edges = (("C", "A"),)
    with pytest.raises(AttributeError):
        net.cpt = {}
    with pytest.raises(TypeError):
        net.cpt["A"] = {(): ("a2", "a1")}
    with pytest.raises(TypeError):
        net.cpt["B"][("a1",)] = ("b1", "b1")
    assert net.edges == (("A", "B"), ("B", "C"))
    assert net.cpt["B"][("a1",)] == ("b1", "b2")
    assert validate_cpnet(net) == []


def test_a_variable_name_is_a_letter_or_underscore_then_letters_digits_or_underscores():
    for name in ("x", "_", "_1", "X9_y", "prix_\u00e9", "\u4ef7\u683c2"):
        assert PreferenceVariable(name, ("a", "b")).name == name
    for name in ("", "we\tar", "we\nar", "a b", "a-b", "1x", "x.y", "a\u0301"):
        with pytest.raises(ConfigError, match="not a letter or _ then letters, digits or _"):
            PreferenceVariable(name, ("a", "b"))


# --- importance --------------------------------------------------------------


def test_isolated_node_importance():
    assert node_importance(single_node()) == {"x": 1}


def test_chain_importance():
    assert node_importance(chain_abc()) == {"A": 3, "B": 2, "C": 1}


def test_diamond_importance():
    # A -> B, A -> C, B -> D, C -> D: depths D=1, B=C=2, A=3
    names = ["A", "B", "C", "D"]
    edges = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
    net = dag_as_net(names, edges)
    importance = node_importance(net)
    assert importance == {"A": 3, "B": 2, "C": 2, "D": 1}
    assert importance == longest_path_importance(names, edges)


def test_importance_on_random_dags_matches_oracle():
    rng = random.Random(7)
    for _ in range(200):
        names, edges = random_dag(rng)
        net = dag_as_net(names, edges)
        assert node_importance(net) == longest_path_importance(names, edges)


def test_importance_invariant_under_relabeling():
    rng = random.Random(13)
    for _ in range(50):
        names, edges = random_dag(rng, max_nodes=6)
        mapping = {n: f"renamed_{n}" for n in names}
        base = node_importance(dag_as_net(names, edges))
        relabeled = node_importance(
            dag_as_net(
                [mapping[n] for n in names],
                [(mapping[p], mapping[c]) for p, c in edges],
            )
        )
        assert relabeled == {mapping[n]: g for n, g in base.items()}


def test_importance_rejects_invalid_net():
    # node_importance and topological_order take acyclicity as given: a
    # cyclic net is refused before either can see it
    with pytest.raises(ValidationError) as err:
        dag_as_net(["A", "B"], [("A", "B"), ("B", "A")])
    assert [v.kind for v in err.value.report] == ["cycle"]


# --- enumeration -------------------------------------------------------------


def test_enumerate_single_binary_variable():
    outcomes = list(enumerate_outcomes(single_node()))
    assert outcomes == [{"x": "a"}, {"x": "b"}]


def test_enumerate_two_binary_variables_lexicographic():
    nodes = (
        PreferenceVariable("X", ("x1", "x2")),
        PreferenceVariable("Y", ("y1", "y2")),
    )
    net = CPNet(
        nodes=nodes,
        edges=(),
        cpt={"X": {(): ("x1", "x2")}, "Y": {(): ("y1", "y2")}},
    )
    outcomes = [(o["X"], o["Y"]) for o in enumerate_outcomes(net)]
    assert outcomes == [("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2")]


def test_enumerate_counts_products():
    nodes = (
        PreferenceVariable("X", ("a", "b")),
        PreferenceVariable("Y", ("c", "d", "e")),
        PreferenceVariable("Z", ("f", "g")),
    )
    net = CPNet(
        nodes=nodes,
        edges=(),
        cpt={"X": {(): ("a", "b")}, "Y": {(): ("c", "d", "e")}, "Z": {(): ("f", "g")}},
    )
    outcomes = list(enumerate_outcomes(net))
    assert len(outcomes) == 12
    assert len({tuple(sorted(o.items())) for o in outcomes}) == 12


def test_enumerate_respects_cap():
    net = chain_abc()
    with pytest.raises(CapacityError):
        enumerate_outcomes(net, cap=7)


def test_topological_order_is_stable():
    net = chain_abc()
    assert topological_order(net) == ("A", "B", "C")
