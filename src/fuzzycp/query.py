"""Compile a preference net into weighted disjunctive form.

A compiled query is the net weighted as a UCP-net, its variables bound to
knowledge-base attributes, and a disjunction of conjunctive terms.  Each
term is one complete outcome of the net (every variable paired with a
value), and terms are the top-T outcomes by additive utility, most
important first.  A term's importance is its normalized utility, so the
best outcome always opens the list with importance 1.

The compiled-query document stores the net and, for readers, everything
derived from it.  Loading decodes only the net and derives the rest again,
with as many terms as the document stores.  Version 2 holds no query text;
the text that version 1 printed from the net is ignored.
"""

from __future__ import annotations

import heapq

from .cpnet import OUTCOME_CAP, CPNet, PreferenceVariable, node_importance, topological_order
from .errors import BindingError, CapacityError, ConfigError, DegenerateUtilityError
from .kbdoc import KnowledgeBase, check_document, check_shape, load_document, save_document
from .record import Record
from .ucp import UCPNet, assign_utilities


class Term(Record):
    """One conjunctive disjunct: a complete assignment and its importance."""

    __slots__ = ("assignment", "importance")

    def __init__(self, assignment: dict[str, str], importance: float):
        self._set(assignment=assignment, importance=importance)


class WeightedQuery(Record):
    """A UCP-net, its bindings (variable -> attribute) and its weighted terms."""

    __slots__ = ("ucp", "bindings", "terms")

    def __init__(self, ucp: UCPNet, bindings: dict[str, str], terms: tuple[Term, ...]):
        terms = tuple(terms)
        domains = {v.name: v.domain for v in ucp.net.nodes}
        for term in terms:
            if term.assignment.keys() != domains.keys():
                raise ConfigError("term does not assign every query variable")
            if not all(value in domains[name] for name, value in term.assignment.items()):
                raise ConfigError("term assigns a value outside its variable's domain")
        importances = [t.importance for t in terms]
        if any(b > a for a, b in zip(importances, importances[1:])):
            raise ConfigError("terms must be ordered by non-increasing importance")
        self._set(ucp=ucp, bindings=bindings, terms=terms)

    @property
    def net(self) -> CPNet:
        return self.ucp.net


def rewrite_query(
    ucp: UCPNet,
    kb: KnowledgeBase,
    bindings: dict[str, str],
    term_count: int | None = None,
) -> WeightedQuery:
    """The UCP-net's top-T outcomes as terms, sorted by importance.

    Every variable must be bound to a knowledge-base attribute whose labels
    include the variable's whole domain.  Ties in utility break
    lexicographically (topological node order, then domain position), which
    is exactly the enumeration order of ``enumerate_outcomes``.  T defaults
    to min(5, outcome count); a T above the outcome count or above
    ``OUTCOME_CAP`` raises ``CapacityError``.
    """
    check_bindings(ucp.net, kb, bindings)
    return WeightedQuery(ucp, dict(bindings), _rewrite(ucp, term_count))


def _rewrite(ucp: UCPNet, term_count) -> tuple[Term, ...]:
    """The terms of ``rewrite_query`` after its checks, which loading a
    compiled query, with no knowledge base at hand, shares.  An importance
    is the search's exact utility over the additive ceiling."""
    outcome_count = ucp.net.outcome_count()
    if term_count is None:
        term_count = min(5, outcome_count)
    if term_count < 1:
        raise ConfigError("term count must be at least 1")
    if term_count > outcome_count:
        raise CapacityError(
            f"asked for {term_count} terms but the net has only "
            f"{outcome_count} outcomes"
        )
    if term_count > OUTCOME_CAP:
        raise CapacityError(f"asked for {term_count} terms, above the cap of {OUTCOME_CAP}")
    if ucp.max_total_utility <= 0:
        raise DegenerateUtilityError("utility scale is flat; cannot normalize")
    return tuple(
        Term({v.name: outcome[v.name] for v in ucp.net.nodes}, utility / ucp.max_total_utility)
        for outcome, utility in _top_outcomes(ucp, term_count)
    )


def _top_outcomes(ucp: UCPNet, count: int) -> list[tuple[dict[str, str], int]]:
    """The ``count`` outcomes of highest utility with their utilities, best
    first.

    Best-first search over partial assignments in topological order, each
    held as its prefix of domain indices; a pop assigns the next node every
    value of its domain.  A prefix is keyed by its utility so far plus, for
    every node it leaves unassigned, that node's maxspan, its largest
    utility: an upper bound on any completion, so complete outcomes leave
    the heap in utility order.  Equal keys go to the lexicographically
    smaller prefix, which never comes after any of its extensions; that
    reproduces the enumeration order among equal utilities.  Sums are exact,
    since a UCP-net's utilities are multiples of its integer steps.
    """
    net = ucp.net
    order = topological_order(net)
    position = {name: depth for depth, name in enumerate(order)}
    domains = [net.variable(name).domain for name in order]
    parents = [tuple(position[p] for p in net.parent_names(name)) for name in order]
    tables = [ucp.tables[name] for name in order]
    # rest[d]: the most the nodes from depth d on can add
    rest = [0] * (len(order) + 1)
    for depth in reversed(range(len(order))):
        rest[depth] = rest[depth + 1] + ucp.spans[order[depth]][1]

    heap = [(-rest[0], (), 0)]  # (-bound, prefix, utility of prefix)
    found = []
    while len(found) < count:
        _, prefix, utility = heapq.heappop(heap)
        depth = len(prefix)
        if depth == len(order):
            found.append(({order[d]: domains[d][i] for d, i in enumerate(prefix)}, utility))
            continue
        row = tables[depth][tuple(domains[p][prefix[p]] for p in parents[depth])]
        for index, value in enumerate(domains[depth]):
            total = utility + row[value]
            heapq.heappush(heap, (-(total + rest[depth + 1]), prefix + (index,), total))
    return found


def check_bindings(net: CPNet, kb: KnowledgeBase, bindings: dict[str, str]) -> None:
    """The binding rule of both compiling and ranking: every variable is
    bound to an attribute of ``kb`` whose labels include its whole domain."""
    for variable in net.nodes:
        attribute = bindings.get(variable.name)
        if attribute is None:
            raise BindingError(f"variable {variable.name!r} is not bound to an attribute")
        if attribute not in kb.models:
            raise BindingError(
                f"variable {variable.name!r} is bound to {attribute!r}, "
                "which the knowledge base does not cover"
            )
        labels = set(kb.model(attribute).labels)
        missing = [v for v in variable.domain if v not in labels]
        if missing:
            raise BindingError(
                f"attribute {attribute!r} has no clusters labeled {missing} "
                f"(variable {variable.name!r})"
            )


def compile_query(
    text: str,
    kb: KnowledgeBase,
    term_count: int | None = None,
) -> WeightedQuery:
    """Parse, weight, and rewrite a query in one step.

    ``term_count`` overrides the text's own ``terms`` clause.
    """
    from .dsl import parse_query  # the one reader of query text; no other stage loads it

    spec = parse_query(text)
    requested = term_count if term_count is not None else spec.term_count
    return rewrite_query(assign_utilities(spec.net), kb, spec.bindings, requested)


# --- compiled-query document ------------------------------------------------


def query_to_document(query: WeightedQuery) -> dict:
    net, ucp = query.net, query.ucp
    nodes = []
    for v in net.nodes:
        nodes.append(
            {
                "name": v.name,
                "attribute": query.bindings[v.name],
                "domain": list(v.domain),
                "parents": list(net.parent_names(v.name)),
            }
        )
    cpt = {
        v.name: [
            {
                "when": dict(zip(net.parent_names(v.name), key)),
                "order": list(order),
            }
            for key, order in net.cpt[v.name].items()
        ]
        for v in net.nodes
    }
    utilities = {
        v.name: {
            "step": ucp.steps[v.name],
            "minspan": ucp.spans[v.name][0],
            "maxspan": ucp.spans[v.name][1],
            "rows": [
                {
                    "when": dict(zip(net.parent_names(v.name), key)),
                    "values": dict(row),
                }
                for key, row in ucp.tables[v.name].items()
            ],
        }
        for v in net.nodes
    }
    return {
        "format_version": 2,
        "bindings": dict(query.bindings),
        "cpnet": {
            "nodes": nodes,
            "edges": [list(e) for e in net.edges],
            "cpt": cpt,
        },
        "utilities": utilities,
        "max_total_utility": ucp.max_total_utility,
        "importance": node_importance(net),
        "terms": [
            {
                "assignment": dict(t.assignment),
                "importance": t.importance,
            }
            for t in query.terms
        ],
    }


def query_from_document(doc: dict) -> WeightedQuery:
    """Rebuild a compiled query from its ``cpnet`` block alone.

    The bindings are the nodes' attributes; the rest is derived by the code
    that compiled it, with T = the number of stored terms.  A version 1
    document's ``query`` text is ignored.  An entry that loading reads and
    that has the wrong shape is a ConfigError naming it.  A stored block
    that differs from its derivation is a ConfigError naming every such
    block, so a document cannot say two different things.
    """
    check_document(doc, _SHAPE, "compiled query")
    net, bindings = _decode_net(doc["cpnet"])
    ucp = assign_utilities(net)
    query = WeightedQuery(ucp, bindings, _rewrite(ucp, len(doc["terms"])))

    derived = query_to_document(query)
    # a stored term's other keys, like the weights of older versions, go unread
    terms = [{"assignment": t.get("assignment"), "importance": t.get("importance")}
             for t in doc["terms"]]
    stored = {**doc, "terms": terms}
    blocks = ("bindings", "cpnet", "utilities", "max_total_utility", "importance", "terms")
    stale = [key for key in blocks if not _same_json(stored.get(key), derived[key])]
    if stale:
        raise ConfigError(f"compiled query disagrees with its cpnet in: {', '.join(stale)}")
    return query


def _same_json(stored, derived) -> bool:
    """``stored == derived`` for two JSON values, except that a boolean
    equals no number, as ``True == 1`` would in Python."""
    if isinstance(stored, dict):
        return (isinstance(derived, dict) and stored.keys() == derived.keys()
                and all(_same_json(stored[key], derived[key]) for key in stored))
    if isinstance(stored, list):
        return (isinstance(derived, list) and len(stored) == len(derived)
                and all(map(_same_json, stored, derived)))
    return stored == derived and isinstance(stored, bool) == isinstance(derived, bool)


# What loading reads of a compiled query, in the form ``check_shape`` takes.
_SHAPE = {
    "cpnet": {
        "nodes": [{"name": str, "domain": [str], "parents": [str], "attribute": str}],
        "edges": [[str]],
        "cpt": dict,
    },
    "terms": [dict],
}


def _decode_net(block: dict) -> tuple[CPNet, dict[str, str]]:
    """The net and bindings of a ``cpnet`` block of the right shape; an edge
    or row that still cannot be read is a ConfigError that names it."""
    if any(len(edge) != 2 for edge in block["edges"]):
        raise ConfigError("compiled query: cpnet.edges must be [parent, child] pairs")
    parents = {n["name"]: tuple(n["parents"]) for n in block["nodes"]}
    cpt = {}
    for name, rows in block["cpt"].items():
        check_shape(rows, [{"when": dict, "order": [str]}], "compiled query", f"cpnet.cpt.{name}")
        keys = [tuple(row["when"].get(p) for p in parents.get(name, ())) for row in rows]
        if not all(isinstance(value, str) for key in keys for value in key):
            raise ConfigError(f"compiled query: a cpnet.cpt.{name} row misses a parent value")
        cpt[name] = {key: tuple(row["order"]) for key, row in zip(keys, rows)}
    nodes = tuple(PreferenceVariable(n["name"], tuple(n["domain"])) for n in block["nodes"])
    net = CPNet(nodes=nodes, edges=tuple(map(tuple, block["edges"])), cpt=cpt)
    return net, {n["name"]: n["attribute"] for n in block["nodes"]}


def save_query(query: WeightedQuery, path) -> None:
    save_document(query_to_document(query), path)


def load_query(path) -> WeightedQuery:
    return query_from_document(load_document(path))
