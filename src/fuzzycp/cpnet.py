"""Conditional preference networks.

A net is a directed acyclic graph over preference variables.  Every node
carries a conditional preference table (cpt): for each complete assignment
of its parents, a total order over the node's own domain, most preferred
value first.  Node importance falls out of graph position alone: leaves
count 1, every internal node counts one more than its deepest child.
Every function here and in the later stages takes a net's validity as
given: a ``CPNet`` is checked once, when it is built, and cannot change.
Building a net orders it once, by Kahn's algorithm; a cyclic net is
refused with the first cycle reached from the first node in declaration
order that the pass could not place, the same report on every run.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Mapping
from types import MappingProxyType

from .errors import CapacityError, ConfigError, ValidationError
from .record import Record

# the most outcomes enumerate_outcomes yields or rewrite_query returns as terms
OUTCOME_CAP = 1_000_000


class PreferenceVariable(Record):
    __slots__ = ("name", "domain")

    def __init__(self, name: str, domain: tuple[str, ...]):
        domain = tuple(domain)
        if not domain:
            raise ConfigError(f"variable {name!r} has an empty domain")
        if len(set(domain)) != len(domain):
            raise ConfigError(f"variable {name!r} repeats a domain value")
        self._set(name=name, domain=domain)


class Violation(Record):
    """One broken invariant, identified by the node or edge it concerns."""

    __slots__ = ("kind", "subject", "message")

    def __init__(self, kind: str, subject: str, message: str):
        self._set(kind=kind, subject=subject, message=message)

    def __str__(self):
        return f"{self.kind} at {self.subject}: {self.message}"


class CPNet(Record):
    """Preference graph plus conditional preference tables.

    ``nodes`` keeps declaration order, which breaks every tie in this
    package (topological sorts, outcome enumeration, serialization).
    ``cpt`` maps node name -> parent-value tuple -> preference order
    (best first).  Parent values inside a key follow the order the
    parents were declared in ``edges``.

    Building a net runs ``validate_cpnet`` and raises ``ValidationError``
    with a non-empty report.  A net is immutable, ``cpt`` rows included.
    """

    __slots__ = ("nodes", "edges", "cpt", "_by_name", "_parents", "_children", "_order")

    def __init__(
        self,
        nodes: tuple[PreferenceVariable, ...],
        edges: tuple[tuple[str, str], ...],
        cpt: Mapping[str, Mapping[tuple[str, ...], tuple[str, ...]]],
    ):
        nodes = tuple(nodes)
        edges = tuple((p, c) for p, c in edges)
        parents: dict[str, dict[str, None]] = {}
        children: dict[str, dict[str, None]] = {}
        for parent, child in edges:
            parents.setdefault(child, {})[parent] = None
            children.setdefault(parent, {})[child] = None
        cpt = {
            node: MappingProxyType({tuple(k): tuple(v) for k, v in rows.items()})
            for node, rows in cpt.items()
        }
        by_name = {v.name: v for v in nodes}
        self._set(
            nodes=nodes,
            edges=edges,
            cpt=MappingProxyType(cpt),
            _by_name=by_name,
            _parents={n: tuple(ps) for n, ps in parents.items()},
            _children={n: tuple(cs) for n, cs in children.items()},
            _order=_kahn(list(by_name), parents, children),
        )
        report = validate_cpnet(self)
        if report:
            raise ValidationError(report)

    def variable(self, name: str) -> PreferenceVariable:
        return self._by_name[name]

    def parent_names(self, name: str) -> tuple[str, ...]:
        """Distinct parents in the order ``edges`` first names them."""
        return self._parents.get(name, ())

    def child_names(self, name: str) -> tuple[str, ...]:
        """Distinct children in the order ``edges`` first names them."""
        return self._children.get(name, ())

    def outcome_count(self) -> int:
        return math.prod(len(v.domain) for v in self.nodes)


def validate_cpnet(net: CPNet) -> list[Violation]:
    """Check every structural invariant; an empty list means a valid net.

    Violations are returned, never raised: the report is data.  Every
    ``CPNet`` passes it, since building one runs it.
    """
    report: list[Violation] = []
    names = [v.name for v in net.nodes]
    known = set(names)
    for name in sorted({n for n in names if names.count(n) > 1}):
        report.append(Violation("node", name, "declared more than once"))

    seen_edges = set()
    for parent, child in net.edges:
        for end in (parent, child):
            if end not in known:
                report.append(Violation("edge", f"{parent}->{child}", f"unknown node {end!r}"))
        if (parent, child) in seen_edges:
            report.append(Violation("edge", f"{parent}->{child}", "duplicate edge"))
        seen_edges.add((parent, child))

    # a node that Kahn's pass left unplaced has a declared parent it left
    # unplaced, so the walk up from the first one comes back to a node on it
    unplaced = known.difference(net._order)
    name = next((n for n in names if n in unplaced), None)
    if name is not None:
        walk: dict[str, int] = {}
        while name not in walk:
            walk[name] = len(walk)
            name = next(p for p in net.parent_names(name) if p in unplaced)
        loop = list(walk)[walk[name]:]  # child -> parent, from the node met again
        cycle = [name, *reversed(loop)]
        report.append(Violation("cycle", " -> ".join(cycle), "dependencies form a cycle"))

    for node in net.nodes:
        rows = net.cpt.get(node.name)
        if rows is None:
            report.append(Violation("cpt", node.name, "no preference table"))
            continue
        parents = [p for p in net.parent_names(node.name) if p in known]
        expected = set(
            itertools.product(*(net.variable(p).domain for p in parents))
        )
        for key in sorted(set(rows) - expected):
            report.append(
                Violation("cpt", node.name, f"row for impossible parent context {key!r}")
            )
        for key in sorted(expected - set(rows)):
            report.append(
                Violation("cpt", node.name, f"missing row for parent context {key!r}")
            )
        for key, order in sorted(rows.items()):
            if sorted(order) != sorted(node.domain):
                report.append(
                    Violation(
                        "cpt",
                        node.name,
                        f"row {key!r} is not a total order over the domain: {order!r}",
                    )
                )
    return report


def _kahn(names, parents, children) -> tuple[str, ...]:
    """Kahn's algorithm over the declared ``names``: from a heap of ready
    positions, each step places the first-declared node whose declared
    parents are all placed.  The nodes on or below a cycle stay unplaced."""
    position = {n: i for i, n in enumerate(names)}
    indegree = {n: sum(p in position for p in parents.get(n, ())) for n in names}
    ready = [i for i, n in enumerate(names) if indegree[n] == 0]
    order = []
    while ready:
        name = names[heapq.heappop(ready)]
        order.append(name)
        for child in children.get(name, ()):
            if child in indegree:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, position[child])
    return tuple(order)


def topological_order(net: CPNet) -> tuple[str, ...]:
    """Parents before children; ties resolved by declaration order: the
    order Kahn's algorithm gave the net when it was built."""
    return net._order


def node_importance(net: CPNet) -> dict[str, int]:
    """Positional importance of every node.

    Leaves score 1; an internal node scores one more than the maximum over
    its direct children, i.e. 1 + the longest downward path to a leaf.
    """
    importance: dict[str, int] = {}
    for name in reversed(topological_order(net)):
        children = net.child_names(name)
        if children:
            importance[name] = 1 + max(importance[c] for c in children)
        else:
            importance[name] = 1
    return importance


def enumerate_outcomes(net: CPNet, cap: int = OUTCOME_CAP):
    """Yield every complete assignment exactly once.

    Order is lexicographic over (topologically sorted node, domain index),
    so the first outcome assigns every node its first domain value.  This
    is the reference the top-T search of ``query.rewrite_query`` is tested
    against; the package itself never enumerates.
    """
    count = net.outcome_count()
    if count > cap:
        raise CapacityError(f"outcome space {count} exceeds cap {cap}")
    order = topological_order(net)
    domains = [net.variable(n).domain for n in order]
    return (dict(zip(order, combo)) for combo in itertools.product(*domains))
