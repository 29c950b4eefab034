"""Utility-weighted preference nets.

Turns a CPNet into a UCPNet: every cpt row gets numeric utility
factors that respect its preference order, and the total utility of an
outcome is the sum of the per-node factors (generalized additive form).

Utilities are generated bottom-up with integer steps.  Within a row the
worst value gets 0 and each next-preferred value adds the node's step S:

    u(t-th worst) = (t - 1) * S

For a node X with direct children B, the step is

    S(X) = max(1, sum over Y in B of maxspan(Y))

which makes the dominance inequality

    minspan(X) >= sum over Y in B of maxspan(Y)

hold by construction: a parent's smallest utility gap always outweighs
everything its children can contribute.  Steps stay integers, so the span
arithmetic is exact.
"""

from __future__ import annotations

from .cpnet import CPNet, topological_order
from .errors import AssignmentError, DegenerateUtilityError
from .record import Frozen, Record

UtilityRows = dict[tuple[str, ...], dict[str, float]]


class UCPNet(Record):
    """A CPNet plus utility tables, spans, and the additive utility ceiling.

    ``tables`` maps node -> parent context -> value -> utility.
    ``steps`` records the generation step per node.  ``spans`` holds
    (minspan, maxspan) per node.
    """

    __slots__ = ("net", "tables", "steps", "spans", "max_total_utility")

    def __init__(
        self,
        net: CPNet,
        tables: dict[str, UtilityRows],
        steps: dict[str, int],
        spans: dict[str, tuple[float, float]],
        max_total_utility: float,
    ):
        self.net = net
        self.tables = tables
        self.steps = steps
        self.spans = spans
        self.max_total_utility = max_total_utility


def spans(rows) -> tuple[float, float]:
    """(minspan, maxspan) of a bag of utility rows.

    Each row lists utilities in its preference order.  minspan is the
    smallest absolute gap between preference-adjacent utilities anywhere;
    maxspan is the largest absolute best-to-worst difference of any row.
    Rows with a single utility contribute nothing, so an all-singleton
    table spans (0, 0).
    """
    gaps = []
    extremes = []
    for row in rows:
        row = list(row)
        gaps.extend(abs(b - a) for a, b in zip(row, row[1:]))
        if row:
            extremes.append(abs(row[-1] - row[0]))
    return (min(gaps) if gaps else 0, max(extremes) if extremes else 0)


def assign_utilities(net: CPNet) -> UCPNet:
    """Generate a UCPNet whose utilities respect every cpt row's order.

    Uses the stepped scheme described in the module docstring, so every
    node's minspan covers its children's maxspans by construction.
    """
    tables: dict[str, UtilityRows] = {}
    steps: dict[str, int] = {}
    node_spans: dict[str, tuple[float, float]] = {}
    for name in reversed(topological_order(net)):
        size = len(net.variable(name).domain)
        step = max(1, sum(int(node_spans[c][1]) for c in net.child_names(name)))
        rows: UtilityRows = {}
        for context, order in net.cpt[name].items():
            # order is best-first; the worst value lands on 0
            rows[context] = {
                value: (size - 1 - position) * step
                for position, value in enumerate(order)
            }
        tables[name] = rows
        steps[name] = step
        node_spans[name] = (step, (size - 1) * step)
    max_total = sum(
        max(max(row.values()) for row in tables[v.name].values()) for v in net.nodes
    )
    return UCPNet(
        net=net,
        tables=tables,
        steps=steps,
        spans=node_spans,
        max_total_utility=max_total,
    )


class DominanceViolation(Frozen):
    __slots__ = ("node", "minspan", "required")

    def __init__(self, node: str, minspan: float, required: float):
        self._set(node=node, minspan=minspan, required=required)

    def __str__(self):
        return (
            f"{self.node}: minspan {self.minspan} is below the "
            f"children's maxspan sum {self.required}"
        )


def check_dominance(ucp: UCPNet) -> list[DominanceViolation]:
    """Empty iff minspan(X) >= sum of the direct children's maxspans, all X."""
    violations = []
    for variable in ucp.net.nodes:
        required = sum(ucp.spans[c][1] for c in ucp.net.child_names(variable.name))
        minspan = ucp.spans[variable.name][0]
        if minspan < required:
            violations.append(DominanceViolation(variable.name, minspan, required))
    return violations


def outcome_utility(ucp: UCPNet, assignment) -> float:
    """Additive utility of a complete assignment; with ``term_importance``
    a test oracle for the sums the top-T search of ``query`` keeps."""
    total = 0.0
    for variable in ucp.net.nodes:
        if variable.name not in assignment:
            raise AssignmentError(f"assignment misses variable {variable.name!r}")
        value = assignment[variable.name]
        if value not in variable.domain:
            raise AssignmentError(
                f"{value!r} is not in the domain of {variable.name!r}"
            )
        key = tuple(assignment[p] for p in ucp.net.parent_names(variable.name))
        try:
            total += ucp.tables[variable.name][key][value]
        except KeyError:
            raise AssignmentError(
                f"no utility row for {variable.name!r} under context {key!r}"
            ) from None
    return total


def term_importance(ucp: UCPNet, assignment) -> float:
    """Outcome utility normalized to [0, 1] by the additive ceiling."""
    if ucp.max_total_utility <= 0:
        raise DegenerateUtilityError("utility scale is flat; cannot normalize")
    return outcome_utility(ucp, assignment) / ucp.max_total_utility
