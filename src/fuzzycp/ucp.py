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

from .cpnet import CPNet, PreferenceVariable, topological_order
from .errors import AssignmentError, DegenerateUtilityError
from .record import Record

UtilityRows = dict[tuple[str, ...], dict[str, float]]


class UCPNet(Record):
    """A CPNet plus one integer utility step per node.

    The rest is derived from the two, once, by the stepped scheme of the
    module docstring, and is read-only:

    - ``tables`` maps node -> parent context -> value -> utility: a row's
      worst value gets 0 and each next-preferred value one step more;
    - ``spans`` maps node -> (minspan, maxspan), which is
      (step, (k - 1) * step) for a domain of k values, so a one-value
      domain spans (step, 0) although its rows alone span (0, 0);
    - ``max_total_utility`` is the additive ceiling, the sum of the
      maxspans.
    """

    __slots__ = ("net", "steps", "_tables", "_spans", "_max_total_utility")

    def _check(self):
        tables: dict[str, UtilityRows] = {}
        spans: dict[str, tuple[int, int]] = {}
        for variable in self.net.nodes:
            name, step = variable.name, self.steps[variable.name]
            maxspan = _maxspan(variable, step)
            # order is best-first: the best value gets the maxspan, the worst 0
            tables[name] = {
                context: {value: maxspan - position * step for position, value in enumerate(order)}
                for context, order in self.net.cpt[name].items()
            }
            spans[name] = (step, maxspan)
        ceiling = sum(maxspan for _, maxspan in spans.values())
        self._set(_tables=tables, _spans=spans, _max_total_utility=ceiling)

    tables = property(lambda self: self._tables)
    spans = property(lambda self: self._spans)
    max_total_utility = property(lambda self: self._max_total_utility)


def _maxspan(variable: PreferenceVariable, step: int) -> int:
    """A node's largest utility, and so its largest best-to-worst gap."""
    return (len(variable.domain) - 1) * step


def spans(rows) -> tuple[float, float]:
    """(minspan, maxspan) of a bag of utility rows.

    Each row lists utilities in its preference order.  minspan is the
    smallest absolute gap between preference-adjacent utilities anywhere;
    maxspan is the largest absolute best-to-worst difference of any row.
    Rows with a single utility contribute nothing, so an all-singleton
    table spans (0, 0), where ``UCPNet.spans`` gives a one-value domain
    (step, 0).
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
    """Weight ``net`` by the stepped scheme of the module docstring.

    Only the steps are chosen here, each from the node's children's
    maxspans, so every node's minspan covers them by construction.
    """
    steps: dict[str, int] = {}
    for name in reversed(topological_order(net)):
        children = net.child_names(name)
        steps[name] = max(1, sum(_maxspan(net.variable(c), steps[c]) for c in children))
    return UCPNet(net, steps)


class DominanceViolation(Record):
    __slots__ = ("node", "minspan", "required")

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
    a test oracle for the sums the top-T search of ``query`` keeps.  Every
    value is checked before any row is read, a parent's listed after its
    child's too; the tables hold a row for every context of domain values."""
    for variable in ucp.net.nodes:
        if variable.name not in assignment:
            raise AssignmentError(f"assignment misses variable {variable.name!r}")
        if assignment[variable.name] not in variable.domain:
            value = assignment[variable.name]
            raise AssignmentError(f"{value!r} is not in the domain of {variable.name!r}")
    total = 0.0
    for variable in ucp.net.nodes:
        key = tuple(assignment[p] for p in ucp.net.parent_names(variable.name))
        total += ucp.tables[variable.name][key][assignment[variable.name]]
    return total


def term_importance(ucp: UCPNet, assignment) -> float:
    """Outcome utility normalized to [0, 1] by the additive ceiling."""
    if ucp.max_total_utility <= 0:
        raise DegenerateUtilityError("utility scale is flat; cannot normalize")
    return outcome_utility(ucp, assignment) / ucp.max_total_utility
