"""Score and rank records against a compiled query.

Each record is projected onto the query's criteria space: for term k and
query variable i, the projection holds the record's membership degree to
the cluster labeled by the value term k picked for variable i.  Per-term
scores weight those memberships by node importance,

    S_k = sum_i(mu_ki * G_i) / sum_i(G_i)

summed left to right in variable declaration order, and the final
relevance is the fuzzy weighted disjunction

    score = max over k of min(S_k, U_k)

where U_k is the term's importance.  A record missing a bound attribute
(absent column, empty or non-finite cell) degrades (membership 0, flagged)
instead of failing.

``rank`` is columnar: it scores the whole dataset with one membership grid
per query variable, accumulated into an n x T matrix of S_k, and returns
the rows it keeps as one ``Ranking`` of arrays, best first.  ``project``
and ``evaluate`` score one record with plain loops; they are the oracles
``rank`` is tested against, bit for bit, not a second production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpnet import node_importance
from .errors import BindingError, ConfigError, DegenerateQueryError
from .kb import Dataset, KnowledgeBase
from .query import WeightedQuery


@dataclass
class DataProjection:
    """Per-(term, variable) membership degrees of one record."""

    record_index: int
    variables: tuple[str, ...]
    entries: np.ndarray  # shape (term_count, len(variables)), values in [0, 1]
    missing: tuple[str, ...]  # variables whose record value was absent


@dataclass
class Evaluation:
    term_scores: tuple[float, ...]  # S_k
    clipped: tuple[float, ...]  # min(S_k, U_k)
    score: float  # max over k


@dataclass(frozen=True, eq=False)
class Ranking:
    """The rows ``rank`` returns, best first, as columns.

    Row r is place r + 1 of the full ranking.  Column i of ``missing`` is
    ``variables[i]``, true where the record has no value for it.
    """

    variables: tuple[str, ...]  # query variables, in declaration order
    record_index: np.ndarray  # (n,)
    score: np.ndarray  # (n,), max over k of clipped
    term_scores: np.ndarray  # (n, T), S_k
    clipped: np.ndarray  # (n, T), min(S_k, U_k)
    missing: np.ndarray  # (n, V) bool

    def __len__(self) -> int:
        return len(self.record_index)


def project(
    kb: KnowledgeBase,
    query: WeightedQuery,
    record,
    record_index: int = 0,
) -> DataProjection:
    """Membership of ``record`` to every term's chosen clusters.

    ``record`` maps attribute names to values; a missing or non-finite
    value scores membership 0 for that variable under every term and is
    flagged.  A term label with no matching cluster is a BindingError.
    """
    variables = tuple(v.name for v in query.net.nodes)
    vectors: dict[str, dict[str, float] | None] = {}
    missing = []
    for name in variables:
        attribute = query.bindings[name]
        value = record.get(attribute)
        if value is None or not math.isfinite(value):
            vectors[name] = None
            missing.append(name)
            continue
        model = kb.model(attribute)
        grid = kb.membership_of(attribute, float(value))
        vectors[name] = dict(zip(model.labels, grid))

    entries = np.zeros((len(query.terms), len(variables)))
    for k, term in enumerate(query.terms):
        for i, name in enumerate(variables):
            wanted = term.assignment[name]
            degrees = vectors[name]
            if degrees is None:
                continue
            if wanted not in degrees:
                raise BindingError(
                    f"no cluster labeled {wanted!r} for attribute "
                    f"{query.bindings[name]!r}"
                )
            entries[k, i] = degrees[wanted]
    return DataProjection(
        record_index=record_index,
        variables=variables,
        entries=entries,
        missing=tuple(missing),
    )


def aggregate_term_score(memberships, importances) -> float:
    """Importance-weighted mean of one term's membership entries.

    Sums left to right, the order ``rank`` accumulates in; ``np.dot`` would
    sum in an order that depends on the BLAS build.
    """
    pairs = list(zip(memberships, importances, strict=True))
    if not pairs:
        raise DegenerateQueryError("term has no variables to aggregate")
    weighted = total = 0.0
    for membership, weight in pairs:
        weighted += float(membership) * float(weight)
        total += float(weight)
    if total <= 0:
        raise DegenerateQueryError("importance weights sum to zero")
    return min(max(weighted / total, 0.0), 1.0)


def evaluate(
    projection: DataProjection,
    query: WeightedQuery,
    importance: dict[str, int],
) -> Evaluation:
    """All S_k, all min(S_k, U_k), and their maximum."""
    if not query.terms:
        raise DegenerateQueryError("query has no terms")
    weights = [importance[name] for name in projection.variables]
    term_scores = tuple(
        aggregate_term_score(projection.entries[k], weights)
        for k in range(len(query.terms))
    )
    clipped = tuple(
        min(s, term.importance) for s, term in zip(term_scores, query.terms)
    )
    return Evaluation(term_scores=term_scores, clipped=clipped, score=max(clipped))


def rank(
    kb: KnowledgeBase,
    query: WeightedQuery,
    dataset: Dataset,
    top_n: int | None = None,
) -> Ranking:
    """Score every record and sort best-first; ties keep the input order.

    The query is checked against the knowledge base before any record is
    scored: a term label that is not a cluster of its bound attribute is a
    BindingError.  ``top_n`` (at least 1) keeps the first ``top_n`` rows of
    the full ranking.
    """
    if top_n is not None and top_n < 1:
        raise ConfigError(f"top_n must be at least 1, got {top_n}")
    variables = tuple(v.name for v in query.net.nodes)
    labels = _label_table(kb, query, variables)
    importance = node_importance(query.net)
    weights = [float(importance[name]) for name in variables]

    # S_k, accumulated one variable at a time in declaration order
    n = dataset.record_count
    term_scores = np.zeros((n, len(query.terms)))
    missing = np.empty((n, len(variables)), dtype=bool)
    for i, (name, weight) in enumerate(zip(variables, weights)):
        attribute = query.bindings[name]
        if attribute in dataset.attributes:
            column = dataset.column(attribute)
        else:
            column = np.full(n, np.nan)
        missing[:, i] = ~np.isfinite(column)
        grid = kb.membership_grid(attribute, column)
        term_scores += grid[:, labels[:, i]] * weight
    term_scores /= sum(weights)
    np.clip(term_scores, 0.0, 1.0, out=term_scores)
    clipped = np.minimum(term_scores, [t.importance for t in query.terms])
    scores = clipped.max(axis=1)

    order = np.lexsort((np.arange(n), -scores))[:top_n]
    return Ranking(
        variables, order, scores[order], term_scores[order], clipped[order], missing[order]
    )


def _label_table(kb: KnowledgeBase, query: WeightedQuery, variables) -> np.ndarray:
    """Cluster index of the label term k picks for variable i, as a T x V table.

    Raises when the query cannot be scored against ``kb`` at all.
    """
    if not query.terms:
        raise DegenerateQueryError("query has no terms")
    if not variables:
        raise DegenerateQueryError("term has no variables to aggregate")
    table = np.empty((len(query.terms), len(variables)), dtype=np.intp)
    for i, name in enumerate(variables):
        attribute = query.bindings.get(name)
        if attribute not in kb.models:
            raise BindingError(
                f"variable {name!r} is bound to {attribute!r}, "
                "which the knowledge base does not cover"
            )
        labels = kb.model(attribute).labels
        for k, term in enumerate(query.terms):
            wanted = term.assignment[name]
            if wanted not in labels:
                raise BindingError(
                    f"no cluster labeled {wanted!r} for attribute {attribute!r}"
                )
            table[k, i] = labels.index(wanted)
    return table
