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
``print_tsv`` writes a ``Ranking`` as the ``eval`` TSV straight from its
arrays, through ``write_stdout``, the writer of both ``eval`` formats.
"""

from __future__ import annotations

import math
import sys
from itertools import compress

import numpy as np

from .cpnet import node_importance
from .errors import ConfigError, DegenerateQueryError
from .kb import Dataset
from .kbdoc import KnowledgeBase
from .query import WeightedQuery, check_bindings
from .record import Record


class DataProjection(Record):
    """Per-(term, variable) membership degrees of one record.

    Two projections are equal only if they are the same object.
    """

    __slots__ = (
        "record_index",
        "variables",
        "entries",  # shape (term_count, len(variables)), values in [0, 1]
        "missing",  # variables whose record value was absent
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        record_index: int,
        variables: tuple[str, ...],
        entries: np.ndarray,
        missing: tuple[str, ...],
    ):
        self._set(record_index=record_index, variables=variables, entries=entries, missing=missing)


class Evaluation(Record):
    __slots__ = (
        "term_scores",  # S_k
        "clipped",  # min(S_k, U_k)
        "score",  # max over k
    )

    def __init__(self, term_scores: tuple[float, ...], clipped: tuple[float, ...], score: float):
        self._set(term_scores=term_scores, clipped=clipped, score=score)


class Ranking(Record):
    """The rows ``rank`` returns, best first, as columns.

    Row r is place r + 1 of the full ranking.  Column i of ``missing`` is
    ``variables[i]``, true where the record has no value for it.  Two
    rankings are equal only if they are the same object.
    """

    __slots__ = (
        "variables",  # query variables, in declaration order
        "record_index",  # (n,)
        "score",  # (n,), max over k of clipped
        "term_scores",  # (n, T), S_k
        "clipped",  # (n, T), min(S_k, U_k)
        "missing",  # (n, V) bool
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        variables: tuple[str, ...],
        record_index: np.ndarray,
        score: np.ndarray,
        term_scores: np.ndarray,
        clipped: np.ndarray,
        missing: np.ndarray,
    ):
        self._set(
            variables=variables,
            record_index=record_index,
            score=score,
            term_scores=term_scores,
            clipped=clipped,
            missing=missing,
        )

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
    flagged.  The query's bindings are checked by the rule ``rank`` applies,
    before any value is read: a domain value that is not a cluster of its
    bound attribute is a BindingError.
    """
    check_bindings(query.net, kb, query.bindings)
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
            degrees = vectors[name]
            if degrees is not None:
                entries[k, i] = degrees[term.assignment[name]]
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

    The query's bindings are checked against the knowledge base by the rule
    that compiling applies, before any record is scored: a domain value that
    is not a cluster of its bound attribute is a BindingError.  ``top_n``
    (at least 1) keeps the first ``top_n`` rows of the full ranking.
    """
    if top_n is not None and top_n < 1:
        raise ConfigError(f"top_n must be at least 1, got {top_n}")
    check_bindings(query.net, kb, query.bindings)
    if not query.terms:
        raise DegenerateQueryError("query has no terms")
    variables = tuple(v.name for v in query.net.nodes)
    if not variables:
        raise DegenerateQueryError("term has no variables to aggregate")
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
    """Cluster index of the label term k picks for variable i, as a T x V
    table, for a query whose bindings ``check_bindings`` accepted."""
    table = np.empty((len(query.terms), len(variables)), dtype=np.intp)
    for i, name in enumerate(variables):
        labels = kb.model(query.bindings[name]).labels
        table[:, i] = [labels.index(term.assignment[name]) for term in query.terms]
    return table


# row k holds the digits of "%03d" % k
_DIGIT_GROUPS = np.array([list(b"%03d" % k) for k in range(1000)], dtype=np.uint8)


def _placed(groups: np.ndarray, at: int) -> np.ndarray:
    """Each row of ``groups`` at byte ``at`` of an 8-byte cell, as the
    little-endian uint64 the cell's bytes read as."""
    cells = np.zeros((len(groups), 8), dtype=np.uint8)
    cells[:, at : at + groups.shape[1]] = groups
    return cells.view("<u8").ravel()


# a "%.6f" cell "w.hhhlll" is _UNITS[w] | _THOUSANDTHS[hhh] | _MILLIONTHS[lll]
_UNITS = _placed(np.array([list(b"0."), list(b"1.")], dtype=np.uint8), 0)
_THOUSANDTHS = _placed(_DIGIT_GROUPS, 2)
_MILLIONTHS = _placed(_DIGIT_GROUPS, 5)
# fills the unused bytes of the TSV matrix: no UTF-8 text holds it, while a
# variable name read from a document may hold a NUL
_PAD = 0xFF


def print_tsv(ranking: Ranking) -> None:
    """Write the ranking to stdout as TSV, one line per row of a uint8 matrix.

    Every cell has a fixed width, its unused bytes set to ``_PAD``; the
    body is the matrix without them.  The bytes equal those of the
    ``%d``/``%.6f``/``%s`` line format.
    """
    n, term_count = ranking.term_scores.shape
    header = ["record_index", "eval"] + [f"s_{k + 1}" for k in range(term_count)] + ["flags"]
    scores = _fixed6(np.column_stack([ranking.score, ranking.term_scores]))
    tabs = np.full((n, term_count + 1, 1), ord("\t"), dtype=np.uint8)
    flagged = np.flatnonzero(ranking.missing.any(axis=1))
    names = _padded([
        ";".join(f"missing:{name}" for name in compress(ranking.variables, row))
        .encode("utf-8", "surrogatepass")
        for row in ranking.missing[flagged].tolist()
    ], width=1)
    flags = np.full((n, names.shape[1]), _PAD, dtype=np.uint8)
    flags[:, 0] = ord("-")
    flags[flagged] = names
    cells = np.concatenate([tabs, scores], axis=2)
    matrix = np.concatenate([
        _decimal(ranking.record_index),
        cells.reshape(n, cells.shape[1] * cells.shape[2]),
        tabs[:, 0],
        flags,
        np.full((n, 1), ord("\n"), dtype=np.uint8),
    ], axis=1)
    write_stdout("\t".join(header) + "\n")
    write_stdout(matrix[matrix != _PAD].tobytes().decode("utf-8", "surrogatepass"))


def write_stdout(text: str) -> None:
    """Write ``text`` to stdout, encoded as ``sys.stdout.write`` would, and
    flush it, so that a write the system cuts short raises its error.

    A buffered writer returns a short count, without raising, from a large
    write that fails part way (a file-size limit, a full disk, a closed
    pipe); writing the rest raises the system's error.  A stream without a
    byte buffer (a ``StringIO``) takes the text as it is.
    """
    stream = sys.stdout
    raw = getattr(stream, "buffer", None)
    if raw is None:
        stream.write(text)
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        data = data[raw.write(data):]
    raw.flush()


def _decimal(values: np.ndarray) -> np.ndarray:
    """``b"%d" % v`` for every non-negative v, as rows padded in front."""
    groups = -(-len(str(values.max(initial=0))) // 3)
    digits = np.empty((len(values), groups, 3), dtype=np.uint8)
    rest = values.astype(np.int64)
    for g in reversed(range(groups)):
        rest, group = np.divmod(rest, 1000)
        digits[:, g] = _DIGIT_GROUPS.take(group, axis=0)
    digits = digits.reshape(len(values), 3 * groups)
    leading = np.logical_and.accumulate(digits == ord("0"), axis=1)
    leading[:, -1] = False
    digits[leading] = _PAD
    return digits


def _fixed6(x: np.ndarray) -> np.ndarray:
    """``b"%.6f" % v`` for every v of ``x``, as byte rows padded behind:
    shape ``x.shape + (width,)``.

    k = rint(v·10^6) goes through the digit table as ``0.dddddd`` or
    ``1.000000``.  ``%`` itself formats the cells ``_printf_cells`` picks.
    """
    with np.errstate(invalid="ignore"):
        scaled = x * 1e6
        printf = _printf_cells(x, scaled)
    scaled[printf] = 0.0
    units, fraction = np.divmod(np.rint(scaled).astype(np.int32), 10**6)
    thousandths, millionths = np.divmod(fraction, 1000)
    words = _UNITS.take(units) | _THOUSANDTHS.take(thousandths) | _MILLIONTHS.take(millionths)
    cells = words.view(np.uint8).reshape(x.shape + (8,))
    if printf.any():
        texts = _padded([b"%.6f" % v for v in x[printf].tolist()], width=8)
        cells = np.pad(cells, [(0, 0)] * x.ndim + [(0, texts.shape[1] - 8)], constant_values=_PAD)
        cells[printf] = texts
    return cells


def _printf_cells(x: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """Where rint(x·10^6) may differ from ``%.6f``, which rounds the exact
    binary value: x·10^6 within 1e-6 of a half (exact ties such as 1/128
    included), x above 1 or NaN, and a set sign bit (-0.0 included)."""
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6
    return near_half | ~(x <= 1.0) | np.signbit(x)


def _padded(texts: list[bytes], width: int) -> np.ndarray:
    """The byte strings as rows of one uint8 matrix, padded behind to the
    longest of them or to ``width`` bytes."""
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    rows = np.full((len(texts), lengths.max(initial=width)), _PAD, dtype=np.uint8)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(texts), np.uint8)
    return rows
