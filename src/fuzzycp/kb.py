"""Fuzzy knowledge base built from tabular data: the numeric half.

Each numeric attribute is segmented into fuzzy regions with fuzzy c-means:

    minimize  J = sum_i sum_j  u_ij^m * (x_i - c_j)^2
    subject to  sum_j u_ij = 1,  u_ij in [0, 1]

with the usual alternating updates

    u_ij = 1 / sum_k (d_ij / d_ik)^(2/(m-1))          (membership)
    c_j  = sum_i u_ij^m x_i / sum_i u_ij^m            (centroid)

A point sitting exactly on a centroid gets membership 1 there and 0
elsewhere.  Converged centroids are sorted ascending so linguistic labels
("low" < "high") always attach in a stable order.

Records with equal values get equal memberships, so the updates run on the
column's distinct values, each weighted by its count n_k (brFCM: Eschrich,
Ke, Hall & Goldgof, IEEE TFS 2003):

    c_j  = sum_k n_k u_kj^m x_k / sum_k n_k u_kj^m

This is the arithmetic of a loop over the records with its terms summed in
another order: the iteration counts are the same, and the centroids differ
only by rounding (the tests allow 1e-12 times the column's largest
magnitude).

The loop starts at the column's quantiles, each moved by a little uniform
noise that breaks ties between equal quantiles.  The noise comes from the
standard library's ``random`` (MT19937), which draws the same numbers on
every platform; ``numpy.random`` would cost a stage the import of
``secrets``, ``hmac`` and ``_hashlib`` for a few draws.

The knowledge base is the per-attribute cluster models (centroids, labels,
fuzzifier).  Memberships are not stored: a value's degrees follow from the
centroids by the membership formula, for training and unseen values alike.
This module reads tables, runs fuzzy c-means and holds the membership
kernel, all with numpy; the document classes and the build settings are
``kbdoc``'s, which needs no numpy.

A table is read from its UTF-8 bytes: Python's ``csv`` reads the header,
and numpy's C reader the rows, in one pass with ``nan`` written into every
empty cell.  A table the C reader refuses or warns about (quotes,
whitespace-only cells, ragged or no rows, bytes that are not UTF-8) is
decoded whole and read by the ``csv`` row parser, which locates a bad cell
for the error.
"""

import csv
import io
import math
import numbers
import random
import warnings

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDataError,
    EmptyDatasetError,
    ParseError,
    ShapeError,
)
from .kbdoc import (
    DEFAULT_FUZZIFIER,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ClusterModel,
    KBConfig,
    KnowledgeBase,
    default_labels,
    one_line,
)
from .record import Record


class Dataset(Record, by_identity=True):
    """Rectangular numeric table: one row per record, one column per attribute.

    ``records`` has shape (record_count, len(attributes)).  Missing cells
    are stored as NaN; everything else is a finite float.
    """

    __slots__ = ("attributes", "records")  # a list of str, a float array

    def _check(self):
        records = np.asarray(self.records, dtype=float)
        if records.ndim != 2 or records.shape[1] != len(self.attributes):
            raise ShapeError("records do not form a rectangle over the attributes")
        self._set(records=records)

    @property
    def record_count(self) -> int:
        return self.records.shape[0]

    def column(self, attribute: str) -> np.ndarray:
        try:
            idx = self.attributes.index(attribute)
        except ValueError:
            raise ConfigError(f"unknown attribute {attribute!r}") from None
        return self.records[:, idx]


def ingest_tabular(source, has_header: bool = True, delimiter: str = ",") -> Dataset:
    """Read delimiter-separated UTF-8 text into a Dataset.

    ``source`` may be bytes, a string, or a (binary or text) file object.
    Attribute names come from the header row, or are synthesized as
    ``col0..colN-1`` when ``has_header`` is false.  A row ends at ``\n``,
    ``\r\n`` or a lone ``\r``; empty lines are skipped.  Empty and
    whitespace-only cells become NaN (missing); any other cell that does
    not parse as a number, like text that is not UTF-8, is a ParseError.
    ``delimiter`` is one character other than a newline.
    """
    if len(delimiter) != 1 or delimiter in "\r\n":
        raise ConfigError(f"delimiter must be one character, not a newline: {delimiter!r}")
    data = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(data, str):  # a lone surrogate encodes to bytes that are not UTF-8
        data = data.encode("utf-8", "surrogatepass")
    data = data.removeprefix(b"\xef\xbb\xbf")  # a byte-order mark, common in exported CSVs
    reader = csv.reader(_lines(data), delimiter=delimiter)
    try:
        first = next(_csv_rows(reader), None)
    except UnicodeDecodeError:
        _as_text(data)  # raises, placing the byte in the whole input
        raise
    if first is None:
        raise EmptyDatasetError("input contains no rows")

    if has_header:
        attributes = [cell.strip() for cell in first]
        duplicates = {a for a in attributes if attributes.count(a) > 1}
        if duplicates:
            raise ParseError(f"duplicate attribute names in header: {sorted(duplicates)}")
    else:
        attributes = [f"col{i}" for i in range(len(first))]
    width, skip = len(attributes), reader.line_num if has_header else 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the header was read unfilled, where an empty name is no missing
            # value; the fill adds no line, so the C reader skips its lines
            parsed = np.loadtxt(_lines(_nan_for_empty_cells(data, delimiter)),
                                delimiter=delimiter, comments=None, ndmin=2, skiprows=skip)
    except (ValueError, Warning):  # a byte that is not UTF-8 is a ValueError too
        parsed = None
    if parsed is not None and parsed.shape[1] == width:
        return Dataset(attributes, parsed)

    reader = csv.reader(io.StringIO(_as_text(data), newline=""), delimiter=delimiter)
    data_rows = list(_csv_rows(reader))[int(has_header):]
    parsed = np.empty((len(data_rows), width), dtype=float)
    for i, row in enumerate(data_rows):
        if len(row) != width:
            raise ShapeError(f"record {i}: expected {width} cells, found {len(row)}", record=i)
        for j, cell in enumerate(row):
            cell = cell.strip()
            try:
                parsed[i, j] = float(cell) if cell else math.nan
            except ValueError:
                raise ParseError(
                    f"attribute {attributes[j]!r}, record {i}: cannot parse {cell!r} as a number",
                    record=i, attribute=attributes[j],
                ) from None
    return Dataset(attributes, parsed)


def _csv_rows(reader):
    """The non-empty rows of the ``csv`` reader; a line it refuses (a cell
    over its field size limit) is a ParseError."""
    try:
        yield from filter(None, reader)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num} of the table: {exc}") from None


def _lines(data: bytes):
    """``data`` as UTF-8 text, decoded as it is read; a lone CR ends a line."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def _nan_for_empty_cells(data: bytes, delimiter: str) -> bytes:
    """``data`` with ``nan`` in every empty cell, for the C reader.

    An empty cell is a gap between two cell ends (a delimiter, a line end
    or an end of ``data``) with a delimiter on at least one side.  One byte
    array marks them, 2 at a delimiter and 1 at a line end or end of text,
    so a gap lies where two neighbours multiply to at least 2.  No line is
    added or removed.  Cells in quotes may be rewritten too, but the C
    reader refuses a quote, and the row parser then reads the original text.
    """
    if delimiter == '"' or not delimiter.isascii():  # csv reads "" as a quote; § spans 2 bytes
        return data
    chars = np.frombuffer(data, dtype=np.uint8)
    ends = np.ones(len(chars) + 2, dtype=np.uint8)  # padded by an end of text on each side
    np.equal(chars, ord(delimiter), out=ends[1:-1])
    ends[1:-1] *= 2
    ends[1:-1] += chars == ord("\n")
    ends[1:-1] += chars == ord("\r")
    ends = ends[:-1] * ends[1:]  # gap i lies before byte i
    gaps = np.flatnonzero(ends >= 2).tolist()
    del ends  # freed before the pieces are copied
    return b"nan".join(data[a:b] for a, b in zip([0, *gaps], [*gaps, len(data)]))


def _as_text(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from None


class FcmResult(Record, by_identity=True):
    """Fuzzy c-means run, with its per-iteration objective trace.

    ``converged`` is false when it stopped at max_iter, still moving by tol
    or more.
    """

    __slots__ = ("centroids", "objective_trace", "iterations", "converged")
    # an ascending numpy array, a tuple of one float per iteration, an int, a bool


def fuzzy_c_means(
    values,
    c: int,
    m: float = DEFAULT_FUZZIFIER,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed=0,
) -> FcmResult:
    """Cluster 1-D values into ``c`` fuzzy regions.

    Centroids start at evenly spaced data quantiles perturbed by seeded
    noise (``_start``; reproducible for a fixed seed, a non-negative
    integer or a string key).  Iteration stops once the largest centroid
    movement drops below ``tol`` or after ``max_iter`` rounds.  Returned
    centroids are sorted ascending.

    The loop runs on the distinct values, each weighted by its count, in
    two clusters x distinct-values buffers allocated once.
    """
    x = np.asarray(values, dtype=float).ravel()
    if c < 2:
        raise ConfigError("cluster count must be at least 2")
    if not 1.0 < m < math.inf:
        raise ConfigError("fuzzifier must be finite and > 1")
    if not 0.0 < tol < math.inf:
        raise ConfigError("tol must be positive and finite")
    if max_iter < 1:
        raise ConfigError("max_iter must be at least 1")
    if not isinstance(seed, str):  # random.Random(-s) is random.Random(s)
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed}")
        seed = int(seed)
    if x.size and not np.all(np.isfinite(x)):
        raise ParseError("values contain non-finite entries")
    points, counts = np.unique(x, return_counts=True)
    if len(points) < c:
        raise DegenerateDataError(f"need at least {c} distinct values, found {len(points)}")

    with np.errstate(over="ignore", invalid="ignore"):
        # near the float limits these may overflow: a spread or a start that
        # does is refused below, a centroid that does later, in the loop
        spread = points[-1] - points[0]
        centroids = _start(points, counts, c, seed)
        weighted_points = counts * points
    if spread == math.inf:
        raise ParseError(f"values {points[0]:g} and {points[-1]:g} are too far apart")
    if not np.isfinite(centroids).all():
        raise ParseError("the values are too large: a centroid overflows")

    counts = counts.astype(float)
    grid, spare = np.empty((c, len(points))), np.empty((c, len(points)))
    trace = []
    iterations, converged = 0, False
    while not converged and iterations < max_iter:
        iterations += 1
        weights = _membership_grid(points, centroids, m, out=grid)
        weights **= m
        mass = weights @ counts
        # a point's memberships sum to 1, so only underflow zeroes every power
        if not mass.any():
            raise ConfigError(f"fuzzifier {m} is too large: every membership power underflows")
        # a cluster can lose all weight only while another centroid sits on
        # every point; keep it where it is instead of dividing by zero
        safe_mass = np.where(mass > 0.0, mass, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            # a centroid's weighted sum may overflow; so may the objective,
            # whose squared distances do past 1e154, and nothing reads it
            moment = weights @ weighted_points
            new_centroids = np.where(mass > 0.0, moment / safe_mass, centroids)
            squares = np.subtract(points, new_centroids[:, None], out=spare)
            squares *= squares
            weights *= squares
            trace.append(float(np.sum(weights @ counts)))
        if not np.isfinite(new_centroids).all():
            raise ParseError("the values are too large: a centroid overflows")
        converged = bool(np.max(np.abs(new_centroids - centroids)) < tol)
        centroids = new_centroids

    centroids = np.sort(centroids, kind="stable")
    if np.any(np.diff(centroids) <= 0.0):
        raise DegenerateDataError("clusters collapsed onto the same centroid")
    return FcmResult(centroids, tuple(trace), iterations, converged)


def _start(points: np.ndarray, counts: np.ndarray, c: int, seed) -> np.ndarray:
    """Fuzzy c-means' sorted start for the column of ``counts[i]`` copies of
    the ascending ``points[i]``: its quantiles at (j + 1/2) / c, each moved
    by ``1e-3 * spread * (2 * r - 1)`` with r from ``random.Random(seed)``.

    The draws are MT19937's, the same on every platform and Python version
    (a string seed goes through sha512, so not through PYTHONHASHSEED);
    ``2 * r - 1`` is exact, and no transcendental function is involved.
    """
    rng = random.Random(seed)
    noise = np.array([2.0 * rng.random() - 1.0 for _ in range(c)])
    spread = points[-1] - points[0]
    return np.sort(_quantiles(points, counts, (np.arange(c) + 0.5) / c) + 1e-3 * spread * noise)


def _quantiles(points: np.ndarray, counts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(x, q)`` bit for bit, for the column ``x`` that holds
    ``counts[i]`` copies of the ascending ``points[i]``.

    The linear method: the two order statistics around ``(n - 1) * q``,
    read off the running counts, then numpy's two-sided interpolation
    (from the upper one where the fraction is at least 1/2).
    """
    n = int(counts.sum())
    index = (n - 1) * q
    below = np.floor(index)
    fraction = index - below
    ends = np.cumsum(counts)
    lower = points[np.searchsorted(ends, below, side="right")]
    upper = points[np.searchsorted(ends, np.minimum(below + 1, n - 1), side="right")]
    step = upper - lower
    return np.where(fraction >= 0.5, upper - step * (1 - fraction), lower + step * fraction)


def _membership_grid(x: np.ndarray, centroids: np.ndarray, m: float, out=None) -> np.ndarray:
    """Membership of every value to every centroid, one row per centroid;
    columns sum to 1.  A value whose distance to every centroid overflows
    has none: it is a ParseError whose ``record`` is its position in ``x``.
    The grid is written into ``out`` (clusters x values) when one is given."""
    with np.errstate(over="ignore"):
        u = np.subtract(x, centroids[:, None], out=out)
    np.abs(u, out=u)
    dmin = u.min(axis=0)
    if dmin.max(initial=0.0) == math.inf:
        far = int(np.argmax(dmin))
        raise ParseError(f"value {float(x[far])!r} is too far from every centroid", record=far)
    on_centroid = np.flatnonzero(dmin == 0.0)
    hits = u[:, on_centroid] == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # the column minimum over each distance is in (0, 1], so no power
        # overflows; a value on a centroid gives 0/0, overwritten below
        np.divide(dmin, u, out=u)
        u **= 2.0 / (m - 1.0)
        # numpy adds a contiguous run of 8 or more terms pairwise, fewer in
        # order: this is the order of a row sum in values x centroids layout.
        # Both stay: below 8 centroids the column sum gives the same bits 20 times
        # as fast on 3 x 20000, once per FCM iteration (~40 ms of a scan-20k build)
        u /= u.sum(axis=0) if len(u) < 8 else u.T.copy().sum(axis=1)
    u[:, on_centroid] = hits / hits.sum(axis=0)
    return u


def build_knowledge_base(
    dataset: Dataset, config: KBConfig | None = None, source: str | None = None
) -> KnowledgeBase:
    """Cluster every attribute of ``dataset`` and assemble the knowledge base.

    Deterministic for a fixed config seed: the attribute at position i
    draws its start noise from its own stream, keyed ``f"{seed}:{i}"``.
    """
    config = config or KBConfig()
    if config.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {config.seed}")
    unknown = set(config.per_attribute) - set(dataset.attributes)
    if unknown:
        raise ConfigError(f"config references unknown attributes: {sorted(unknown)}")

    models: dict[str, ClusterModel] = {}
    iterations: dict[str, int] = {}
    converged: dict[str, bool] = {}
    for idx, attribute in enumerate(dataset.attributes):
        c, labels = config.resolve(one_line(attribute, "attribute"))
        column = dataset.column(attribute)
        if np.any(~np.isfinite(column)):
            bad = int(np.flatnonzero(~np.isfinite(column))[0])
            raise ParseError(
                f"attribute {attribute!r}, record {bad}: missing or non-finite value",
                record=bad, attribute=attribute,
            )
        try:
            result = fuzzy_c_means(
                column,
                c,
                m=config.fuzzifier,
                tol=config.tol,
                max_iter=config.max_iter,
                seed=f"{config.seed}:{idx}",
            )
        except (ParseError, DegenerateDataError) as exc:  # values that overflow or vary too little
            raise type(exc)(f"attribute {attribute!r}: {exc}", attribute=attribute) from None
        models[attribute] = ClusterModel(
            attribute=attribute,
            centroids=tuple(float(v) for v in result.centroids),
            labels=labels if labels is not None else default_labels(c),
            fuzzifier=config.fuzzifier,
        )
        iterations[attribute] = result.iterations
        converged[attribute] = result.converged

    provenance = {
        "source": source,
        "records": dataset.record_count,
        "tol": config.tol,
        "max_iter": config.max_iter,
        "seed": config.seed,
        "iterations": iterations,
        "converged": converged,
    }
    return KnowledgeBase(models, provenance)
