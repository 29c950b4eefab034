"""Fuzzy knowledge base built from tabular data.

Each numeric attribute is segmented into fuzzy regions with fuzzy c-means:

    minimize  J = sum_i sum_j  u_ij^m * (x_i - c_j)^2
    subject to  sum_j u_ij = 1,  u_ij in [0, 1]

with the usual alternating updates

    u_ij = 1 / sum_k (d_ij / d_ik)^(2/(m-1))          (membership)
    c_j  = sum_i u_ij^m x_i / sum_i u_ij^m            (centroid)

A point sitting exactly on a centroid gets membership 1 there and 0
elsewhere.  Converged centroids are sorted ascending so linguistic labels
("low" < "high") always attach in a stable order.

The knowledge base is the per-attribute cluster models (centroids, labels,
fuzzifier).  Memberships are not stored: a value's degrees follow from the
centroids by the membership formula, for training and unseen values alike.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDataError,
    EmptyDatasetError,
    ParseError,
    ShapeError,
)

DEFAULT_CLUSTERS = 3
DEFAULT_FUZZIFIER = 2.0
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 200

# Labels attached to clusters when the caller gives none, per cluster count.
_DEFAULT_LABELS = {
    2: ("low", "high"),
    3: ("low", "medium", "high"),
}


@dataclass
class Dataset:
    """Rectangular numeric table: one row per record, one column per attribute.

    Missing cells are stored as NaN; everything else is a finite float.
    """

    attributes: list[str]
    records: np.ndarray  # shape (record_count, len(attributes))

    def __post_init__(self):
        self.records = np.asarray(self.records, dtype=float)
        if self.records.ndim != 2 or self.records.shape[1] != len(self.attributes):
            raise ShapeError(0, "records do not form a rectangle over the attributes")

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
    not parse as a number, like bytes that are not UTF-8, is a ParseError.
    ``delimiter`` is one character other than a newline.

    The rows go to numpy's C reader, and if it refuses them, to it again
    with ``nan`` written into every empty cell.  A table it still refuses
    or warns about (quotes, whitespace-only cells, ragged or no rows) is
    read again from the original text by the ``csv`` row parser, which
    locates a bad cell for the error.
    """
    if len(delimiter) != 1 or delimiter in "\r\n":
        raise ConfigError(f"delimiter must be one character, not a newline: {delimiter!r}")
    text = _as_text(source)
    stream = io.StringIO(text, newline="")
    first = next(_csv_rows(stream, delimiter), None)
    if first is None:
        raise EmptyDatasetError("input contains no rows")

    if has_header:
        attributes = [cell.strip() for cell in first]
        duplicates = {a for a in attributes if attributes.count(a) > 1}
        if duplicates:
            raise ParseError(f"duplicate attribute names in header: {sorted(duplicates)}")
        body = text[stream.tell():]
    else:
        attributes = [f"col{i}" for i in range(len(first))]
        body = text
    width = len(attributes)
    parsed = _c_reader(body, delimiter)
    if parsed is None:
        filled = _nan_for_empty_cells(body, delimiter)
        parsed = _c_reader(filled, delimiter) if filled != body else None
    if parsed is not None and parsed.shape[1] == width:
        return Dataset(attributes, parsed)

    data_rows = list(_csv_rows(io.StringIO(text, newline=""), delimiter))[int(has_header):]
    parsed = np.empty((len(data_rows), width), dtype=float)
    for i, row in enumerate(data_rows):
        if len(row) != width:
            raise ShapeError(i, f"row {i}: expected {width} cells, found {len(row)}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell == "":
                parsed[i, j] = math.nan
                continue
            try:
                parsed[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"cannot parse {cell!r} as a number", line=i, column=j
                ) from None
    return Dataset(attributes, parsed)


def _csv_rows(stream, delimiter: str):
    """The non-empty rows of ``stream``; a line ``csv`` refuses (a cell over
    its field size limit) is a ParseError."""
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        yield from filter(None, reader)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num} of the table: {exc}") from None


def _c_reader(body: str, delimiter: str) -> np.ndarray | None:
    """The rows of ``body`` by numpy's C reader, or None if it refuses or
    warns about them."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(
                io.StringIO(body, newline=""), delimiter=delimiter, comments=None, ndmin=2
            )
    except (ValueError, Warning):
        return None


def _nan_for_empty_cells(body: str, delimiter: str) -> str:
    """``body`` with ``nan`` in every empty cell, for the C reader.

    An empty cell lies between two delimiters, or between a delimiter and a
    line end or an end of ``body``.  Runs of delimiters need the first
    replacement twice.  Empty lines stay as they are: both readers skip
    them.  Cells in quotes may be rewritten too, but the C reader refuses
    a quote, and the row parser then reads the original text.
    """
    d = delimiter
    if d == '"':  # csv reads two in a row as a quote, not as an empty cell
        return body
    pairs = [(d + d, d + "nan" + d)] * 2 + [(d + "\n", d + "nan\n"), ("\n" + d, "\nnan" + d)]
    if "\r" in body:
        pairs += [(d + "\r", d + "nan\r"), ("\r" + d, "\rnan" + d)]
    for empty, filled in pairs:
        body = body.replace(empty, filled)
    if body.startswith(d):
        body = "nan" + body
    if body.endswith(d):
        body += "nan"
    return body


def _as_text(source) -> str:
    data = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(data, str):
        return data.lstrip("\ufeff")
    try:
        # utf-8-sig strips a byte-order mark, common in exported CSVs
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from None


@dataclass(frozen=True)
class ClusterModel:
    """Fuzzy segmentation of one attribute: centroids with linguistic labels."""

    attribute: str
    centroids: tuple[float, ...]  # strictly ascending
    labels: tuple[str, ...]
    fuzzifier: float

    def __post_init__(self):
        if len(self.centroids) != len(self.labels):
            raise ConfigError(
                f"{self.attribute}: {len(self.labels)} labels for "
                f"{len(self.centroids)} centroids"
            )
        if not all(map(math.isfinite, self.centroids)):
            raise ConfigError(f"{self.attribute}: centroids must be finite")
        if any(b <= a for a, b in zip(self.centroids, self.centroids[1:])):
            raise DegenerateDataError(
                f"{self.attribute}: centroids are not strictly ascending"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError(f"{self.attribute}: duplicate labels")
        if not 1.0 < self.fuzzifier < math.inf:
            raise ConfigError(f"{self.attribute}: fuzzifier must be finite and > 1")


@dataclass(frozen=True)
class FcmResult:
    """Fuzzy c-means run, with its per-iteration objective trace."""

    centroids: np.ndarray
    objective_trace: tuple[float, ...]
    iterations: int
    converged: bool  # false when it stopped at max_iter, still moving by tol or more


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
    noise (reproducible for a fixed seed).  Iteration stops once the
    largest centroid movement drops below ``tol`` or after ``max_iter``
    rounds.  Returned centroids are sorted ascending.
    """
    x = np.asarray(values, dtype=float).ravel()
    if c < 2:
        raise ConfigError("cluster count must be at least 2")
    if not m > 1.0:
        raise ConfigError("fuzzifier must be > 1")
    if not 0.0 < tol < math.inf:
        raise ConfigError("tol must be positive and finite")
    if max_iter < 1:
        raise ConfigError("max_iter must be at least 1")
    if x.size and not np.all(np.isfinite(x)):
        raise ParseError("values contain non-finite entries")
    distinct = len(np.unique(x))
    if distinct < c:
        raise DegenerateDataError(f"need at least {c} distinct values, found {distinct}")

    rng = np.random.default_rng(seed)
    quantiles = (np.arange(c) + 0.5) / c
    centroids = np.quantile(x, quantiles)
    spread = x.max() - x.min()
    centroids = np.sort(centroids + rng.normal(0.0, 1e-3 * spread, size=c))

    trace = []
    iterations, converged = 0, False
    while not converged and iterations < max_iter:
        iterations += 1
        weights = _membership_grid(x, centroids, m)
        weights **= m
        # sums over the records add them in record order: the last column
        # of a running sum, where a row sum would add them pairwise
        mass = np.cumsum(weights, axis=1)[:, -1]
        # a cluster can lose all weight only while another centroid sits on
        # every point; keep it where it is instead of dividing by zero
        safe_mass = np.where(mass > 0.0, mass, 1.0)
        moment = np.cumsum(weights * x, axis=1)[:, -1]
        new_centroids = np.where(mass > 0.0, moment / safe_mass, centroids)
        trace.append(float(np.sum(weights * (x - new_centroids[:, None]) ** 2)))
        converged = bool(np.max(np.abs(new_centroids - centroids)) < tol)
        centroids = new_centroids

    centroids = np.sort(centroids, kind="stable")
    if np.any(np.diff(centroids) <= 0.0):
        raise DegenerateDataError("clusters collapsed onto the same centroid")
    return FcmResult(centroids, tuple(trace), iterations, converged)


def _membership_grid(x: np.ndarray, centroids: np.ndarray, m: float) -> np.ndarray:
    """Membership of every value to every centroid, one row per centroid;
    columns sum to 1."""
    u = np.abs(x - centroids[:, None])
    dmin = u.min(axis=0)
    on_centroid = np.flatnonzero(dmin == 0.0)
    hits = u[:, on_centroid] == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # the column minimum over each distance is in (0, 1], so no power
        # overflows; a value on a centroid gives 0/0, overwritten below
        np.divide(dmin, u, out=u)
        u **= 2.0 / (m - 1.0)
        # numpy adds a contiguous run of 8 or more terms pairwise, fewer in
        # order: this is the order of a row sum in values x centroids layout
        u /= u.sum(axis=0) if len(u) < 8 else u.T.copy().sum(axis=1)
    u[:, on_centroid] = hits / hits.sum(axis=0)
    return u


@dataclass(frozen=True)
class AttributeConfig:
    """Per-attribute overrides for the knowledge-base build."""

    clusters: int | None = None
    labels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class KBConfig:
    clusters: int = DEFAULT_CLUSTERS
    labels: tuple[str, ...] | None = None
    fuzzifier: float = DEFAULT_FUZZIFIER
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    seed: int = 0
    per_attribute: dict[str, AttributeConfig] = field(default_factory=dict)

    def resolve(self, attribute: str) -> tuple[int, tuple[str, ...]]:
        override = self.per_attribute.get(attribute, AttributeConfig())
        c = override.clusters if override.clusters is not None else self.clusters
        labels = override.labels if override.labels is not None else self.labels
        if c < 2:
            raise ConfigError(f"{attribute}: cluster count must be at least 2, got {c}")
        if labels is None:
            labels = _DEFAULT_LABELS.get(c) or tuple(f"c{i}" for i in range(c))
        if len(labels) != c:
            raise ConfigError(
                f"{attribute}: {len(labels)} labels configured for {c} clusters"
            )
        return c, tuple(labels)


@dataclass
class KnowledgeBase:
    """One ClusterModel per dataset attribute, plus how they were built."""

    models: dict[str, ClusterModel]
    provenance: dict
    unconverged: tuple[str, ...] = ()  # attributes FCM left at max_iter; not in the document

    def model(self, attribute: str) -> ClusterModel:
        try:
            return self.models[attribute]
        except KeyError:
            raise ConfigError(f"unknown attribute {attribute!r}") from None

    def membership_of(self, attribute: str, value: float) -> np.ndarray:
        """Membership vector of a single (possibly unseen) ``value`` under the
        attribute's cluster model."""
        self.model(attribute)  # an unknown attribute fails before a bad value
        if not math.isfinite(value):
            raise ParseError(f"cannot compute memberships for non-finite value {value!r}")
        return self.membership_grid(attribute, [value])[0]

    def membership_grid(self, attribute: str, values) -> np.ndarray:
        """Membership rows of a whole column under the attribute's model.

        Row r equals ``membership_of(attribute, values[r])``; a missing or
        non-finite value belongs to no cluster (a row of zeros).
        """
        model = self.model(attribute)
        values = np.asarray(values, dtype=float)
        grid = np.zeros((len(model.centroids), values.size))
        finite = np.isfinite(values)
        grid[:, finite] = _membership_grid(
            values[finite], np.asarray(model.centroids), model.fuzzifier
        )
        return grid.T

    def to_document(self) -> dict:
        attributes = []
        for name, model in self.models.items():
            attributes.append(
                {
                    "name": name,
                    "labels": list(model.labels),
                    "centroids": list(model.centroids),
                    "fuzzifier": model.fuzzifier,
                }
            )
        return {
            "format_version": 2,
            "attributes": attributes,
            "provenance": self.provenance,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "KnowledgeBase":
        """Read a version 2 document, or a version 1 one, whose per-record
        membership rows are ignored: the centroids determine them.  An
        entry of the wrong shape is a ConfigError that names it."""
        if not isinstance(doc, dict) or doc.get("format_version") not in (1, 2):
            raise ConfigError("not a knowledge-base document of version 1 or 2")
        entries = doc.get("attributes")
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ConfigError("'attributes' must be a list of objects")
        provenance = doc.get("provenance", {})
        if not isinstance(provenance, dict):
            raise ConfigError("'provenance' must be an object")
        models = {}
        for i, attr in enumerate(entries):
            name = attr.get("name")
            if not isinstance(name, str):
                raise ConfigError(f"attribute {i}: 'name' must be a string")
            labels = attr.get("labels")
            if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
                raise ConfigError(f"{name}: labels must be strings")
            try:
                centroids = tuple(float(v) for v in attr.get("centroids"))
                fuzzifier = float(attr.get("fuzzifier"))
            except (TypeError, ValueError):
                raise ConfigError(f"{name}: centroids and fuzzifier must be numbers") from None
            models[name] = ClusterModel(
                attribute=name,
                centroids=centroids,
                labels=tuple(labels),
                fuzzifier=fuzzifier,
            )
        return cls(models=models, provenance=dict(provenance))

    def dump(self) -> str:
        return json.dumps(self.to_document(), ensure_ascii=False, indent=2) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.dump())

    @classmethod
    def load(cls, path) -> "KnowledgeBase":
        with open(path, encoding="utf-8") as f:
            return cls.from_document(json.load(f))


def build_knowledge_base(
    dataset: Dataset, config: KBConfig | None = None, source: str | None = None
) -> KnowledgeBase:
    """Cluster every attribute of ``dataset`` and assemble the knowledge base.

    Deterministic for a fixed config seed: each attribute derives its own
    RNG stream from (seed, attribute position).
    """
    config = config or KBConfig()
    if config.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {config.seed}")
    unknown = set(config.per_attribute) - set(dataset.attributes)
    if unknown:
        raise ConfigError(f"config references unknown attributes: {sorted(unknown)}")

    models: dict[str, ClusterModel] = {}
    clusters_used: dict[str, int] = {}
    iterations: dict[str, int] = {}
    unconverged = []
    for idx, attribute in enumerate(dataset.attributes):
        c, labels = config.resolve(attribute)
        column = dataset.column(attribute)
        if np.any(~np.isfinite(column)):
            bad = int(np.flatnonzero(~np.isfinite(column))[0])
            raise ParseError(
                f"attribute {attribute!r} has a missing or non-finite value",
                line=bad,
                column=idx,
            )
        result = fuzzy_c_means(
            column,
            c,
            m=config.fuzzifier,
            tol=config.tol,
            max_iter=config.max_iter,
            seed=np.random.SeedSequence(entropy=config.seed, spawn_key=(idx,)),
        )
        models[attribute] = ClusterModel(
            attribute=attribute,
            centroids=tuple(float(v) for v in result.centroids),
            labels=labels,
            fuzzifier=config.fuzzifier,
        )
        clusters_used[attribute] = c
        iterations[attribute] = result.iterations
        if not result.converged:
            unconverged.append(attribute)

    provenance = {
        "source": source,
        "records": dataset.record_count,
        "clusters": clusters_used,
        "fuzzifier": config.fuzzifier,
        "tol": config.tol,
        "max_iter": config.max_iter,
        "seed": config.seed,
        "iterations": iterations,
    }
    return KnowledgeBase(models, provenance, tuple(unconverged))
