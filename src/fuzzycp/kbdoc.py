"""The knowledge-base document, and the settings it is built with.

A knowledge base is one cluster model (centroids, labels, fuzzifier) per
attribute, plus how it was built.  This module reads, checks and writes
that document without numpy, so ``query compile`` and ``inspect`` never
load it; the numeric half (ingest, fuzzy c-means, the membership kernel)
is ``kb``, which ``membership_grid`` imports when it is called.
"""

from __future__ import annotations

import json
import math
from .errors import ConfigError, DegenerateDataError, MalformedDocumentError, ParseError
from .record import Frozen, Record

DEFAULT_CLUSTERS = 3
DEFAULT_FUZZIFIER = 2.0
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 200

# Labels attached to clusters when the caller gives none, per cluster count.
_DEFAULT_LABELS = {
    2: ("low", "high"),
    3: ("low", "medium", "high"),
}


def default_labels(c: int) -> tuple[str, ...]:
    """The labels of ``c`` clusters when the caller gives none."""
    return _DEFAULT_LABELS.get(c) or tuple(f"c{i}" for i in range(c))


class ClusterModel(Frozen):
    """Fuzzy segmentation of one attribute: centroids, strictly ascending,
    with linguistic labels."""

    __slots__ = ("attribute", "centroids", "labels", "fuzzifier")

    def __init__(
        self,
        attribute: str,
        centroids: tuple[float, ...],
        labels: tuple[str, ...],
        fuzzifier: float,
    ):
        if len(centroids) != len(labels):
            raise ConfigError(
                f"{attribute}: {len(labels)} labels for {len(centroids)} centroids"
            )
        if not all(map(math.isfinite, centroids)):
            raise ConfigError(f"{attribute}: centroids must be finite")
        if any(b <= a for a, b in zip(centroids, centroids[1:])):
            raise DegenerateDataError(f"{attribute}: centroids are not strictly ascending")
        if len(set(labels)) != len(labels):
            raise ConfigError(f"{attribute}: duplicate labels")
        if not 1.0 < fuzzifier < math.inf:
            raise ConfigError(f"{attribute}: fuzzifier must be finite and > 1")
        self._set(attribute=attribute, centroids=centroids, labels=labels, fuzzifier=fuzzifier)


class AttributeConfig(Frozen):
    """Per-attribute overrides for the knowledge-base build."""

    __slots__ = ("clusters", "labels")

    def __init__(self, clusters: int | None = None, labels: tuple[str, ...] | None = None):
        self._set(clusters=clusters, labels=labels)


class KBConfig(Frozen):
    """Knowledge-base build settings; ``per_attribute`` defaults to a new
    empty dict."""

    __slots__ = ("clusters", "labels", "fuzzifier", "tol", "max_iter", "seed", "per_attribute")

    def __init__(
        self,
        clusters: int = DEFAULT_CLUSTERS,
        labels: tuple[str, ...] | None = None,
        fuzzifier: float = DEFAULT_FUZZIFIER,
        tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER,
        seed: int = 0,
        per_attribute: dict[str, AttributeConfig] | None = None,
    ):
        self._set(
            clusters=clusters,
            labels=labels,
            fuzzifier=fuzzifier,
            tol=tol,
            max_iter=max_iter,
            seed=seed,
            per_attribute={} if per_attribute is None else per_attribute,
        )

    def resolve(self, attribute: str) -> tuple[int, tuple[str, ...] | None]:
        """The attribute's cluster count and configured labels, checked
        against each other.  None stands for ``default_labels(c)``, which
        are built only once the data has c distinct values: their cost
        grows with the count."""
        override = self.per_attribute.get(attribute, AttributeConfig())
        c = override.clusters if override.clusters is not None else self.clusters
        labels = override.labels if override.labels is not None else self.labels
        if c < 2:
            raise ConfigError(f"{attribute}: cluster count must be at least 2, got {c}")
        if labels is not None and len(labels) != c:
            raise ConfigError(
                f"{attribute}: {len(labels)} labels configured for {c} clusters"
            )
        return c, None if labels is None else tuple(labels)


class KnowledgeBase(Record):
    """One ClusterModel per dataset attribute, plus how they were built.

    ``unconverged`` names the attributes FCM left at max_iter; it is not
    in the document.
    """

    __slots__ = ("models", "provenance", "unconverged")

    def __init__(
        self,
        models: dict[str, ClusterModel],
        provenance: dict,
        unconverged: tuple[str, ...] = (),
    ):
        self.models = models
        self.provenance = provenance
        self.unconverged = unconverged

    def model(self, attribute: str) -> ClusterModel:
        try:
            return self.models[attribute]
        except KeyError:
            raise ConfigError(f"unknown attribute {attribute!r}") from None

    def membership_of(self, attribute: str, value: float):
        """Membership vector of a single (possibly unseen) ``value`` under the
        attribute's cluster model."""
        self.model(attribute)  # an unknown attribute fails before a bad value
        if not math.isfinite(value):
            raise ParseError(f"cannot compute memberships for non-finite value {value!r}")
        return self.membership_grid(attribute, [value])[0]

    def membership_grid(self, attribute: str, values):
        """Membership rows of a whole column under the attribute's model, as
        a numpy array.

        Row r equals ``membership_of(attribute, values[r])``; a missing or
        non-finite value belongs to no cluster (a row of zeros).
        """
        import numpy as np

        from .kb import _membership_grid

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
            if name in models:
                raise ConfigError(f"attribute {name!r} is listed twice")
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
        return cls.from_document(load_document(path))


def load_document(path):
    """The JSON value in the file at ``path``: the one reader of knowledge
    bases and compiled queries, so every stage refuses the same files.

    An object that repeats a key, or a string that holds a lone surrogate
    (which no UTF-8 output can print), makes the document malformed, as in
    I-JSON (RFC 7493).
    """
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
            doc = json.loads(text, object_pairs_hook=_unique_keys)
            if "\\u" in text:  # the text is UTF-8, so only an escape makes a surrogate
                json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedDocumentError("a string holds a lone surrogate") from None
        except (ValueError, RecursionError) as exc:
            raise MalformedDocumentError(str(exc)) from None
    return doc


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its key-value pairs, refused if a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise MalformedDocumentError(f"key {key!r} appears twice in one object")
            seen.add(key)
    return obj
