"""The knowledge base, its build settings, and the JSON of every document.

A knowledge base is one cluster model (centroids, labels, fuzzifier) per
attribute, plus how it was built.  This module reads, checks and writes
that document without numpy, so ``query compile`` and ``inspect`` never
load it; the numeric half (ingest, fuzzy c-means, the membership kernel)
is ``kb``, which ``membership_grid`` imports when it is called.
"""

import json
import math
from .errors import ConfigError, DegenerateDataError, MalformedDocumentError, ParseError
from .record import Record

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


class ClusterModel(Record):
    """Fuzzy segmentation of one attribute: centroids, strictly ascending,
    with linguistic labels."""

    __slots__ = ("attribute", "centroids", "labels", "fuzzifier")
    # a str, a tuple of float, a tuple of str, a float

    def _check(self):
        attribute, centroids, labels, fuzzifier = self._public()
        one_line(attribute, "attribute")  # inspect prints it, and each label, within a line
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
        for label in labels:
            if not label:
                raise ConfigError(f"{attribute}: a label is empty")
            one_line(label, f"{attribute}: label")
        if not 1.0 < fuzzifier < math.inf:
            raise ConfigError(f"{attribute}: fuzzifier must be finite and > 1")


class AttributeConfig(Record):
    """Per-attribute overrides for the knowledge-base build."""

    __slots__ = ("clusters", "labels")  # an int or None, a tuple of str or None
    _defaults = dict(clusters=None, labels=None)


class KBConfig(Record):
    """Knowledge-base build settings; ``per_attribute`` defaults to a new
    empty dict."""

    __slots__ = ("clusters", "labels", "fuzzifier", "tol", "max_iter", "seed", "per_attribute")
    # an int, a tuple of str or None, a float, a float, an int, an int, a dict of AttributeConfig
    _defaults = dict(clusters=DEFAULT_CLUSTERS, labels=None, fuzzifier=DEFAULT_FUZZIFIER,
                     tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, seed=0, per_attribute=None)

    def _check(self):
        if self.per_attribute is None:
            self._set(per_attribute={})

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
    """One ClusterModel per dataset attribute, keyed by its name, plus how
    they were built, exactly as its document holds them.  A build's
    ``provenance`` records, per attribute, the fuzzy c-means ``iterations``
    and whether it ``converged`` before ``max_iter``; loading reads none of it."""

    __slots__ = ("models", "provenance")  # a dict attribute -> ClusterModel, a dict

    def _check(self):
        for name, model in self.models.items():
            if model.attribute != name:
                raise ConfigError(f"attribute {name!r} holds the model of {model.attribute!r}")

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
        non-finite value belongs to no cluster (a row of zeros).  A finite
        value whose distance to every centroid overflows is a ParseError
        that names the attribute and the record (the row).
        """
        import numpy as np

        from .kb import _membership_grid

        model = self.model(attribute)
        values = np.asarray(values, dtype=float)
        grid = np.zeros((len(model.centroids), values.size))
        finite = np.isfinite(values)
        try:
            grid[:, finite] = _membership_grid(
                values[finite], np.asarray(model.centroids), model.fuzzifier
            )
        except ParseError as exc:
            row = int(np.flatnonzero(finite)[exc.record])
            raise ParseError(
                f"attribute {attribute!r}, record {row}: {exc}", record=row, attribute=attribute
            ) from None
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
        membership rows are ignored: the centroids determine them.  A
        missing ``provenance`` reads as {}.  An entry of the wrong shape is
        a ConfigError that names it."""
        check_document(doc, _SHAPE, "knowledge base")
        provenance = doc.get("provenance", {})
        check_shape(provenance, dict, "knowledge base", "provenance")
        models = {}
        for attr in doc["attributes"]:
            name = one_line(attr["name"], "attribute")
            if name in models:
                raise ConfigError(f"attribute {name!r} is listed twice")
            try:
                centroids = tuple(map(float, attr["centroids"]))
                fuzzifier = float(attr["fuzzifier"])
            except OverflowError:  # an integer beyond every float
                raise ConfigError(f"{name}: centroids and fuzzifier must be finite") from None
            models[name] = ClusterModel(name, centroids, tuple(attr["labels"]), fuzzifier)
        return cls(models=models, provenance=dict(provenance))

    def save(self, path) -> None:
        save_document(self.to_document(), path)

    @classmethod
    def load(cls, path) -> "KnowledgeBase":
        return cls.from_document(load_document(path))


def one_line(text: str, what: str) -> str:
    """``text``, or a ConfigError naming it ``what`` if a tab or line break splits it."""
    if "\t" in text or text.splitlines() not in ([text], []):
        raise ConfigError(f"{what} {text!r} holds a tab or line break")
    return text


def document_text(doc) -> str:
    """The text of every JSON document fuzzycp writes."""
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def canonical_json(value) -> str:
    """One text per JSON value, whatever its key order: equal texts, same
    JSON; so ``1`` is not ``1.0``, ``-0.0`` not ``0.0``, ``true`` no number."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True)


def save_document(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(document_text(doc))


def load_document(path):
    """The JSON value in the file at ``path``: the one reader of knowledge
    bases and compiled queries, so every stage refuses the same files.
    A UTF-8 byte-order mark before the text is dropped, as RFC 8259 allows.

    An object that repeats a key, or a string that holds a lone surrogate
    (which no UTF-8 output can print), makes the document malformed, as in
    I-JSON (RFC 7493); so do ``NaN``, ``Infinity`` and ``-Infinity``, which
    Python's reader takes but JSON does not have.
    """
    with open(path, encoding="utf-8-sig") as f:
        try:
            text = f.read()
            doc = json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_no_constant)
            if "\\u" in text:  # the text is UTF-8, so only an escape makes a surrogate
                canonical_json(doc).encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedDocumentError("a string holds a lone surrogate") from None
        except (ValueError, RecursionError) as exc:
            raise MalformedDocumentError(str(exc)) from None
    return doc


def _no_constant(name: str):
    raise MalformedDocumentError(f"{name} is not a JSON value")


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


def check_document(doc, shape: dict, document: str) -> None:
    """Refuse, with a ConfigError, all but an object whose ``format_version``
    is the JSON integer 1 or 2 and that has ``shape``."""
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version not in (1, 2):
        raise ConfigError(f"not a {document.replace(' ', '-')} document of version 1 or 2")
    check_shape(doc, shape, document)


NUMBER = (int, float)  # a JSON number: check_shape refuses a boolean, an int in Python
_KINDS = {dict: "an object", list: "a list", str: "a string", NUMBER: "a number"}


def check_shape(value, shape, document: str, path: str = "") -> None:
    """Raise a ConfigError naming ``path`` in ``document`` unless ``value``
    has ``shape``: ``dict``, ``list``, ``str`` or ``NUMBER``, [shape] for a
    list of that shape, or {key: shape} for an object with those keys."""
    kind = type(shape) if isinstance(shape, (dict, list)) else shape
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{document}: {path} must be {_KINDS[kind]}")
    if isinstance(shape, dict):
        for key, inner in shape.items():
            check_shape(value.get(key), inner, document, f"{path}.{key}".lstrip("."))
    elif isinstance(shape, list):
        for i, item in enumerate(value):
            check_shape(item, shape[0], document, f"{path}[{i}]")


# What loading reads of a knowledge base, but its optional provenance.
_ATTRIBUTE = {"name": str, "labels": [str], "centroids": [NUMBER], "fuzzifier": NUMBER}
_SHAPE = {"attributes": [_ATTRIBUTE]}
