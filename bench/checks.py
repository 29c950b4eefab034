"""Output checks for the three stages, run outside the timed region.

Each check compares a stage's output with references that do not share the
program's code: textbook fuzzy c-means memberships and centroid updates, a
brute-force ranking of every outcome built from the compiled document's own
utility tables, and a vectorized max-min scorer.  ``eval`` is also checked
against the program's scalar oracles ``project`` and ``evaluate`` on a
seeded sample of records and on every returned top-N record.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

TSV_SLACK = 5e-7 + 1e-9  # six printed decimals, plus rounding of the reference
JSON_SLACK = 1e-9
TIE_SLACK = 1e-12  # recomputing in another order may change the last bits
ORACLE_SAMPLE = 200


class CheckFailed(Exception):
    pass


def memberships(x, centroids, m):
    """u_ij = 1 / sum_k (d_ij / d_ik)^(2/(m-1)); a value on a centroid belongs
    to it alone, and a missing value (NaN) to no cluster."""
    x = np.asarray(x, dtype=float)
    d = np.abs(x[:, None] - np.asarray(centroids, dtype=float)[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        u = 1.0 / ((d[:, :, None] / d[:, None, :]) ** (2.0 / (m - 1.0))).sum(axis=2)
    on = d == 0.0
    hit = on.any(axis=1)
    u[hit] = on[hit] / on[hit].sum(axis=1, keepdims=True)
    u[np.isnan(x)] = 0.0
    return u


# --- kb build ---------------------------------------------------------------


def check_kb(doc, inputs) -> dict:
    """Check a knowledge-base document; return its cluster models by attribute."""
    provenance = doc["provenance"]
    names = [a["name"] for a in doc["attributes"]]
    if names != inputs.attributes:
        raise CheckFailed(f"kb attributes {names} != {inputs.attributes}")
    models = {}
    for j, attr in enumerate(doc["attributes"]):
        name, m = attr["name"], float(attr["fuzzifier"])
        c = np.asarray(attr["centroids"], dtype=float)
        if len(c) != inputs.workload.clusters or len(attr["labels"]) != len(c):
            raise CheckFailed(f"{name}: {len(c)} centroids, {len(attr['labels'])} labels")
        if np.any(np.diff(c) <= 0.0):
            raise CheckFailed(f"{name}: centroids not strictly ascending: {c.tolist()}")
        if provenance["iterations"][name] >= provenance["max_iter"]:
            raise CheckFailed(f"{name}: FCM stopped at max_iter without converging")
        x = inputs.build[:, j]
        u = memberships(x, c, m)
        weights = u**m
        moved = np.max(np.abs((weights * x[:, None]).sum(axis=0) / weights.sum(axis=0) - c))
        if moved > provenance["tol"]:
            raise CheckFailed(f"{name}: one more FCM update moves a centroid by {moved:g}")
        if "memberships" in attr:
            stored = np.asarray(attr["memberships"], dtype=float)
            if stored.shape != u.shape or np.max(np.abs(stored - u)) > 1e-9:
                raise CheckFailed(f"{name}: stored memberships differ from the centroids'")
        models[name] = (c, tuple(attr["labels"]), m)
    return models


# --- query compile ----------------------------------------------------------


def brute_force_terms(doc, count):
    """Top ``count`` outcomes of the document's utility tables, by enumerating
    all of them in (topological node, domain index) order and sorting stably."""
    nodes = doc["cpnet"]["nodes"]
    order, placed = [], set()
    while len(order) < len(nodes):
        ready = next(n for n in nodes if n["name"] not in placed and set(n["parents"]) <= placed)
        order.append(ready)
        placed.add(ready["name"])
    position = {n["name"]: i for i, n in enumerate(order)}
    sizes = [len(n["domain"]) for n in order]
    digits = np.indices(sizes).reshape(len(sizes), -1)
    total = np.zeros(digits.shape[1])
    ceiling = 0.0
    for i, node in enumerate(order):
        parents = node["parents"]
        table = np.full([sizes[position[p]] for p in parents] + [sizes[i]], np.nan)
        for row in doc["utilities"][node["name"]]["rows"]:
            key = tuple(order[position[p]]["domain"].index(row["when"][p]) for p in parents)
            for value, utility in row["values"].items():
                table[key + (node["domain"].index(value),)] = utility
        if np.isnan(table).any():
            raise CheckFailed(f"utility table of {node['name']} is incomplete")
        total += table[tuple(digits[position[p]] for p in parents) + (digits[i],)]
        ceiling += table.max()
    best = np.argsort(-total, kind="stable")[:count]
    return [
        ({n["name"]: n["domain"][digits[position[n["name"]], o]] for n in nodes}, total[o] / ceiling)
        for o in best
    ]


def check_query(doc, inputs) -> None:
    terms = doc["terms"]
    wanted = inputs.workload.terms
    if len(terms) != wanted:
        raise CheckFailed(f"{len(terms)} terms, expected {wanted}")
    importances = [t["importance"] for t in terms]
    if importances[0] != 1.0:
        raise CheckFailed(f"first term importance {importances[0]!r} is not 1")
    if any(b > a for a, b in zip(importances, importances[1:])):
        raise CheckFailed("term importances increase")
    for k, (term, (assignment, importance)) in enumerate(
        zip(terms, brute_force_terms(doc, wanted)), start=1
    ):
        if term["assignment"] != assignment or abs(term["importance"] - importance) > TIE_SLACK:
            raise CheckFailed(
                f"term {k} is {term['assignment']} at {term['importance']}, "
                f"brute force gives {assignment} at {importance}"
            )


# --- eval -------------------------------------------------------------------


def reference_scores(models, doc, inputs):
    """Scores, per-term scores and missing variables of every eval record."""
    variables = [n["name"] for n in doc["cpnet"]["nodes"]]
    weights = np.array([doc["importance"][v] for v in variables], dtype=float)
    table = inputs.eval
    terms = np.zeros((table.shape[0], len(doc["terms"])))
    missing = np.zeros((table.shape[0], len(variables)), dtype=bool)
    for i, variable in enumerate(variables):
        attribute = doc["bindings"][variable]
        centroids, labels, m = models[attribute]
        x = table[:, inputs.attributes.index(attribute)]
        missing[:, i] = np.isnan(x)
        u = memberships(x, centroids, m)
        for k, term in enumerate(doc["terms"]):
            terms[:, k] += weights[i] * u[:, labels.index(term["assignment"][variable])]
    terms = np.clip(terms / weights.sum(), 0.0, 1.0)
    importance = np.array([t["importance"] for t in doc["terms"]])
    scores = np.minimum(terms, importance).max(axis=1)
    names = [tuple(v for v, gone in zip(variables, row) if gone) for row in missing]
    return scores, terms, names


def parse_tsv(text, term_count):
    lines = text.splitlines()
    header = ["record_index", "eval"] + [f"s_{k + 1}" for k in range(term_count)] + ["flags"]
    if not lines or lines[0].split("\t") != header:
        raise CheckFailed("TSV header is wrong")
    cells = [line.split("\t") for line in lines[1:]]
    if any(len(row) != len(header) for row in cells):
        raise CheckFailed("TSV row with the wrong number of cells")
    index = np.array([row[0] for row in cells], dtype=np.int64)
    values = np.array([row[1:-1] for row in cells], dtype=float).reshape(len(cells), -1)
    flags = [
        () if row[-1] == "-" else tuple(f.removeprefix("missing:") for f in row[-1].split(";"))
        for row in cells
    ]
    return index, values[:, 0], values[:, 1:], flags


def parse_json(text):
    results = json.loads(text)["results"]
    index = np.array([r["record_index"] for r in results], dtype=np.int64)
    scores = np.array([r["eval"] for r in results], dtype=float)
    terms = np.array([r["term_scores"] for r in results], dtype=float)
    flags = [tuple(r["missing"]) for r in results]
    if [r["position"] for r in results] != list(range(1, len(results) + 1)):
        raise CheckFailed("JSON positions are not 1..N")
    return index, scores, terms, flags


def check_eval(text, models, doc, inputs, oracle, sample) -> None:
    args = inputs.workload.eval_args
    top = int(args[args.index("--top") + 1]) if "--top" in args else None
    as_json = "json" in args
    slack = JSON_SLACK if as_json else TSV_SLACK
    index, score, terms, flags = (
        parse_json(text) if as_json else parse_tsv(text, len(doc["terms"]))
    )
    n = inputs.eval.shape[0]
    expected = n if top is None else min(top, n)
    if len(index) != expected:
        raise CheckFailed(f"{len(index)} rows, expected {expected}")
    if np.any(index < 0) or np.any(index >= n) or len(np.unique(index)) != len(index):
        raise CheckFailed("record indexes out of range or repeated")

    ref, ref_terms, ref_missing = reference_scores(models, doc, inputs)
    bad = np.flatnonzero(np.abs(score - ref[index]) > slack)
    if bad.size:
        r = index[bad[0]]
        raise CheckFailed(f"record {r}: score {score[bad[0]]!r}, reference {ref[r]!r}")
    if terms.shape != (expected, ref_terms.shape[1]) or np.any(
        np.abs(terms - ref_terms[index]) > slack
    ):
        raise CheckFailed("term scores differ from the reference")
    wrong = next((r for r, f in zip(index, flags) if f != ref_missing[r]), None)
    if wrong is not None:
        raise CheckFailed(f"record {wrong}: flags do not list its missing variables")

    if np.any(np.diff(score) > 0.0):
        raise CheckFailed("printed scores increase")
    before, after = ref[index[:-1]], ref[index[1:]]
    if np.any(before < after - TIE_SLACK):
        raise CheckFailed("rows are not ordered by score")
    if np.any((before == after) & (index[:-1] > index[1:])):
        raise CheckFailed("tied rows are not ordered by record_index")
    if expected < n:
        last = index[-1]
        outside = np.ones(n, dtype=bool)
        outside[index] = False
        beats = (ref > ref[last] + TIE_SLACK) | ((ref == ref[last]) & (np.arange(n) < last))
        if np.any(outside & beats):
            raise CheckFailed(f"record {np.flatnonzero(outside & beats)[0]} belongs in the top {top}")

    row_of = {int(r): k for k, r in enumerate(index)}
    checked = set(int(r) for r in sample) | (set(row_of) if top is not None else set())
    for r in sorted(checked):
        o_score, o_terms, o_missing = oracle(r)
        k = row_of.get(r)
        if k is None:
            if o_score > score[-1] + slack:
                raise CheckFailed(f"sampled record {r} outside the top {top} beats the last one")
        elif (
            abs(score[k] - o_score) > slack
            or np.any(np.abs(terms[k] - o_terms) > slack)
            or flags[k] != o_missing
        ):
            raise CheckFailed(f"record {r}: output disagrees with project + evaluate")


# --- once per distinct output ------------------------------------------------


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Verifier:
    """Checks stage outputs, once per distinct content.

    A stage's outputs are byte-identical from pass to pass, so a repeated
    output gets the verdict of its first check.  Each method returns None
    for a correct output and the reason otherwise.
    """

    def __init__(self, inputs):
        self.inputs = inputs
        rng = np.random.default_rng([inputs.seed, 1])
        n = inputs.eval.shape[0]
        self.sample = rng.choice(n, size=min(ORACLE_SAMPLE, n), replace=False)
        self._verdicts: dict[tuple, str | None] = {}
        self._kbs: dict[str, tuple] = {}

    def _verdict(self, key, check):
        if key not in self._verdicts:
            try:
                check()
                self._verdicts[key] = None
            except CheckFailed as exc:
                self._verdicts[key] = str(exc)
            except Exception as exc:  # any output the checks cannot read is wrong
                self._verdicts[key] = f"unreadable output: {type(exc).__name__}: {exc}"
        return self._verdicts[key]

    def _kb(self, path):
        """(models, scalar-oracle knowledge base) of a checked kb document."""
        digest = _digest(path)
        if digest not in self._kbs:
            from fuzzycp.kb import KnowledgeBase

            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            self._kbs[digest] = (check_kb(doc, self.inputs), KnowledgeBase.from_document(doc))
        return self._kbs[digest]

    def kb_build(self, kb_path):
        return self._verdict(("kb", _digest(kb_path)), lambda: self._kb(kb_path))

    def query_compile(self, query_path):
        def check():
            with open(query_path, encoding="utf-8") as f:
                check_query(json.load(f), self.inputs)

        return self._verdict(("query", _digest(query_path)), check)

    def eval(self, out_path, kb_path, query_path):
        def check():
            from fuzzycp.cpnet import node_importance
            from fuzzycp.query import load_query
            from fuzzycp.scoring import evaluate, project

            models, kb = self._kb(kb_path)
            compiled = load_query(query_path)
            importance = node_importance(compiled.net)
            columns = self.inputs.attributes
            table = self.inputs.eval

            def oracle(r):
                record = {a: float(v) for a, v in zip(columns, table[r])}
                projection = project(kb, compiled, record, record_index=r)
                result = evaluate(projection, compiled, importance)
                return result.score, np.array(result.term_scores), projection.missing

            with open(query_path, encoding="utf-8") as f:
                doc = json.load(f)
            with open(out_path, encoding="utf-8") as f:
                text = f.read()
            check_eval(text, models, doc, self.inputs, oracle, self.sample)

        return self._verdict(("eval", _digest(out_path, kb_path, query_path)), check)
