"""Shared test utilities: independent oracles and random-structure generators.

Oracles here deliberately avoid the library's own code paths: the fuzzy
clustering reference is textbook loops, the importance oracle is a plain
recursive longest-path search, and the net validator re-derives acyclicity
and row counting from scratch.
"""

import csv
import io
import itertools
import math
import os
import random
from pathlib import Path

import numpy as np

import fuzzycp
from fuzzycp import CPNet, ClusterModel, KnowledgeBase, PreferenceVariable

# The directory this process imported fuzzycp from (``src`` in a checkout).
IMPORT_ROOT = Path(fuzzycp.__file__).resolve().parent.parent


def child_env() -> dict:
    """Environment for a child ``python`` that imports this same fuzzycp.

    Children may run from another working directory, where a relative
    PYTHONPATH entry would no longer resolve: the absolute import root
    goes first.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(IMPORT_ROOT), env.get("PYTHONPATH")])
    )
    return env


def reference_fcm(values, c, m, tol=1e-9, max_iter=500, init=None):
    """Plain-loop fuzzy c-means; returns (sorted centroids, memberships, trace)."""
    x = [float(v) for v in values]
    n = len(x)
    if init is None:
        ordered = sorted(x)
        cents = [ordered[min(n - 1, int((j + 0.5) / c * n))] for j in range(c)]
    else:
        cents = [float(v) for v in init]
    trace = []
    u = [[0.0] * c for _ in range(n)]
    for _ in range(max_iter):
        for i in range(n):
            d = [abs(x[i] - cj) for cj in cents]
            if min(d) == 0.0:
                hits = [1.0 if dj == 0.0 else 0.0 for dj in d]
                total = sum(hits)
                u[i] = [h / total for h in hits]
            else:
                u[i] = [
                    1.0 / sum((d[j] / d[k]) ** (2.0 / (m - 1.0)) for k in range(c))
                    for j in range(c)
                ]
        new = []
        for j in range(c):
            num = sum((u[i][j] ** m) * x[i] for i in range(n))
            den = sum(u[i][j] ** m for i in range(n))
            new.append(num / den if den > 0 else cents[j])
        trace.append(
            sum((u[i][j] ** m) * (x[i] - new[j]) ** 2 for i in range(n) for j in range(c))
        )
        movement = max(abs(a - b) for a, b in zip(new, cents))
        cents = new
        if movement < tol:
            break
    order = sorted(range(c), key=lambda j: cents[j])
    cents = [cents[j] for j in order]
    u = [[row[j] for j in order] for row in u]
    return cents, u, trace


def fcm_memberships(result, values, m=2.0):
    """Membership grid of ``values`` at a fuzzy c-means result's centroids,
    as the package computes it; rows follow ``values``."""
    from fuzzycp.kb import _membership_grid

    return _membership_grid(np.asarray(values, dtype=float).ravel(), result.centroids, m).T


def oracle_membership_grid(x, centroids, m):
    """The n x c membership grid as fuzzycp computed it before its c x n
    kernel: masked rows for values on a centroid, row sums over clusters."""
    d = np.abs(x[:, None] - centroids[None, :])
    out = np.zeros_like(d)
    dmin = d.min(axis=1)
    on_centroid = dmin == 0.0
    if np.any(on_centroid):
        hits = d[on_centroid] == 0.0
        out[on_centroid] = hits / hits.sum(axis=1, keepdims=True)
    off = ~on_centroid
    if np.any(off):
        ratio = (dmin[off, None] / d[off]) ** (2.0 / (m - 1.0))
        out[off] = ratio / ratio.sum(axis=1, keepdims=True)
    return out


def oracle_fcm(values, c, m=2.0, tol=1e-6, max_iter=200, seed=0):
    """The n x c fuzzy c-means loop fuzzycp ran before its c x n kernel;
    returns (sorted centroids, objective trace, iterations).  Raises the
    package's errors for degenerate input, as ``fuzzy_c_means`` does."""
    from fuzzycp import DegenerateDataError

    x = np.asarray(values, dtype=float).ravel()
    if len(np.unique(x)) < c:
        raise DegenerateDataError("too few distinct values")
    rng = random.Random(seed)
    centroids = np.quantile(x, (np.arange(c) + 0.5) / c)
    spread = x.max() - x.min()
    noise = np.array([2.0 * rng.random() - 1.0 for _ in range(c)])
    centroids = np.sort(centroids + 1e-3 * spread * noise)
    trace = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        weights = oracle_membership_grid(x, centroids, m) ** m
        mass = weights.sum(axis=0)
        safe_mass = np.where(mass > 0.0, mass, 1.0)
        new_centroids = np.where(
            mass > 0.0, (weights * x[:, None]).sum(axis=0) / safe_mass, centroids
        )
        trace.append(float(np.sum(weights * (x[:, None] - new_centroids[None, :]) ** 2)))
        movement = np.max(np.abs(new_centroids - centroids))
        centroids = new_centroids
        if movement < tol:
            break
    centroids = np.sort(centroids, kind="stable")
    if np.any(np.diff(centroids) <= 0.0):
        raise DegenerateDataError("clusters collapsed onto the same centroid")
    return centroids, trace, iterations


def reference_ingest(text, has_header=True, delimiter=","):
    """The row-by-row parser ``ingest_tabular`` used before its C-reader
    path, on text without a byte-order mark: (attributes, records), or the
    error it raised, message included.  A lone CR ends a row, as ``csv``
    reads it from a stream opened with ``newline=""``."""
    from fuzzycp import EmptyDatasetError, ParseError, ShapeError

    stream = io.StringIO(text, newline="")
    rows = [r for r in csv.reader(stream, delimiter=delimiter) if r]
    if not rows:
        raise EmptyDatasetError("input contains no rows")
    if has_header:
        attributes = [cell.strip() for cell in rows[0]]
        duplicates = {a for a in attributes if attributes.count(a) > 1}
        if duplicates:
            raise ParseError(f"duplicate attribute names in header: {sorted(duplicates)}")
        rows = rows[1:]
    else:
        attributes = [f"col{i}" for i in range(len(rows[0]))]
    records = np.empty((len(rows), len(attributes)))
    for i, row in enumerate(rows):
        if len(row) != len(attributes):
            raise ShapeError(
                f"record {i}: expected {len(attributes)} cells, found {len(row)}", record=i
            )
        for j, cell in enumerate(row):
            cell = cell.strip()
            try:
                records[i, j] = float(cell) if cell else math.nan
            except ValueError:
                raise ParseError(
                    f"attribute {attributes[j]!r}, record {i}: cannot parse {cell!r} as a number",
                    record=i, attribute=attributes[j],
                ) from None
    return attributes, records


def percent_tsv(ranking) -> str:
    """The TSV ``eval`` writes for ``ranking``, as text, by one ``%`` format
    over an object table: the writer that ``scoring.tsv_bytes``, which
    returns the UTF-8 bytes of this text, replaced."""
    n, term_count = ranking.term_scores.shape
    table = np.empty((n, term_count + 3), dtype=object)
    table[:, 0] = ranking.record_index
    table[:, 1] = ranking.score
    table[:, 2:-1] = ranking.term_scores
    table[:, -1] = "-"
    flagged = np.flatnonzero(ranking.missing.any(axis=1))
    table[flagged, -1] = [
        ";".join(f"missing:{name}" for name in itertools.compress(ranking.variables, row))
        for row in ranking.missing[flagged].tolist()
    ]
    header = ["record_index", "eval"] + [f"s_{k + 1}" for k in range(term_count)] + ["flags"]
    row = "%d\t%.6f" + "\t%.6f" * term_count + "\t%s"
    template = "\n".join(["\t".join(header)] + [row] * n) + "\n"
    return template % tuple(table.ravel().tolist())


def longest_path_importance(nodes, edges):
    """1 + longest downward path to a leaf, by naive recursion."""
    children = {n: [] for n in nodes}
    for parent, child in edges:
        children[parent].append(child)

    def depth(n):
        if not children[n]:
            return 1
        return 1 + max(depth(c) for c in children[n])

    return {n: depth(n) for n in nodes}


def brute_force_valid(nodes, edges, cpt) -> bool:
    """Re-derive the net invariants of ``CPNet(nodes, edges, cpt)`` without
    the library's validator or the net itself."""
    names = [v.name for v in nodes]
    if len(set(names)) != len(names):
        return False
    known = set(names)
    if any(p not in known or c not in known for p, c in edges):
        return False
    children = {n: set() for n in names}
    for p, c in edges:
        children[p].add(c)

    # cycle search from every node
    for start in names:
        frontier, seen = list(children[start]), set()
        while frontier:
            node = frontier.pop()
            if node == start:
                return False
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(children[node])

    domains = {v.name: v.domain for v in nodes}
    for v in nodes:
        parents = list(dict.fromkeys(p for p, c in edges if c == v.name))
        rows = cpt.get(v.name)
        if rows is None:
            return False
        expected = list(itertools.product(*(domains[p] for p in parents)))
        if sorted(rows) != sorted(expected):
            return False
        if any(sorted(order) != sorted(v.domain) for order in rows.values()):
            return False
    return True


def random_cpnet(rng: random.Random, max_nodes=8, max_domain=4, edge_prob=0.3,
                 max_parents=3, min_nodes=1, min_domain=2) -> CPNet:
    """Random acyclic net with complete cpts; domains of size
    min_domain..max_domain."""
    n = rng.randint(min_nodes, max_nodes)
    nodes = []
    for i in range(n):
        size = rng.randint(min_domain, max_domain)
        nodes.append(PreferenceVariable(f"v{i}", tuple(f"v{i}_{j}" for j in range(size))))
    edges = []
    parent_count = {v.name: 0 for v in nodes}
    for j in range(n):
        for i in range(j):
            if parent_count[nodes[j].name] >= max_parents:
                break
            if rng.random() < edge_prob:
                edges.append((nodes[i].name, nodes[j].name))
                parent_count[nodes[j].name] += 1
    net_parents = {v.name: [p for p, c in edges if c == v.name] for v in nodes}
    cpt = {}
    for v in nodes:
        domains = [next(x.domain for x in nodes if x.name == p) for p in net_parents[v.name]]
        rows = {}
        for key in itertools.product(*domains):
            order = list(v.domain)
            rng.shuffle(order)
            rows[key] = tuple(order)
        cpt[v.name] = rows
    return CPNet(nodes=tuple(nodes), edges=tuple(edges), cpt=cpt)


def random_dag(rng: random.Random, max_nodes=8, edge_prob=0.35):
    """Random DAG as (node names, edges); no cpts attached."""
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for j in range(n)
        for i in range(j)
        if rng.random() < edge_prob
    ]
    return names, edges


def dag_as_net(names, edges) -> CPNet:
    """Wrap a bare DAG in a minimal valid net (binary domains everywhere)."""
    nodes = tuple(PreferenceVariable(n, (f"{n}_a", f"{n}_b")) for n in names)
    parents = {n: [p for p, c in edges if c == n] for n in names}
    cpt = {
        n: {
            key: (f"{n}_a", f"{n}_b")
            for key in itertools.product(
                *((f"{p}_a", f"{p}_b") for p in parents[n])
            )
        }
        for n in names
    }
    return CPNet(nodes=nodes, edges=tuple(edges), cpt=cpt)


def kb_for_net(net: CPNet, rng: random.Random | None = None, attributes: int | None = None):
    """Synthetic knowledge base whose labels cover every variable's domain.

    Each variable gets its own attribute named ``attr_<var>``, or, given
    ``attributes``, the i-th variable shares ``attr_<i mod attributes>``
    with the others bound there.  An attribute has one cluster per label,
    and its labels are its variables' domains end to end; centroids are
    ascending and, when an rng is given, randomly spaced.  Returns (kb,
    bindings).
    """
    labels = {}
    bindings = {}
    for i, v in enumerate(net.nodes):
        attribute = f"attr_{v.name}" if attributes is None else f"attr_{i % attributes}"
        labels[attribute] = labels.get(attribute, ()) + v.domain
        bindings[v.name] = attribute
    models = {}
    for attribute, names in labels.items():
        k = len(names)
        if rng is None:
            centroids = tuple(float(i) for i in range(k))
        else:
            start = rng.uniform(-5.0, 5.0)
            gaps = [rng.uniform(0.5, 3.0) for _ in range(k)]
            acc, centroids = start, []
            for g in gaps:
                acc += g
                centroids.append(acc)
            centroids = tuple(centroids)
        models[attribute] = ClusterModel(
            attribute=attribute, centroids=centroids, labels=names, fuzzifier=2.0
        )
    return KnowledgeBase(models=models, provenance={}), bindings


def random_weighted_query(rng: random.Random, allow_missing=False, share_attributes=False):
    """Random compiled query plus a record generator for it.

    Returns (kb, query, draw_record) where draw_record() yields attribute
    -> value maps roughly spanning the centroid range; when
    ``allow_missing`` is set some attributes are occasionally dropped.
    With ``share_attributes``, several variables are now and then bound to
    one attribute, as wide-net binds 9 variables to 3 attributes.
    """
    from fuzzycp import assign_utilities, rewrite_query

    net = random_cpnet(rng, max_nodes=4, max_domain=3, edge_prob=0.4)
    shared = None
    if share_attributes and rng.random() < 0.5:
        shared = rng.randint(1, len(net.nodes))
    kb, bindings = kb_for_net(net, rng, attributes=shared)
    ucp = assign_utilities(net)
    term_count = rng.randint(1, min(6, net.outcome_count()))
    query = rewrite_query(ucp, kb, bindings, term_count)

    def draw_record():
        record = {}
        for attribute, model in kb.models.items():
            if allow_missing and rng.random() < 0.15:
                continue
            lo = model.centroids[0] - 2.0
            hi = model.centroids[-1] + 2.0
            record[attribute] = rng.uniform(lo, hi)
        return record

    return kb, query, draw_record


def brute_force_top_terms(ucp, term_count):
    """Independent top-T outcome selection: full enumeration, stable sort."""
    from fuzzycp import enumerate_outcomes, outcome_utility

    outcomes = list(enumerate_outcomes(ucp.net))
    scored = sorted(
        enumerate(outcomes), key=lambda pair: (-outcome_utility(ucp, pair[1]), pair[0])
    )
    return [o for _, o in scored[:term_count]]


def is_finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)
