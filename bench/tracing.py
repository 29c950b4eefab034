"""Span tracing for one fuzzycp stage, and the analysis of its spans.

Run as a script, it runs one traced stage: it wraps the public functions
of every fuzzycp module where their callers look them up, runs
``fuzzycp.cli.main`` on the arguments after ``--`` and, at exit, writes the
spans as JSON lines::

    python bench/tracing.py --spans spans.jsonl --trace-id 7 -- eval --kb kb.json ...

Every line has ``trace_id`` (one stage invocation), ``span_id``,
``parent_id``, ``name``, ``start``, ``end`` and ``counters``.  One span
stands for every call of one function from one parent span: ``start`` is
the first call's start, ``end`` the last call's end, ``counters.calls``
counts the calls and ``counters.busy_s`` sums their durations.  A span's
self time is its ``busy_s`` minus the ``busy_s`` of its children.  Merging
calls this way keeps per-record functions (10^5 calls and more) to one
span each, so the trace stays a few dozen lines.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

SELF_TIME_SLACK = 1e-9  # seconds; float sums of child durations may overshoot


class Span:
    __slots__ = ("span_id", "parent_id", "name", "start", "end", "calls", "busy", "counters")

    def __init__(self, span_id, parent_id, name):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = math.inf
        self.end = -math.inf
        self.calls = 0
        self.busy = 0.0
        self.counters = defaultdict(int)


class Tracer:
    """Keeps the spans of one stage invocation in memory."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._index: dict[tuple[int | None, str], Span] = {}
        self._stack: list[int | None] = [None]

    def wrap(self, name, fn, hook=None):
        """``fn`` timed as span ``name``; ``hook(span, call, result)`` may add
        counters and returns the result handed back to the caller."""
        signature = inspect.signature(fn) if hook else None
        spans, index, stack, clock = self.spans, self._index, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            key = (stack[-1], name)
            span = index.get(key)
            if span is None:
                span = index[key] = Span(len(spans), key[0], name)
                spans.append(span)
            stack.append(span.span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span.calls += 1
                span.busy += end - start
                span.start = min(span.start, start)
                span.end = max(span.end, end)
            if hook is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                result = hook(span, call.arguments, result)
            return result

        return functools.update_wrapper(traced, fn)

    def lines(self):
        for s in self.spans:
            yield {
                "trace_id": self.trace_id,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "counters": {"calls": s.calls, "busy_s": s.busy, **s.counters},
            }


# --- what is traced --------------------------------------------------------


def _ingest(span, call, dataset):
    span.counters["rows"] += dataset.record_count
    span.counters["missing_cells"] += int(np.isnan(dataset.records).sum())
    return dataset


def _fcm(span, call, result):
    span.counters["iterations"] += result.iterations
    # FcmResult does not say whether the last round met tol, so a run that
    # converges exactly on round max_iter counts as unconverged
    span.counters["unconverged"] += int(result.iterations >= call["max_iter"])
    return result


def _bytes_written(argument):
    def hook(span, call, result):
        span.counters["bytes"] += os.path.getsize(call[argument])
        return result

    return hook


def _outcomes(span, call, outcomes):
    def counted():
        for outcome in outcomes:
            span.counters["outcomes"] += 1
            yield outcome

    return counted()


def _terms(span, call, query):
    span.counters["terms"] += len(query.terms)
    return query


def _rank(span, call, results):
    span.counters["records"] += call["dataset"].record_count
    span.counters["returned"] += len(results)
    return results


def _output(span, call, code):
    # stdout is the file the benchmark redirected it to, and cmd_eval is
    # its only writer
    sys.stdout.flush()
    span.counters["output_bytes"] += os.fstat(sys.stdout.fileno()).st_size
    return code


# Span name = fuzzycp module, then the attribute path inside it.
TRACED = {
    "cli.cmd_kb_build": None,
    "cli.cmd_query_compile": None,
    "cli.cmd_eval": _output,
    "kb.ingest_tabular": _ingest,
    "kb.fuzzy_c_means": _fcm,
    "kb.build_knowledge_base": None,
    "kb.KnowledgeBase.load": None,
    "kb.KnowledgeBase.from_document": None,
    "kb.KnowledgeBase.save": _bytes_written("path"),
    "kb.KnowledgeBase.membership_of": None,
    "dsl.parse_query": None,
    "cpnet.validate_cpnet": None,
    "cpnet.topological_order": None,
    "cpnet.node_importance": None,
    "cpnet.enumerate_outcomes": _outcomes,
    "ucp.assign_utilities": None,
    "ucp.outcome_utility": None,
    "query.compile_query": None,
    "query.rewrite_query": _terms,
    "query.save_query": _bytes_written("path"),
    "query.load_query": None,
    "scoring.rank": _rank,
    "scoring.project": None,
    "scoring.evaluate": None,
}


def install(tracer: Tracer) -> None:
    """Wrap every TRACED name, in each fuzzycp namespace that holds it."""
    modules = {
        name: importlib.import_module(f"fuzzycp.{name}")
        for name in {span.split(".")[0] for span in TRACED}
    }
    namespaces = [
        module
        for name, module in sys.modules.items()
        if name == "fuzzycp" or name.startswith("fuzzycp.")
    ]
    for span_name, hook in TRACED.items():
        layer, *owners, attr = span_name.split(".")
        owner = functools.reduce(getattr, owners, modules[layer])
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(span_name, raw.__func__, hook)))
        elif owners:  # a plain method, looked up on the class
            setattr(owner, attr, tracer.wrap(span_name, raw, hook))
        else:
            wrapped = tracer.wrap(span_name, raw, hook)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is raw:
                        setattr(namespace, key, wrapped)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--trace-id", type=int, required=True)
    parser.add_argument("stage", nargs=argparse.REMAINDER, help="-- then fuzzycp arguments")
    args = parser.parse_args(argv)
    stage = args.stage[1:] if args.stage[:1] == ["--"] else args.stage

    import fuzzycp.cli

    tracer = Tracer(args.trace_id)
    install(tracer)
    try:
        return tracer.wrap("cli.main", fuzzycp.cli.main)(stage)
    finally:
        with open(args.spans, "w", encoding="utf-8") as f:
            for line in tracer.lines():
                f.write(json.dumps(line) + "\n")


# --- analysis --------------------------------------------------------------


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans) -> dict[tuple[int, int], float]:
    """(trace_id, span_id) -> busy time not covered by child spans."""
    own = {(s["trace_id"], s["span_id"]): s["counters"]["busy_s"] for s in spans}
    for s in spans:
        parent = (s["trace_id"], s["parent_id"])
        if parent in own:  # a missing parent is one of the tree_problems
            own[parent] -= s["counters"]["busy_s"]
    return own


def tree_problems(spans) -> list[str]:
    """Ways in which the spans fail to form trees; empty when well formed."""
    by_id = {(s["trace_id"], s["span_id"]): s for s in spans}
    problems = []
    for s in spans:
        label = f"trace {s['trace_id']} span {s['span_id']} ({s['name']})"
        if s["counters"]["calls"] < 1 or s["end"] < s["start"]:
            problems.append(f"{label}: empty interval")
        if s["counters"]["busy_s"] > s["end"] - s["start"] + SELF_TIME_SLACK:
            problems.append(f"{label}: busy time exceeds its interval")
        if s["parent_id"] is None:
            continue
        parent = by_id.get((s["trace_id"], s["parent_id"]))
        if parent is None:
            problems.append(f"{label}: parent {s['parent_id']} is missing")
        elif s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"{label}: lies outside its parent {parent['name']}")
    for key, own in self_times(spans).items():
        if own < -SELF_TIME_SLACK:
            problems.append(f"trace {key[0]} span {key[1]}: negative self time {own}")
    return problems


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, names) -> dict[str, float]:
    """Values of the per-layer metrics ``names`` over the given spans.

    A name is ``<span name>.<stat>``, where stat is ``s`` (busy time),
    ``self_s``, ``calls`` or a counter; a few ratios are derived below.  A
    span or counter that never occurred counts 0.
    """
    totals: dict[tuple[str, str], float] = defaultdict(float)
    own = self_times(spans)
    for s in spans:
        counters = s["counters"]
        totals[(s["name"], "s")] += counters["busy_s"]
        totals[(s["name"], "self_s")] += own[(s["trace_id"], s["span_id"])]
        for stat, value in counters.items():
            totals[(s["name"], stat)] += value

    def total(span, stat):
        return totals.get((span, stat), 0.0)

    derived = {
        "scoring.rank.us_per_record": 1e6
        * _ratio(total("scoring.rank", "s"), total("scoring.rank", "records")),
        "scoring.rank.scored_per_returned": _ratio(
            total("scoring.rank", "records"), total("scoring.rank", "returned")
        ),
        "query.rewrite_query.outcomes_per_term": _ratio(
            total("cpnet.enumerate_outcomes", "outcomes"), total("query.rewrite_query", "terms")
        ),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        else:
            span, _, stat = name.rpartition(".")
            values[name] = total(span, stat)
    return values


if __name__ == "__main__":
    raise SystemExit(main())
