"""The benchmark's own tests, on inputs shrunk to 2% of their size:

    python -m pytest bench
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

sys.path.insert(0, str(run.SRC))  # the checks call the program's scalar oracles

SCALE = 0.02
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_METRICS = [m["name"] for m in SPEC["per_layer"]]

# Metric prefix -> the workload that shows it; the first matching prefix wins.
SHOWN_BY = {
    "kb.fuzzy_c_means.": "top10-dup",
    "scoring.rank.scored_per_returned": "top10-dup",
    "dsl.": "wide-net",
    "cpnet.": "wide-net",
    "ucp.": "wide-net",
    "query.": "wide-net",
    "kb.": "scan-20k",
    "scoring.": "scan-20k",
    "cli.": "scan-20k",
}
MAY_BE_ZERO = {"kb.fuzzy_c_means.unconverged"}


def test_same_seed_gives_the_same_inputs(tmp_path):
    for w in WORKLOADS.values():
        a, b, c = (
            make_inputs(w, seed, tmp_path / tag / w.name, SCALE)
            for tag, seed in (("a", 5), ("b", 5), ("c", 6))
        )
        for path in ("build_csv", "eval_csv", "query_file"):
            assert getattr(a, path).read_bytes() == getattr(b, path).read_bytes()
            assert getattr(a, path).read_bytes() != getattr(c, path).read_bytes()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every workload after one untraced and one traced pass."""
    runs = {}
    for w in WORKLOADS.values():
        bench = run.Bench(w, 3, tmp_path_factory.mktemp(w.name), scale=SCALE)
        samples, _ = run.per_layer(bench, 0, LAYER_METRICS)
        runs[w.name] = (bench, {n: statistics.median(v) for n, v in samples.items()})
    return runs


def test_passes_are_correct(traced):
    for bench, _ in traced.values():
        assert bench.attempted == 6
        assert bench.failures == {}


def test_span_trees_are_well_formed(traced):
    for bench, _ in traced.values():
        files = sorted(bench.work.glob("spans-*.jsonl"))
        assert len(files) == 3
        for path in files:
            spans = tracing.read_spans(path)
            assert len({s["trace_id"] for s in spans}) == 1
            assert [s["name"] for s in spans if s["parent_id"] is None] == ["cli.main"]
            assert tracing.tree_problems(spans) == []
            assert min(tracing.self_times(spans).values()) >= -tracing.SELF_TIME_SLACK


def test_tree_problems_are_found():
    def span(span_id, parent_id, start, end, busy):
        counters = {"calls": 1, "busy_s": busy}
        return {"trace_id": 1, "span_id": span_id, "parent_id": parent_id, "name": "f",
                "start": start, "end": end, "counters": counters}

    root = span(0, None, 0.0, 1.0, 1.0)
    assert tracing.tree_problems([root, span(1, 0, 0.5, 0.9, 0.4)]) == []
    assert tracing.tree_problems([root, span(1, 0, 0.5, 1.5, 0.4)])  # outside parent
    assert tracing.tree_problems([root, span(1, 7, 0.5, 0.9, 0.4)])  # no such parent
    assert tracing.tree_problems([root, span(1, 0, 0.1, 0.9, 0.8),
                                  span(2, 0, 0.2, 0.95, 0.7)])  # children outgrow it


def test_every_layer_metric_has_a_value_where_it_shows(traced):
    for metric in LAYER_METRICS:
        shown = next((w for prefix, w in SHOWN_BY.items() if metric.startswith(prefix)), None)
        for workload, (_, values) in traced.items():
            assert math.isfinite(values[metric]), (metric, workload)
            if workload == shown and metric not in MAY_BE_ZERO:
                assert values[metric] > 0, (metric, workload)
    scan, wide = traced["scan-20k"][0], traced["wide-net"][0]
    assert traced["scan-20k"][1]["scoring.project.calls"] == scan.inputs.eval.shape[0]
    assert traced["wide-net"][1]["cpnet.enumerate_outcomes.outcomes"] == 4**9 == wide.workload.outcomes
    assert traced["scan-20k"][1]["scoring.rank.scored_per_returned"] == 1
    assert traced["top10-dup"][1]["scoring.rank.scored_per_returned"] > 1


def _corrupt(bench, name, text):
    path = bench.work / name
    path.write_text(text, encoding="utf-8")
    return path


def test_corrupted_tsv_fails(traced):
    bench = traced["scan-20k"][0]
    lines = (bench.work / "eval.out").read_text(encoding="utf-8").splitlines(keepends=True)
    header, first, second = lines[0], lines[1], lines[2]
    cells = first.split("\t")
    cells[1] = f"{float(cells[1]) - 0.001:.6f}"
    for broken in (
        [header, "\t".join(cells), *lines[2:]],  # a wrong score
        [header, second, first, *lines[3:]],  # two rows swapped
        lines[:-1],  # a row missing
    ):
        out = _corrupt(bench, "broken.out", "".join(broken))
        assert bench.verifier.eval(out, bench.kb, bench.query) is not None


def test_corrupted_json_fails(traced):
    bench = traced["top10-dup"][0]
    good = json.loads((bench.work / "eval.out").read_text(encoding="utf-8"))
    wrong_score = json.loads(json.dumps(good))
    wrong_score["results"][0]["eval"] -= 0.001
    short = json.loads(json.dumps(good))
    short["results"].pop()
    for broken in (wrong_score, short):
        out = _corrupt(bench, "broken.json", json.dumps(broken))
        assert bench.verifier.eval(out, bench.kb, bench.query) is not None
    assert bench.verifier.eval(bench.work / "eval.out", bench.kb, bench.query) is None


def test_corrupted_kb_and_query_fail(traced):
    bench = traced["wide-net"][0]
    kb = json.loads(bench.kb.read_text(encoding="utf-8"))
    kb["attributes"][0]["centroids"][1] += 1.0
    assert bench.verifier.kb_build(_corrupt(bench, "broken-kb.json", json.dumps(kb))) is not None
    query = json.loads(bench.query.read_text(encoding="utf-8"))
    query["terms"][1], query["terms"][2] = query["terms"][2], query["terms"][1]
    assert bench.verifier.query_compile(_corrupt(bench, "broken-q.json", json.dumps(query))) is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide-net", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
