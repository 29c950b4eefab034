"""Acceptance suite: one test per release criterion.

Every criterion prints its own pass/fail line (run pytest with -s to see
them on success; they also appear in captured output on failure).
Randomized criteria use fixed seeds so the suite is reproducible.
"""

import contextlib
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuzzycp as F
from helpers import (
    brute_force_top_terms,
    child_env,
    kb_for_net,
    longest_path_importance,
    random_cpnet,
    random_dag,
    random_weighted_query,
    reference_fcm,
    dag_as_net,
    fcm_memberships,
)
from test_dsl import INVALID_PROGRAMS, VALID_PROGRAMS

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "demos" / "data"


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number}. {name}: FAIL")
        raise
    print(f"[acceptance] {number}. {name}: PASS")


def test_criterion_1_fuzzy_knowledge_base():
    with criterion(1, "fuzzy knowledge base"):
        values = [0.0] * 50 + [10.0] * 50
        result = F.fuzzy_c_means(values, c=2, m=2.0, seed=42)

        assert abs(result.centroids[0] - 0.0) < 1e-3
        assert abs(result.centroids[1] - 10.0) < 1e-3

        memberships = fcm_memberships(result, values)
        sums = memberships.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9

        trace = result.objective_trace
        assert len(trace) >= 1
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier * (1 + 1e-12) + 1e-12

        # independent plain-loop reference converges to the same solution
        cents, u, _ = reference_fcm(values, c=2, m=2.0)
        assert np.allclose(result.centroids, cents, atol=1e-3)
        assert np.allclose(memberships, np.asarray(u), atol=1e-3)


def test_criterion_2_node_importance():
    with criterion(2, "node importance vs longest-path oracle"):
        rng = random.Random(2024)
        for _ in range(500):
            names, edges = random_dag(rng, max_nodes=8)
            net = dag_as_net(names, edges)
            importance = F.node_importance(net)
            assert importance == longest_path_importance(names, edges)
            for name in names:
                is_leaf = not any(p == name for p, _ in edges)
                if is_leaf:
                    assert importance[name] == 1


def test_criterion_3_dominance_and_order():
    with criterion(3, "dominance holds on 500 generated nets"):
        rng = random.Random(3030)
        rows_checked = 0
        for _ in range(500):
            net = random_cpnet(rng, max_nodes=8, max_domain=4)
            ucp = F.assign_utilities(net)
            assert F.check_dominance(ucp) == []
            for v in net.nodes:
                required = sum(
                    ucp.spans[c][1] for c in net.child_names(v.name)
                )
                assert isinstance(ucp.spans[v.name][0], int)
                assert ucp.spans[v.name][0] >= required
                for key, order in net.cpt[v.name].items():
                    utilities = [ucp.tables[v.name][key][value] for value in order]
                    assert all(
                        a > b for a, b in zip(utilities, utilities[1:])
                    )
                    rows_checked += 1
        assert rows_checked > 500


def test_criterion_4_spans_exact():
    with criterion(4, "span arithmetic is exact"):
        rng = random.Random(4040)
        for _ in range(200):
            net = random_cpnet(rng, max_nodes=8, max_domain=4)
            ucp = F.assign_utilities(net)
            for v in net.nodes:
                k = len(v.domain)
                step = ucp.steps[v.name]
                assert ucp.spans[v.name] == (step, (k - 1) * step)
                # recompute from the actual utility rows
                ordered_rows = [
                    [ucp.tables[v.name][key][value] for value in reversed(order)]
                    for key, order in net.cpt[v.name].items()
                ]
                assert F.spans(ordered_rows) == (step, (k - 1) * step)


def test_criterion_5_rewriting_matches_brute_force():
    with criterion(5, "rewriting equals brute-force top-T"):
        rng = random.Random(5050)
        checked = 0
        while checked < 200:
            net = random_cpnet(rng, max_nodes=4, max_domain=3)
            if net.outcome_count() > 12:
                continue
            checked += 1
            kb, bindings = kb_for_net(net, rng)
            ucp = F.assign_utilities(net)
            term_count = rng.randint(1, net.outcome_count())
            query = F.rewrite_query(ucp, kb, bindings, term_count)

            expected = brute_force_top_terms(ucp, term_count)
            assert [t.assignment for t in query.terms] == [dict(o) for o in expected]

            assert query.terms[0].importance == 1.0
            full = [
                F.term_importance(ucp, o) for o in F.enumerate_outcomes(net)
            ]
            assert min(full) == 0.0
            assert max(full) == 1.0


def test_criterion_6_evaluation_formula():
    with criterion(6, "max-min evaluation formula"):
        rng = random.Random(6060)

        pairs = 0
        for _ in range(100):
            kb, query, draw = random_weighted_query(rng, allow_missing=True)
            importance = F.node_importance(query.net)
            for _ in range(10):
                projection = F.project(kb, query, draw(), record_index=pairs)
                outcome = F.evaluate(projection, query, importance)
                recomputed = max(
                    min(s, t.importance)
                    for s, t in zip(outcome.term_scores, query.terms)
                )
                assert outcome.score == recomputed
                assert 0.0 <= outcome.score <= 1.0
                pairs += 1
        assert pairs == 1000

        trials = 0
        for _ in range(100):
            kb, query, draw = random_weighted_query(rng)
            importance = F.node_importance(query.net)
            for _ in range(10):
                projection = F.project(kb, query, draw())
                base = F.evaluate(projection, query, importance).score
                k = rng.randrange(projection.entries.shape[0])
                i = rng.randrange(projection.entries.shape[1])
                projection.entries[k, i] = min(
                    1.0, projection.entries[k, i] + rng.uniform(0.0, 1.0)
                )
                assert F.evaluate(projection, query, importance).score >= base
                trials += 1
        assert trials == 1000

        # hand case: S = (0.2, 0.9), U = (1.0, 0.3)
        from test_evaluate import projection_for, query_with_importances

        _kb, handcase = query_with_importances([1.0, 0.3])
        out = F.evaluate(projection_for([[0.2], [0.9]]), handcase, {"x": 1})
        assert out.score == 0.3


def test_criterion_7_parser_corpus():
    with criterion(7, "parser round-trip and diagnostics"):
        assert len(VALID_PROGRAMS) >= 20
        for text in VALID_PROGRAMS:
            spec = F.parse_query(text)
            assert F.parse_query(F.format_query(spec)) == spec

        assert len(INVALID_PROGRAMS) >= 15
        for text, exc_type, line, column, fragment in INVALID_PROGRAMS:
            with pytest.raises(exc_type) as err:
                F.parse_query(text)
            assert err.value.line == line
            assert err.value.column == column
            assert fragment in str(err.value)


def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion(8, "end-to-end CLI determinism"):
        # Children run from their own workdir, with the absolute import
        # root first on PYTHONPATH.
        env = child_env()
        outputs = []
        for run in range(3):
            workdir = tmp_path / f"run{run}"
            workdir.mkdir()
            kb_path = workdir / "kb.json"
            query_path = workdir / "q.json"

            def cli(*args):
                proc = subprocess.run(
                    [sys.executable, "-m", "fuzzycp", *args],
                    capture_output=True,
                    cwd=workdir,
                    env=env,
                )
                assert proc.returncode == 0, (
                    f"fuzzycp {' '.join(args)} failed:\n{proc.stderr.decode()}"
                )
                return proc.stdout

            cli(
                "kb", "build",
                "--input", str(DATA_DIR / "cars.csv"),
                "--out", str(kb_path),
                "--seed", "7",
                "--attr", "price:3:low,mid,high",
                "--attr", "km:2:low,high",
            )
            cli(
                "query", "compile",
                "--kb", str(kb_path),
                "--query", str(DATA_DIR / "cars.pref"),
                "--out", str(query_path),
            )
            tsv = cli(
                "eval",
                "--kb", str(kb_path),
                "--query", str(query_path),
                "--data", str(DATA_DIR / "cars.csv"),
                "--format", "tsv",
            )
            outputs.append(
                (kb_path.read_bytes(), query_path.read_bytes(), tsv)
            )
        assert outputs[0] == outputs[1] == outputs[2]
        header = outputs[0][2].decode().splitlines()[0]
        assert header.startswith("record_index\teval\ts_1")
