import contextlib
import copy
import errno
import gc
import io
import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzycp import (
    AttributeConfig,
    KBConfig,
    KnowledgeBase,
    build_knowledge_base,
    ingest_tabular,
)
from fuzzycp import scoring
from fuzzycp.cli import main
from fuzzycp.cpnet import OUTCOME_CAP
from fuzzycp.query import load_query, query_to_document
from fuzzycp.scoring import Ranking
from helpers import child_env, percent_tsv, reference_ingest

DATA_DIR = Path(__file__).resolve().parent.parent / "demos" / "data"
BENCH_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
# Written by the version 1 format with the README's ``kb build`` command
# (the KB_ARGS below, run from the repository root).
V1_KB = Path(__file__).resolve().parent / "data" / "cars_kb_v1.json"
# The same knowledge base in the version 2 format, kept fixed so that tests
# which print or compare exact centroids do not follow the last bits of
# fuzzy c-means; a fresh build stays within CENTROID_TOL times each
# column's largest magnitude of it.
CARS_KB = Path(__file__).resolve().parent / "data" / "cars_kb.json"
CENTROID_TOL = 1e-12
# Written by the version 1 compiled-query format: ``query compile`` of
# cars.pref against CARS_KB, run from the repository root.
V1_QUERY = Path(__file__).resolve().parent / "data" / "cars_query_v1.json"
# ``eval`` output of the bundled cars, against the KB_ARGS knowledge base
# and the query compiled from cars.pref with default options, and
# ``inspect`` output of that query
GOLDEN = Path(__file__).resolve().parent / "data"

KB_ARGS = [
    "kb", "build",
    "--input", str(DATA_DIR / "cars.csv"),
    "--seed", "7",
    "--attr", "price:3:low,mid,high",
    "--attr", "km:2:low,high",
]


@pytest.fixture
def built_kb(tmp_path):
    out = tmp_path / "kb.json"
    assert main(KB_ARGS + ["--out", str(out)]) == 0
    return out


def _compile(kb: Path, out: Path) -> Path:
    code = main([
        "query", "compile",
        "--kb", str(kb),
        "--query", str(DATA_DIR / "cars.pref"),
        "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture
def compiled_query(tmp_path, built_kb):
    return _compile(built_kb, tmp_path / "q.json")


# --- kb build ----------------------------------------------------------------


def test_kb_build_writes_document(tmp_path, capsys):
    out = tmp_path / "kb.json"
    assert main(KB_ARGS + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format_version"] == 2
    assert [a["name"] for a in doc["attributes"]] == ["price", "km"]
    assert all("memberships" not in a for a in doc["attributes"])
    assert doc["provenance"]["records"] == 20
    with open(DATA_DIR / "cars.csv", "rb") as f:
        dataset = ingest_tabular(f)
    config = KBConfig(seed=7, per_attribute={
        "price": AttributeConfig(3, ("low", "mid", "high")),
        "km": AttributeConfig(2, ("low", "high")),
    })
    built = build_knowledge_base(dataset, config)
    assert KnowledgeBase.from_document(doc).models == built.models
    err = capsys.readouterr().err
    assert "price" in err and "centroids" in err and "iterations" in err


def test_fresh_kb_build_matches_the_fixed_kb(built_kb):
    fresh, fixed = json.loads(built_kb.read_text()), json.loads(CARS_KB.read_text())
    dataset = ingest_tabular((DATA_DIR / "cars.csv").read_bytes())
    assert len(fresh["attributes"]) == len(fixed["attributes"])
    for ours, theirs in zip(fresh["attributes"], fixed["attributes"]):
        scale = np.max(np.abs(dataset.column(ours["name"])))
        difference = np.abs(np.subtract(ours["centroids"], theirs["centroids"]))
        assert np.max(difference) <= CENTROID_TOL * scale, ours["name"]
        assert {**ours, "centroids": None} == {**theirs, "centroids": None}
    # the same iteration counts and settings; only the source path differs
    assert {**fresh["provenance"], "source": None} == {**fixed["provenance"], "source": None}


def test_kb_build_warns_when_fuzzy_c_means_does_not_converge(tmp_path, capsys):
    out = tmp_path / "kb.json"
    assert main(KB_ARGS + ["--out", str(out)]) == 0
    assert "warning" not in capsys.readouterr().err
    stopped = tmp_path / "stopped.json"
    assert main(KB_ARGS + ["--out", str(stopped), "--max-iter", "1"]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert warnings == [
        f"fuzzycp: warning: {name}: fuzzy c-means did not converge within --max-iter 1"
        for name in ("price", "km")
    ]
    # the document records the same fact, and keeps its layout
    doc, stopped_doc = json.loads(out.read_text()), json.loads(stopped.read_text())
    assert doc["provenance"]["converged"] == {"price": True, "km": True}
    assert stopped_doc["provenance"]["converged"] == {"price": False, "km": False}
    assert stopped_doc["provenance"]["iterations"] == {"price": 1, "km": 1}
    assert list(stopped_doc) == list(doc)
    assert list(stopped_doc["provenance"]) == list(doc["provenance"])
    # and inspect prints it back
    capsys.readouterr()
    assert main(["inspect", str(stopped)]) == 0
    assert capsys.readouterr().out.count("\n  iterations: 1, converged: no\n") == 2


def test_kb_build_missing_input_flag_is_usage_error(tmp_path, capsys):
    code = main(["kb", "build", "--out", str(tmp_path / "kb.json")])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_kb_build_nonexistent_input_is_io_error(tmp_path, capsys):
    code = main([
        "kb", "build", "--input", str(tmp_path / "ghost.csv"),
        "--out", str(tmp_path / "kb.json"),
    ])
    assert code == 3


def test_kb_build_non_numeric_cell_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,oops\n")
    code = main(["kb", "build", "--input", str(bad), "--out", str(tmp_path / "kb.json"),
                 "--clusters", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "ParseError: attribute 'b', record 1: cannot parse 'oops' as a number" in err


# --- query compile -----------------------------------------------------------


def test_compile_writes_terms(compiled_query):
    doc = json.loads(compiled_query.read_text())
    assert doc["format_version"] == 2
    assert len(doc["terms"]) == 5
    assert doc["terms"][0]["importance"] == 1.0


def test_compile_syntax_error_reports_line(tmp_path, built_kb, capsys):
    bad = tmp_path / "bad.pref"
    bad.write_text("var x: attr price {\n    prefer low > mid > high\n oops\n}\n")
    code = main([
        "query", "compile", "--kb", str(built_kb),
        "--query", str(bad), "--out", str(tmp_path / "q.json"),
    ])
    assert code == 2
    assert "3:" in capsys.readouterr().err


def test_compile_label_mismatch_is_binding_error(tmp_path, built_kb, capsys):
    bad = tmp_path / "bad.pref"
    bad.write_text("var x: attr price { prefer cheap > pricey }\n")
    code = main([
        "query", "compile", "--kb", str(built_kb),
        "--query", str(bad), "--out", str(tmp_path / "q.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "BindingError" in err and "cheap" in err


def test_eval_refuses_a_missing_label_with_the_line_compile_prints(tmp_path, compiled_query,
                                                                   capsys):
    # a knowledge base whose price clusters have no "mid": compiling
    # cars.pref against it, and evaluating the query compiled against
    # another, break the one binding rule at the same variable
    other = tmp_path / "other.json"
    build = [arg.replace("low,mid,high", "low,medium,high") for arg in KB_ARGS]
    assert main(build + ["--out", str(other)]) == 0
    capsys.readouterr()
    assert main([
        "query", "compile", "--kb", str(other),
        "--query", str(DATA_DIR / "cars.pref"), "--out", str(tmp_path / "q.json"),
    ]) == 2
    compiling = capsys.readouterr().err
    assert main([
        "eval", "--kb", str(other), "--query", str(compiled_query),
        "--data", str(DATA_DIR / "cars.csv"),
    ]) == 2
    evaluating = capsys.readouterr()
    assert compiling == evaluating.err == (
        "fuzzycp: BindingError: attribute 'price' has no clusters labeled ['mid'] "
        "(variable 'cost')\n"
    )
    assert evaluating.out == ""


def test_compile_subset_domain_binds(tmp_path, built_kb):
    # a variable may use only some of the attribute's labels
    subset = tmp_path / "subset.pref"
    subset.write_text("var x: attr price { prefer low > high }\nterms 2\n")
    out = tmp_path / "q.json"
    assert main([
        "query", "compile", "--kb", str(built_kb),
        "--query", str(subset), "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert [t["assignment"]["x"] for t in doc["terms"]] == ["low", "high"]


def test_compile_drops_a_byte_order_mark(tmp_path, built_kb, compiled_query):
    # as the table reader does; editors on some systems write one before UTF-8 text
    marked = tmp_path / "marked.pref"
    marked.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / "cars.pref").read_bytes())
    out = tmp_path / "marked.json"
    assert main([
        "query", "compile", "--kb", str(built_kb),
        "--query", str(marked), "--out", str(out),
    ]) == 0
    assert out.read_bytes() == compiled_query.read_bytes()


def test_documents_with_a_byte_order_mark_read_as_without(tmp_path, built_kb, compiled_query,
                                                          capsys):
    # RFC 8259 lets a JSON reader ignore one, and tables and query text drop it too
    marked = {}
    for name, path in (("kb", built_kb), ("query", compiled_query)):
        marked[name] = tmp_path / f"marked-{path.name}"
        marked[name].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())

    def outputs(kb, query):
        compiled = tmp_path / "recompiled.json"
        assert main(["query", "compile", "--kb", str(kb),
                     "--query", str(DATA_DIR / "cars.pref"), "--out", str(compiled)]) == 0
        assert main(["eval", "--kb", str(kb), "--query", str(query),
                     "--data", str(DATA_DIR / "cars.csv")]) == 0
        assert main(["inspect", str(kb)]) == 0
        assert main(["inspect", str(query)]) == 0
        return compiled.read_bytes(), capsys.readouterr()

    plain = outputs(built_kb, compiled_query)
    assert outputs(marked["kb"], marked["query"]) == plain
    assert plain[1].out.count("\n") > 20


def test_compile_term_count_beyond_outcomes(tmp_path, built_kb, capsys):
    code = main([
        "query", "compile", "--kb", str(built_kb),
        "--query", str(DATA_DIR / "cars.pref"),
        "--out", str(tmp_path / "q.json"),
        "--terms", "100",
    ])
    assert code == 2
    assert "CapacityError" in capsys.readouterr().err


def _chain_query(variables: int, labels: tuple[str, ...]) -> str:
    """``variables`` variables on ``price``, each depending on the one before."""
    lines = [f"var v0: attr price {{ prefer {' > '.join(labels)} }}"]
    for i in range(1, variables):
        rows = "\n".join(
            f"    when v{i - 1} = {value}: prefer {' > '.join(labels[::-1] if k % 2 else labels)}"
            for k, value in enumerate(labels)
        )
        lines.append(f"var v{i}: attr price {{\n    depends v{i - 1}\n{rows}\n}}")
    return "\n".join(lines) + "\n"


def test_compile_net_beyond_enumeration_cap(tmp_path):
    # 4^10 outcomes, more than OUTCOME_CAP: compiling used to enumerate
    # them all and failed with CapacityError
    labels = ("a", "b", "c", "d")
    kb = tmp_path / "kb.json"
    assert main([
        "kb", "build", "--input", str(DATA_DIR / "cars.csv"), "--out", str(kb),
        "--seed", "7", "--attr", f"price:4:{','.join(labels)}",
    ]) == 0
    query = tmp_path / "wide.pref"
    query.write_text(_chain_query(10, labels))
    out = tmp_path / "q.json"

    def compile_(terms):
        return subprocess.run(
            [sys.executable, "-m", "fuzzycp", "query", "compile", "--kb", str(kb),
             "--query", str(query), "--out", str(out), "--terms", str(terms)],
            capture_output=True, text=True, cwd=tmp_path, env=child_env(), timeout=60,
        )

    proc = compile_(5)
    assert proc.returncode == 0, proc.stderr
    terms = json.loads(out.read_text())["terms"]
    assert len(terms) == 5
    assert terms[0]["importance"] == 1.0
    # above the cap: refused before any search starts, so a child that
    # tried to build a million terms would hit the timeout instead
    proc = compile_(OUTCOME_CAP + 1)
    assert proc.returncode == 2
    assert "CapacityError" in proc.stderr and "Traceback" not in proc.stderr


CYCLIC_QUERY = """\
var cost: attr price {
    depends wear
    when wear = low: prefer low > mid > high
    when wear = high: prefer high > mid > low
}
var wear: attr km {
    depends cost
    when cost = low: prefer high > low
    when cost = mid: prefer low > high
    when cost = high: prefer low > high
}
"""


def test_compile_names_the_same_cycle_under_every_hash_seed(tmp_path, built_kb):
    query = tmp_path / "cyclic.pref"
    query.write_text(CYCLIC_QUERY)
    errors = set()
    for seed in range(8):
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzycp", "query", "compile", "--kb", str(built_kb),
             "--query", str(query), "--out", str(tmp_path / "q.json")],
            capture_output=True, text=True, env={**child_env(), "PYTHONHASHSEED": str(seed)},
        )
        assert proc.returncode == 2
        errors.add(proc.stderr)
    assert errors == {
        "fuzzycp: ValidationError: invalid preference net: "
        "cycle at cost -> wear -> cost: dependencies form a cycle\n"
    }


# --- eval --------------------------------------------------------------------


def test_eval_tsv_top_five(tmp_path, built_kb, compiled_query, capsys):
    code = main([
        "eval", "--kb", str(built_kb), "--query", str(compiled_query),
        "--data", str(DATA_DIR / "cars.csv"), "--top", "5", "--format", "tsv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6  # header + 5 results
    assert lines[0].split("\t")[:2] == ["record_index", "eval"]
    assert lines[0].split("\t")[2:7] == ["s_1", "s_2", "s_3", "s_4", "s_5"]


def test_eval_json_mirrors_results(tmp_path, built_kb, compiled_query, capsys):
    code = main([
        "eval", "--kb", str(built_kb), "--query", str(compiled_query),
        "--data", str(DATA_DIR / "cars.csv"), "--top", "3", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format_version"] == 1
    assert len(doc["results"]) == 3
    best = doc["results"][0]
    assert best["position"] == 1
    assert best["eval"] == max(min(s, u) for s, u in zip(
        best["term_scores"],
        [t["importance"] for t in json.loads(compiled_query.read_text())["terms"]],
    ))


def test_eval_missing_value_is_flagged_not_fatal(tmp_path, built_kb, compiled_query, capsys):
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("price,km\n10,\n20,100\n")
    code = main([
        "eval", "--kb", str(built_kb), "--query", str(compiled_query),
        "--data", str(sparse),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "missing:wear" in out


def test_a_headerless_table_runs_the_pipeline_under_column_names(tmp_path, built_kb,
                                                                 compiled_query, capsys):
    # the same table without its header row, read as col0 (price) and col1 (km)
    table = tmp_path / "headerless.csv"
    table.write_text((DATA_DIR / "cars.csv").read_text().split("\n", 1)[1])
    text = (DATA_DIR / "cars.pref").read_text()
    query_text = tmp_path / "headerless.pref"
    query_text.write_text(text.replace("attr price", "attr col0").replace("attr km", "attr col1"))
    kb, query = tmp_path / "headerless_kb.json", tmp_path / "headerless_q.json"
    assert main(["kb", "build", "--input", str(table), "--out", str(kb), "--no-header",
                 "--seed", "7", "--attr", "col0:3:low,mid,high", "--attr", "col1:2:low,high"]) == 0
    assert main(["query", "compile", "--kb", str(kb), "--query", str(query_text),
                 "--out", str(query)]) == 0
    assert [a["name"] for a in json.loads(kb.read_text())["attributes"]] == ["col0", "col1"]
    capsys.readouterr()
    assert main(["eval", "--kb", str(kb), "--query", str(query), "--data", str(table),
                 "--no-header"]) == 0
    headerless = capsys.readouterr()
    assert main(["eval", "--kb", str(built_kb), "--query", str(compiled_query),
                 "--data", str(DATA_DIR / "cars.csv")]) == 0
    assert headerless.out == capsys.readouterr().out
    assert headerless.err == ""


def test_eval_warns_when_the_table_has_none_of_the_querys_attributes(tmp_path, built_kb,
                                                                     compiled_query, capsys):
    # a headerless table read with a header: its first row names the columns
    table = tmp_path / "headerless.csv"
    table.write_text("5,200\n7,180\n9,\n")
    assert main(["eval", "--kb", str(built_kb), "--query", str(compiled_query),
                 "--data", str(table)]) == 0
    captured = capsys.readouterr()
    rows = [line.split("\t") for line in captured.out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["0", "1"]
    assert {cell for row in rows for cell in row[1:-1]} == {"0.000000"}
    assert {row[-1] for row in rows} == {"missing:cost;missing:wear;missing:stretch"}
    assert captured.err == ("fuzzycp: warning: the table has none of the query's attributes "
                            "(price, km): every value is missing\n")
    # one bound attribute is enough for no warning
    table.write_text("price\n5\n")
    assert main(["eval", "--kb", str(built_kb), "--query", str(compiled_query),
                 "--data", str(table), "--format", "json"]) == 0
    assert capsys.readouterr().err == ""


def test_eval_edited_term_label_is_stale_terms_error(tmp_path, built_kb, compiled_query,
                                                     capsys):
    # the terms follow from the cpnet block, so an edited term disagrees
    # with it before any label meets the knowledge base
    doc = json.loads(compiled_query.read_text())
    doc["terms"][-1]["assignment"]["wear"] = "scrapped"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    code = main([
        "eval", "--kb", str(built_kb), "--query", str(edited),
        "--data", str(DATA_DIR / "cars.csv"),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ConfigError" in captured.err and "terms" in captured.err


def test_eval_ignores_weights_of_older_documents(tmp_path, built_kb, compiled_query, capsys):
    # compiled queries written before term weights were dropped carry an
    # empty "weights" map on every term
    doc = json.loads(compiled_query.read_text())
    for term in doc["terms"]:
        term["weights"] = {}
    older = tmp_path / "older.json"
    older.write_text(json.dumps(doc))
    outputs = []
    for query in (compiled_query, older):
        assert main([
            "eval", "--kb", str(built_kb), "--query", str(query),
            "--data", str(DATA_DIR / "cars.csv"),
        ]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("top", ["0", "-1", "-1998"])
def test_eval_top_below_one_is_usage_error(built_kb, compiled_query, capsys, top):
    code = main([
        "eval", "--kb", str(built_kb), "--query", str(compiled_query),
        "--data", str(DATA_DIR / "cars.csv"), "--top", top,
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--top" in captured.err


# The JSON writer ends with a write of its own, which meets the closed pipe
# whenever the large one before it is cut short without an error; the TSV
# writer's one large write meets it only when it starts after the close.
@pytest.mark.parametrize("output", ["tsv", "json"])
def test_eval_stops_quietly_when_the_reader_closes_stdout(tmp_path, built_kb, compiled_query,
                                                          capsys, output):
    rng = np.random.default_rng(5)
    table = tmp_path / "many.csv"
    rows = zip(rng.integers(1, 20, 5000).tolist(), rng.integers(10, 300, 5000).tolist())
    table.write_text("price,km\n" + "".join(f"{p},{k}\n" for p, k in rows))
    argv = ["eval", "--kb", str(built_kb), "--query", str(compiled_query), "--data", str(table),
            "--format", output]
    assert main(argv) == 0
    out = capsys.readouterr().out
    # more than a pipe buffer, so the child is still writing when the pipe closes
    assert len(out.encode()) > 4 * 65536
    proc = subprocess.Popen(
        [sys.executable, "-m", "fuzzycp", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert first.decode() == out.split("\n", 1)[0] + "\n"


FILE_SIZE_LIMIT = 100 * 1024


def _limit_file_size():
    resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_SIZE_LIMIT, FILE_SIZE_LIMIT))


# A large write that a file-size limit cuts short returns without an error;
# only writing the rest raises the system's error.
@pytest.mark.parametrize("output", ["tsv", "json"])
def test_eval_cut_short_by_a_file_size_limit_is_an_io_error(tmp_path, built_kb, compiled_query,
                                                            capsys, output):
    header, rows = (DATA_DIR / "cars.csv").read_text().split("\n", 1)
    table = tmp_path / "many.csv"
    table.write_text(header + "\n" + rows * 250)
    argv = ["eval", "--kb", str(built_kb), "--query", str(compiled_query), "--data", str(table),
            "--format", output]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.encode()) > 2 * FILE_SIZE_LIMIT
    out = tmp_path / "out.txt"
    with open(out, "wb") as stdout:
        # the limit holds in the child alone
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzycp", *argv], stdout=stdout, stderr=subprocess.PIPE,
            text=True, env=child_env(), preexec_fn=_limit_file_size,
        )
    assert proc.returncode == 3
    assert proc.stderr == f"fuzzycp: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
    assert out.stat().st_size == FILE_SIZE_LIMIT


# 1 GiB holds a stage's interpreter and numpy with room to spare, and not
# the 1.5 GiB of S_k that 20,000 rows x 10,000 terms take
ADDRESS_SPACE_LIMIT = 2**30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def test_eval_out_of_memory_is_a_resource_error(tmp_path, built_kb):
    # nine independent price variables: 3^9 outcomes, of which 10,000 are terms
    pref = tmp_path / "wide.pref"
    pref.write_text("".join(f"var v{i}: attr price {{\n    prefer low > mid > high\n}}\n"
                            for i in range(9)) + "terms 10000\n")
    query = tmp_path / "wide.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["query", "compile", "--kb", str(built_kb), "--query", str(pref),
                     "--out", str(query)]) == 0
    header, rows = (DATA_DIR / "cars.csv").read_text().split("\n", 1)
    table = tmp_path / "many.csv"
    table.write_text(header + "\n" + rows * (20_000 // rows.count("\n")))
    # the limit holds in the child alone, and one BLAS thread keeps its
    # start-up well inside it
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzycp", "eval", "--kb", str(built_kb), "--query", str(query),
         "--data", str(table)],
        capture_output=True, text=True, env={**child_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("fuzzycp: Unable to allocate"), proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_memory_error_without_text_says_memory_ran_out(monkeypatch, built_kb, compiled_query,
                                                       capsys):
    def rank(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(scoring, "rank", rank)
    argv = ["eval", "--kb", str(built_kb), "--query", str(compiled_query),
            "--data", str(DATA_DIR / "cars.csv")]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "fuzzycp: out of memory\n")


# a non-ASCII variable (in flags, the JSON and inspect) and attribute (in inspect)
LOCALE_STAGES = {
    "eval": lambda kb, query, table: ["eval", "--kb", kb, "--query", query, "--data", table],
    "eval-json": lambda kb, query, table: ["eval", "--kb", kb, "--query", query,
                                           "--data", table, "--format", "json"],
    "inspect-kb": lambda kb, query, table: ["inspect", kb],
    "inspect-query": lambda kb, query, table: ["inspect", query],
}


@pytest.mark.parametrize("stage", list(LOCALE_STAGES))
def test_stdout_is_utf8_in_every_locale(tmp_path, stage):
    built, table = tmp_path / "voitures.csv", tmp_path / "manquants.csv"
    rows = (DATA_DIR / "cars.csv").read_text().replace("km", "kilomètres", 1).split("\n")
    built.write_text("\n".join(rows), encoding="utf-8")
    for i in (2, 5, 9):  # empty km cells, so that the flags name the variable
        rows[i] = rows[i].split(",")[0] + ","
    table.write_text("\n".join(rows), encoding="utf-8")
    pref = tmp_path / "q.pref"
    pref.write_text((DATA_DIR / "cars.pref").read_text().replace("wear", "usé")
                    .replace("attr km", "attr kilomètres"), encoding="utf-8")
    kb, query = tmp_path / "kb.json", tmp_path / "q.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main([*KB_ARGS[:3], str(built), *KB_ARGS[4:-1], "kilomètres:2:low,high",
                     "--out", str(kb)]) == 0
        assert main(["query", "compile", "--kb", str(kb), "--query", str(pref),
                     "--out", str(query)]) == 0
    argv = [str(arg) for arg in LOCALE_STAGES[stage](kb, query, table)]
    outputs = {}
    for encoding in ("utf-8", "ascii", "latin-1"):
        proc = subprocess.run([sys.executable, "-m", "fuzzycp", *argv], capture_output=True,
                              env={**child_env(), "PYTHONIOENCODING": encoding})
        assert (proc.returncode, proc.stderr) == (0, b""), (encoding, proc.stderr)
        outputs[encoding] = proc.stdout
    name = "kilomètres" if stage == "inspect-kb" else "usé"
    assert name.encode() in outputs["utf-8"]
    assert outputs["ascii"] == outputs["latin-1"] == outputs["utf-8"]


def test_eval_is_byte_deterministic(tmp_path, built_kb, compiled_query, capsys):
    args = [
        "eval", "--kb", str(built_kb), "--query", str(compiled_query),
        "--data", str(DATA_DIR / "cars.csv"),
    ]
    outputs = []
    for _ in range(2):
        assert main(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def _avx512_dispatch() -> list[str]:
    """The AVX-512 targets that numpy dispatches kernels to on this host,
    the only features ``NPY_DISABLE_CPU_FEATURES`` may name here."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__
            if __cpu_features__.get(name) and (name == "X86_V4" or name.startswith("AVX512"))]


@pytest.mark.parametrize("fuzzifier", ["2", "2.5"])
def test_output_does_not_follow_avx512_dispatch(tmp_path, compiled_query, fuzzifier):
    # numpy picks a float64 power kernel by CPU feature; the two differ in
    # the last bit, except where an exponent of 2 makes the power a square
    disabled = _avx512_dispatch()
    if not disabled:
        pytest.skip("numpy dispatches to no AVX-512 kernel on this host: nothing to disable")
    outputs = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}):
        kb = tmp_path / f"kb{len(outputs)}.json"
        stages = [KB_ARGS + ["--fuzzifier", fuzzifier, "--out", str(kb)],
                  ["eval", "--kb", str(kb), "--query", str(compiled_query),
                   "--data", str(DATA_DIR / "cars.csv")]]
        runs = [subprocess.run([sys.executable, "-m", "fuzzycp", *argv], capture_output=True,
                               text=True, env={**child_env(), **extra}) for argv in stages]
        assert [run.returncode for run in runs] == [0, 0], runs[-1].stderr
        assert "Warning" not in runs[0].stderr + runs[1].stderr
        outputs.append((kb.read_text(), runs[1].stdout))
    if fuzzifier == "2":
        assert outputs[0] == outputs[1]
        return
    host, portable = (json.loads(text) for text, _ in outputs)
    assert host["provenance"]["iterations"] == portable["provenance"]["iterations"]
    dataset = ingest_tabular((DATA_DIR / "cars.csv").read_bytes())
    for ours, theirs in zip(host["attributes"], portable["attributes"]):
        scale = np.max(np.abs(dataset.column(ours["name"])))
        difference = np.abs(np.subtract(ours["centroids"], theirs["centroids"]))
        assert np.max(difference) <= CENTROID_TOL * scale, ours["name"]


# scores where rint(x * 1e6) and %.6f may disagree, and where they meet
TIES = [(k + 0.5) / 1e6 for k in (0, 1, 7812, 499999, 999998, 999999)]
EDGES = [0.0, 1.0, 1 - 5e-7, 1 / 128, 3 / 256, 5e-324, 2.2250738585072014e-308, 5e-7]
# scores no ranking holds, which the writer still formats as % does
BEYOND = [-0.0, -1e-9, 1 + 1e-9, 2.5, 1e300, float("inf"), float("-inf"), float("nan")]
INDEXES = [0, 9, 10, 999, 1000, 10**6]


def _random_ranking(rng, n, term_count, specials):
    """A Ranking of ``n`` rows whose cells are drawn from uniform scores,
    exact halves and ``specials``, with several missing variables a row."""
    variables = ("cost", "wear", "größe", "a;b")
    scores = rng.random((n, term_count + 1))
    pick = rng.random(scores.shape)
    scores[pick < 0.4] = rng.choice(specials, size=int((pick < 0.4).sum()))
    halves = (rng.integers(0, 10**6, size=scores.shape) + 0.5) / 1e6
    scores[pick > 0.7] = halves[pick > 0.7]
    index = rng.integers(0, 2 * 10**6, size=n)
    index[: min(n, len(INDEXES))] = INDEXES[:n]
    missing = rng.random((n, len(variables))) < 0.3
    return Ranking(variables, index, scores[:, 0], scores[:, 1:], missing)


@pytest.mark.parametrize("seed", range(4))
def test_tsv_writer_equals_the_percent_format(seed):
    rng = np.random.default_rng(seed)
    for n in (0, 1, 6, 50, 400):
        for term_count in (1, 5):
            specials = TIES + EDGES + (BEYOND if seed % 2 else [])
            ranking = _random_ranking(rng, n, term_count, specials)
            assert b"".join(scoring.tsv_bytes(ranking)) == percent_tsv(ranking).encode(), \
                (n, term_count)


def test_tsv_writer_needs_its_percent_cells(monkeypatch):
    ranking = _random_ranking(np.random.default_rng(0), 400, 5, TIES + EDGES)
    monkeypatch.setattr(scoring, "_printf_cells", lambda x, scaled: np.zeros(x.shape, bool))
    assert b"".join(scoring.tsv_bytes(ranking)) != percent_tsv(ranking).encode()


def test_digit_groups_are_the_percent_03d_rows():
    rows = np.array([list(b"%03d" % k) for k in range(1000)], dtype=np.uint8)
    groups = scoring._DIGIT_GROUPS
    assert groups.dtype == rows.dtype and groups.shape == rows.shape
    assert np.array_equal(groups, rows)


def test_kb_build_reads_carriage_return_line_ends(tmp_path):
    outputs = []
    for newline in (b"\n", b"\r", b"\r\n"):
        table = tmp_path / "cars.csv"
        table.write_bytes((DATA_DIR / "cars.csv").read_bytes().replace(b"\n", newline))
        out = tmp_path / "kb.json"
        # KB_ARGS with the input path (its item 3) replaced
        assert main([*KB_ARGS[:3], str(table), *KB_ARGS[4:], "--out", str(out)]) == 0
        outputs.append(json.loads(out.read_text())["attributes"])
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("flags, golden", [
    ([], "cars_eval.tsv"),
    (["--top", "5", "--format", "json"], "cars_eval_top5.json"),
])
def test_eval_output_is_golden(tmp_path, built_kb, capsys, flags, golden):
    # the TSV prints 6 decimals and reads a fresh build; JSON prints every
    # digit of a score and reads the fixed knowledge base
    kb = CARS_KB if golden.endswith(".json") else built_kb
    query = _compile(kb, tmp_path / "q.json")
    assert main([
        "eval", "--kb", str(kb), "--query", str(query),
        "--data", str(DATA_DIR / "cars.csv"), *flags,
    ]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


# --- knowledge-base document versions ----------------------------------------


def test_v1_document_loads_to_same_models():
    assert KnowledgeBase.load(V1_KB).models == KnowledgeBase.load(CARS_KB).models


def test_eval_same_tsv_with_v1_or_v2_kb(built_kb, compiled_query, capsys):
    outputs = []
    for kb in (V1_KB, built_kb):
        assert main([
            "eval", "--kb", str(kb), "--query", str(compiled_query),
            "--data", str(DATA_DIR / "cars.csv"),
        ]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_v1_memberships_are_ignored(tmp_path, capsys):
    doc = json.loads(V1_KB.read_text())
    doc["attributes"][0]["memberships"][0][0] = 5.0
    edited = tmp_path / "kb_v1.json"
    edited.write_text(json.dumps(doc))
    assert KnowledgeBase.load(edited).models == KnowledgeBase.load(CARS_KB).models
    assert main(["inspect", str(edited)]) == 0


def test_unknown_kb_version_is_data_error(tmp_path, built_kb, capsys):
    doc = json.loads(built_kb.read_text())
    doc["format_version"] = 3
    edited = tmp_path / "kb_v3.json"
    edited.write_text(json.dumps(doc))
    code = main([
        "query", "compile", "--kb", str(edited),
        "--query", str(DATA_DIR / "cars.pref"),
        "--out", str(tmp_path / "q.json"),
    ])
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err


# --- compiled-query document versions ---------------------------------------


def _query_outputs(query, capsys):
    """What ``eval`` (TSV, and the top 5 as JSON) and ``inspect`` print
    with the compiled query ``query`` and the fixed knowledge base."""
    run = ["eval", "--kb", str(CARS_KB), "--query", str(query), "--data", str(DATA_DIR / "cars.csv")]
    outputs = []
    for argv in (run, run + ["--top", "5", "--format", "json"], ["inspect", str(query)]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    return outputs


def test_v2_query_is_the_v1_query_without_its_text(tmp_path):
    fresh = json.loads(_compile(CARS_KB, tmp_path / "q.json").read_text())
    v1 = json.loads(V1_QUERY.read_text())
    del v1["query"], v1["max_total_utility"]  # the sum of the maxspans, no longer written
    assert fresh == {**v1, "format_version": 2}


def test_same_output_with_v1_or_v2_query(tmp_path, capsys):
    fresh = _compile(CARS_KB, tmp_path / "q.json")
    assert _query_outputs(V1_QUERY, capsys) == _query_outputs(fresh, capsys)


def test_the_v1_query_loads_as_the_query_compiled_today(tmp_path):
    fresh = json.loads(_compile(CARS_KB, tmp_path / "q.json").read_text())
    assert query_to_document(load_query(V1_QUERY)) == fresh


def _keys_reversed(value):
    if isinstance(value, dict):
        return {key: _keys_reversed(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [_keys_reversed(item) for item in value]
    return value


def test_a_query_with_every_objects_keys_reversed_prints_the_same(tmp_path, capsys):
    fresh = _compile(CARS_KB, tmp_path / "q.json")
    reversed_ = tmp_path / "reversed.json"
    reversed_.write_text(json.dumps(_keys_reversed(json.loads(fresh.read_text())), indent=2))
    assert reversed_.read_text() != fresh.read_text()
    outputs = _query_outputs(reversed_, capsys)
    assert outputs == _query_outputs(fresh, capsys)
    assert outputs[2].encode() == (GOLDEN / "cars_inspect_query.txt").read_bytes()


def test_v1_query_text_is_ignored(tmp_path, capsys):
    doc = json.loads(V1_QUERY.read_text())
    doc["query"] = doc["query"].replace("prefer", "prefers", 1)
    edited = tmp_path / "q_v1.json"
    edited.write_text(json.dumps(doc))
    assert _query_outputs(edited, capsys) == _query_outputs(V1_QUERY, capsys)


def test_v1_query_with_an_edited_utility_is_stale(tmp_path, capsys):
    doc = json.loads(V1_QUERY.read_text())
    _bump_utility(doc)
    edited = tmp_path / "q_v1.json"
    edited.write_text(json.dumps(doc))
    code = main([
        "eval", "--kb", str(CARS_KB), "--query", str(edited),
        "--data", str(DATA_DIR / "cars.csv"),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ConfigError: compiled query disagrees with its cpnet in: utilities" in captured.err


# --- bad input ---------------------------------------------------------------


def _kb_build(*flags):
    return lambda tmp_path, kb, query: [
        "kb", "build", "--input", str(DATA_DIR / "cars.csv"),
        "--out", str(tmp_path / "out.json"), *flags,
    ]


def _eval_edited(edit, document="query"):
    """Evaluate with a copy of the compiled query (or of the knowledge base,
    for ``document="kb"``), changed in place by ``edit``."""

    def argv(tmp_path, kb, query):
        paths = {"kb": kb, "query": query}
        doc = json.loads(paths[document].read_text())
        edit(doc)
        paths[document] = tmp_path / "edited.json"
        paths[document].write_text(json.dumps(doc))
        return [
            "eval", "--kb", str(paths["kb"]), "--query", str(paths["query"]),
            "--data", str(DATA_DIR / "cars.csv"),
        ]

    return argv


def _bump_utility(doc):
    values = doc["utilities"]["cost"]["rows"][0]["values"]
    values["mid"] += 1


def _set_first_model(key, value):
    def edit(doc):
        model = doc["attributes"][0]
        model[key] = [value, *model[key][1:]] if key == "centroids" else value

    return _eval_edited(edit, document="kb")


def _centroids_to_strings(doc):
    model = doc["attributes"][0]
    model["centroids"] = [str(c) for c in model["centroids"]]


def _string_labels_to_numbers(doc):
    model = doc["attributes"][0]
    model["labels"] = list(range(len(model["labels"])))


def _on_table(command, *flags, content=None):
    """``kb build`` or ``eval`` of a table file holding the bytes
    ``content``, or of the bundled cars table."""

    def argv(tmp_path, kb, query):
        table = DATA_DIR / "cars.csv"
        if content is not None:
            table = tmp_path / "table.csv"
            table.write_bytes(content)
        if command == "kb":
            return ["kb", "build", "--input", str(table),
                    "--out", str(tmp_path / "out.json"), *flags]
        return ["eval", "--kb", str(kb), "--query", str(query), "--data", str(table), *flags]

    return argv


def _far_from_every_centroid(*flags):
    """``eval`` of a 1e308 price against a knowledge base whose price
    centroids lie near -1e308, so that every distance overflows."""

    def far(doc):
        doc["attributes"][0].update(centroids=[-1e308, -0.95e308, -0.9e308])

    def argv(tmp_path, kb, query):
        edited = _eval_edited(far, document="kb")(tmp_path, kb, query)
        return _on_table("eval", *flags, content=b"price,km\n1e308,1\n5,200\n")(
            tmp_path, edited[2], query
        )

    return argv


def _replaced(document, content):
    """Evaluate with the knowledge base or compiled query replaced by a file
    holding ``content`` (JSON text, or bytes), or for ``document="inspect"``
    inspect that file; ``document="pref"`` compiles it as query text, and
    ``document="compile"`` compiles the bundled query against it."""

    def argv(tmp_path, kb, query):
        path = tmp_path / "replaced.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        if document == "pref":
            return ["query", "compile", "--kb", str(kb), "--query", str(path),
                    "--out", str(tmp_path / "out.json")]
        if document == "compile":
            return ["query", "compile", "--kb", str(path), "--query", str(DATA_DIR / "cars.pref"),
                    "--out", str(tmp_path / "out.json")]
        if document == "inspect":
            return ["inspect", str(path)]
        paths = {"kb": kb, "query": query, document: path}
        return [
            "eval", "--kb", str(paths["kb"]), "--query", str(paths["query"]),
            "--data", str(DATA_DIR / "cars.csv"),
        ]

    return argv


def _split_name_beyond_float(doc):
    """The first attribute renamed ``k\nm``, with a centroid beyond every float."""
    doc["attributes"][0].update(name="k\nm")
    doc["attributes"][0]["centroids"][0] = 10**400


def _inspect_edited_kb(edit):
    def argv(tmp_path, kb, query):
        edited_kb = _eval_edited(edit, document="kb")(tmp_path, kb, query)[2]
        return ["inspect", edited_kb]

    return argv


# variable names that would split a cell of the eval TSV or a line of inspect
SPLITTING_NAMES = {"tab": "we\tar", "newline": "we\nar"}


def _renamed(command, old, new, document="query"):
    """``eval`` or ``inspect`` of the compiled query (or of the knowledge
    base, for ``document="kb"``) with the string ``old`` renamed ``new``
    throughout."""

    def argv(tmp_path, kb, query):
        paths = {"kb": kb, "query": query}
        path = tmp_path / "renamed.json"
        path.write_text(paths[document].read_text().replace(json.dumps(old), json.dumps(new)))
        paths[document] = path
        if command == "inspect":
            return ["inspect", str(path)]
        return ["eval", "--kb", str(paths["kb"]), "--query", str(paths["query"]),
                "--data", str(DATA_DIR / "cars.csv")]

    return argv


# documents that hold a lone surrogate, which no UTF-8 output can print:
# a knowledge-base label and a compiled query's variable name
LONE_SURROGATE = {
    "kb": CARS_KB.read_text().replace('"mid"', '"m\\ud800"'),
    "query": V1_QUERY.read_text().replace("wear", "w\\ud800"),
}

BAD_INPUTS = {
    "terms-0": lambda tmp_path, kb, query: [
        "query", "compile", "--kb", str(kb),
        "--query", str(DATA_DIR / "cars.pref"),
        "--out", str(tmp_path / "out.json"), "--terms", "0",
    ],
    "clusters-1": _kb_build("--clusters", "1"),
    "fuzzifier-1": _kb_build("--fuzzifier", "1"),
    "tol-0": _kb_build("--tol", "0"),
    "attr-count-not-integer": _kb_build("--attr", "price:x"),
    "terms-out-of-order": _eval_edited(lambda doc: doc["terms"].reverse()),
    "empty-domain": _eval_edited(lambda doc: doc["cpnet"]["nodes"][0].update(domain=[])),
    "term-missing-variable": _eval_edited(
        lambda doc: doc["terms"][0]["assignment"].pop("wear")
    ),
    "term-importance-not-a-number": _eval_edited(
        lambda doc: doc["terms"][1].update(importance="abc")
    ),
    "utility-edited": _eval_edited(_bump_utility),
    "kb-centroid-not-a-number": _set_first_model("centroids", "x"),
    "kb-fuzzifier-not-a-number": _set_first_model("fuzzifier", "x"),
    "kb-centroid-nan": _set_first_model("centroids", float("nan")),
    # values that are not JSON numbers, which a coercing reader once took
    "kb-centroids-a-digit-string": _eval_edited(
        lambda doc: doc["attributes"][0].update(centroids="159"), document="kb"
    ),
    "kb-centroids-numeric-strings": _eval_edited(_centroids_to_strings, document="kb"),
    "kb-fuzzifier-numeric-string": _set_first_model("fuzzifier", "2"),
    "kb-centroid-true": _set_first_model("centroids", True),
    "kb-centroid-integer-beyond-float": _set_first_model("centroids", 10**400),
    "kb-format-version-true": _eval_edited(
        lambda doc: doc.update(format_version=True), document="kb"
    ),
    "query-format-version-float": _eval_edited(lambda doc: doc.update(format_version=2.0)),
    "query-term-importance-true": _eval_edited(
        lambda doc: doc["terms"][0].update(importance=True)
    ),
    "query-leaf-importance-true": _eval_edited(
        lambda doc: doc["importance"].update(stretch=True)
    ),
    "kb-attributes-not-a-list": _eval_edited(
        lambda doc: doc.update(attributes=5), document="kb"
    ),
    "kb-labels-not-strings": _eval_edited(_string_labels_to_numbers, document="kb"),
    "kb-labels-not-strings-inspect": _inspect_edited_kb(_string_labels_to_numbers),
    "kb-document-a-list": _replaced("kb", "[1]"),
    "query-document-a-list": _replaced("query", "[1]"),
    "inspect-json-number": _replaced("inspect", "3"),
    "inspect-json-string": _replaced("inspect", '"attributes"'),
    "query-edge-not-a-pair": _eval_edited(lambda doc: doc["cpnet"].update(edges=[["a"]])),
    "query-domain-not-a-list": _eval_edited(
        lambda doc: doc["cpnet"]["nodes"][0].update(domain=7)
    ),
    "query-terms-not-a-list": _eval_edited(lambda doc: doc.update(terms=3)),
    "query-without-cpnet": _eval_edited(lambda doc: doc.pop("cpnet")),
    "query-without-terms": _eval_edited(lambda doc: doc.pop("terms")),
    "query-node-without-attribute": _eval_edited(
        lambda doc: doc["cpnet"]["nodes"][0].pop("attribute")
    ),
    "query-row-without-when": _eval_edited(lambda doc: doc["cpnet"]["cpt"]["cost"][0].pop("when")),
    "kb-provenance-not-an-object": _eval_edited(
        lambda doc: doc.update(provenance=5), document="kb"
    ),
    "kb-attribute-without-labels": _eval_edited(
        lambda doc: doc["attributes"][0].pop("labels"), document="kb"
    ),
    "kb-attribute-without-name": _eval_edited(
        lambda doc: doc["attributes"][0].pop("name"), document="kb"
    ),
    "kb-attribute-without-centroids": _eval_edited(
        lambda doc: doc["attributes"][0].pop("centroids"), document="kb"
    ),
    "kb-attribute-listed-twice": _eval_edited(
        lambda doc: doc["attributes"].append(doc["attributes"][0]), document="kb"
    ),
    "kb-seed-nan": _eval_edited(
        lambda doc: doc["provenance"].update(seed=float("nan")), document="kb"
    ),
    "kb-seed-nan-inspect": _inspect_edited_kb(
        lambda doc: doc["provenance"].update(seed=float("nan"))
    ),
    "query-term-unread-key-infinity": _eval_edited(
        lambda doc: doc["terms"][0].update(note=float("-inf"))
    ),
    "kb-lone-surrogate": _replaced("kb", LONE_SURROGATE["kb"]),
    "compile-kb-lone-surrogate": _replaced("compile", LONE_SURROGATE["kb"]),
    "inspect-kb-lone-surrogate": _replaced("inspect", LONE_SURROGATE["kb"]),
    "query-lone-surrogate": _replaced("query", LONE_SURROGATE["query"]),
    "inspect-query-lone-surrogate": _replaced("inspect", LONE_SURROGATE["query"]),
    "inspect-not-utf8": _replaced("inspect", b'{"format_version": 1, "x": "\xff"}'),
    "kb-not-utf8": _replaced("kb", b'{"format_version": 2, "attributes": ["\xff"]}'),
    "query-not-utf8": _replaced("query", b'{"format_version": 1, "x": "\xff"}'),
    "pref-not-utf8": _replaced("pref", b"var cost: attr price { prefer \xff }\n"),
    "pref-latin1-comment": _replaced(
        "pref", b"# caf\xe9\n" + (DATA_DIR / "cars.pref").read_bytes()
    ),
    "kb-build-input-not-utf8": _on_table("kb", content=b"a,b\n1,\xff\n"),
    "eval-data-not-utf8": _on_table("eval", content=b"price,km\n1,\xff\n"),
    "kb-build-delimiter-empty": _kb_build("--delimiter", ""),
    "kb-build-delimiter-two": _kb_build("--delimiter", ",,"),
    "kb-build-delimiter-newline": _kb_build("--delimiter", "\n"),
    "eval-delimiter-empty": _on_table("eval", "--delimiter", ""),
    "eval-delimiter-newline": _on_table("eval", "--delimiter", "\n"),
    "tol-nan": _kb_build("--tol", "nan"),
    "max-iter-0": _kb_build("--max-iter", "0"),
    "kb-build-bare-cr-splits-a-row": _on_table("kb", content=b"a,b\n1,2\n3\r4,5\n"),
    "kb-build-values-too-far-apart": _on_table("kb", content=b"a\n1e308\n-1e308\n5\n1\n2\n"),
    "kb-build-weighted-sum-overflows": _on_table(
        "kb", content=b"a\n" + b"1e306\n" * 1000 + b"0\n5e305\n1\n"
    ),
    "kb-build-start-overflows": _on_table(
        "kb", content=b"a\n" + b"1.7976931348623157e308\n" * 1000 + b"0\n1\n"
    ),
    "eval-value-too-far-from-every-centroid": _far_from_every_centroid(),
    "eval-json-value-too-far-from-every-centroid": _far_from_every_centroid("--format", "json"),
    "eval-bare-cr-splits-a-row": _on_table("eval", content=b"price,km\n1,2\n3\r4,5\n"),
    "eval-cell-over-csv-field-limit": _on_table(
        "eval", content=b"price,km\n1," + b"x" * 200_000 + b"\n"
    ),
    "seed-negative": _kb_build("--seed", "-1"),
    "tol-inf": _kb_build("--tol", "inf"),
    "clusters-negative": _kb_build("--clusters", "-3"),
    "fuzzifier-huge": _kb_build("--fuzzifier", "1e308"),
    **{
        f"{document}-{case}": _replaced(document, content)
        for document in ("kb", "query", "inspect", "compile")
        for case, content in {
            "integer-over-digit-limit": '{"format_version": ' + "9" * 5000 + "}",
            "nesting-over-recursion-limit": "[" * 100_000,
            "repeated-key": '{"format_version": 2, "attributes": [{"name": "p", "name": "q"}]}',
        }.items()
    },
    "pref-flat-utility": _replaced("pref", "var cost: attr price {\n    prefer low\n}\n"),
    # the parser reads both; a query needs a variable to compile
    "pref-empty": _replaced("pref", ""),
    "pref-terms-only": _replaced("pref", "terms 5\n"),
    **{
        f"{command}-variable-name-with-{what}": _renamed(command, "wear", name)
        for command in ("eval", "inspect")
        for what, name in SPLITTING_NAMES.items()
    },
    # a domain value and a label that would split a line of inspect
    **{
        f"{command}-domain-value-with-newline": _renamed(command, "low", "l\nw")
        for command in ("eval", "inspect")
    },
    **{
        f"{command}-kb-label-with-newline": _renamed(command, "low", "l\no", document="kb")
        for command in ("eval", "inspect")
    },
    # an attribute name that would split a line of inspect
    **{
        f"{command}-{document}-attribute-with-newline": _renamed(command, "km", "k\nm", document)
        for command in ("eval", "inspect")
        for document in ("query", "kb")
    },
    "kb-build-attribute-with-newline": _on_table(
        "kb", content=(DATA_DIR / "cars.csv").read_bytes().replace(b"km", b'"k\nm"', 1)
    ),
    # ... and in the first column, where a message would name it before any model is built
    **{
        f"kb-build-{flag[2:]}-attribute-with-newline": _on_table(
            "kb", flag, value,
            content=(DATA_DIR / "cars.csv").read_bytes().replace(b"price", b'"k\nm"', 1),
        )
        for flag, value in (("--clusters", "1"), ("--labels", "a,b,c,d"))
    },
    "eval-kb-beyond-float-attribute-with-newline": _eval_edited(
        _split_name_beyond_float, document="kb"
    ),
    "inspect-kb-beyond-float-attribute-with-newline": _inspect_edited_kb(_split_name_beyond_float),
    # a label no query could bind
    "kb-build-labels-empty": _kb_build("--labels", ""),
    "kb-build-labels-one-empty": _kb_build("--clusters", "4", "--labels", "a,b,,d"),
    # a float literal beyond every float, which Python's reader takes as inf
    "kb-centroid-float-beyond-float": _replaced(
        "kb", CARS_KB.read_text().replace("8.589506693254277", "1e400", 1)
    ),
    "kb-centroids-descending": _eval_edited(
        lambda doc: doc["attributes"][0]["centroids"].reverse(), document="kb"
    ),
    "kb-label-repeated": _eval_edited(
        lambda doc: doc["attributes"][0].update(labels=["low", "low", "high"]), document="kb"
    ),
    "kb-fuzzifier-1": _set_first_model("fuzzifier", 1.0),
    "query-edge-repeated": _eval_edited(
        lambda doc: doc["cpnet"]["edges"].append(doc["cpnet"]["edges"][0])
    ),
    "query-node-repeated": _eval_edited(
        lambda doc: doc["cpnet"]["nodes"].append(doc["cpnet"]["nodes"][0])
    ),
    "query-node-without-cpt": _eval_edited(lambda doc: doc["cpnet"]["cpt"].pop("stretch")),
    "query-domain-value-repeated": _eval_edited(
        lambda doc: doc["cpnet"]["nodes"][0]["domain"].append("low")
    ),
    # two values one float step apart: both centroids round onto 1.0
    "kb-build-clusters-collapse": _on_table(
        "kb", "--clusters", "2", content=b"a\n" + b"1\n" * 100 + b"1.0000000000000002\n" * 2
    ),
}

# what stderr must say, where exit 2 alone does not tell the cases apart
BAD_INPUT_MESSAGES = {
    "kb-attributes-not-a-list": "ConfigError: knowledge base: attributes must be a list",
    "kb-labels-not-strings": "ConfigError: knowledge base: attributes[0].labels[0] must be a string",
    "kb-labels-not-strings-inspect": "ConfigError: knowledge base: attributes[0].labels[0] must "
                                     "be a string",
    "kb-document-a-list": "ConfigError: not a knowledge-base document of version 1 or 2",
    "query-document-a-list": "ConfigError: not a compiled-query document of version 1",
    "inspect-json-number": "fuzzycp: not a knowledge-base or compiled-query document",
    "inspect-json-string": "fuzzycp: not a knowledge-base or compiled-query document",
    "query-edge-not-a-pair": "ConfigError: compiled query: cpnet.edges must be [parent, child] pairs",
    "query-domain-not-a-list": "ConfigError: compiled query: cpnet.nodes[0].domain must be a list",
    "query-terms-not-a-list": "ConfigError: compiled query: terms must be a list",
    "query-without-cpnet": "ConfigError: compiled query: cpnet must be an object",
    "query-without-terms": "ConfigError: compiled query: terms must be a list",
    "query-node-without-attribute": "ConfigError: compiled query: cpnet.nodes[0].attribute must be a string",
    "query-row-without-when": "ConfigError: compiled query: cpnet.cpt.cost[0].when must be an object",
    "kb-provenance-not-an-object": "ConfigError: knowledge base: provenance must be an object",
    "kb-attribute-without-labels": "ConfigError: knowledge base: attributes[0].labels must be a list",
    "kb-attribute-without-name": "ConfigError: knowledge base: attributes[0].name must be a string",
    "kb-attribute-without-centroids": "ConfigError: knowledge base: attributes[0].centroids must "
                                      "be a list",
    "kb-centroid-not-a-number": "ConfigError: knowledge base: attributes[0].centroids[0] must be "
                                "a number",
    "kb-fuzzifier-not-a-number": "ConfigError: knowledge base: attributes[0].fuzzifier must be a "
                                 "number",
    "kb-centroids-a-digit-string": "ConfigError: knowledge base: attributes[0].centroids must be "
                                   "a list",
    "kb-centroids-numeric-strings": "ConfigError: knowledge base: attributes[0].centroids[0] must "
                                    "be a number",
    "kb-fuzzifier-numeric-string": "ConfigError: knowledge base: attributes[0].fuzzifier must be "
                                   "a number",
    "kb-centroid-true": "ConfigError: knowledge base: attributes[0].centroids[0] must be a number",
    "kb-centroid-integer-beyond-float": "ConfigError: price: centroids and fuzzifier must be finite",
    "kb-format-version-true": "ConfigError: not a knowledge-base document of version 1 or 2",
    "query-format-version-float": "ConfigError: not a compiled-query document of version 1 or 2",
    "query-term-importance-true": "ConfigError: compiled query disagrees with its cpnet in: terms",
    "query-leaf-importance-true": "ConfigError: compiled query disagrees with its cpnet in: "
                                  "importance",
    "kb-attribute-listed-twice": "ConfigError: attribute 'price' is listed twice",
    "kb-seed-nan": "fuzzycp: malformed document: NaN is not a JSON value",
    "kb-seed-nan-inspect": "fuzzycp: malformed document: NaN is not a JSON value",
    "query-term-unread-key-infinity": "fuzzycp: malformed document: -Infinity is not a JSON "
                                      "value",
    "inspect-not-utf8": "fuzzycp: malformed document: 'utf-8' codec can't decode",
    "kb-not-utf8": "fuzzycp: malformed document: 'utf-8' codec can't decode",
    "query-not-utf8": "fuzzycp: malformed document: 'utf-8' codec can't decode",
    "pref-not-utf8": "replaced.json: query text is not UTF-8: 'utf-8' codec can't decode "
                     "byte 0xff",
    "pref-latin1-comment": "replaced.json: query text is not UTF-8: 'utf-8' codec can't "
                           "decode byte 0xe9",
    "kb-build-input-not-utf8": "ParseError: input is not UTF-8 text",
    "eval-data-not-utf8": "ParseError: input is not UTF-8 text",
    "kb-build-delimiter-empty": "ConfigError: delimiter must be one character",
    "kb-build-delimiter-two": "ConfigError: delimiter must be one character",
    "kb-build-delimiter-newline": "ConfigError: delimiter must be one character",
    "eval-delimiter-empty": "ConfigError: delimiter must be one character",
    "eval-delimiter-newline": "ConfigError: delimiter must be one character",
    "tol-nan": "ConfigError: tol must be positive",
    "max-iter-0": "ConfigError: max_iter must be at least 1",
    "kb-build-bare-cr-splits-a-row": "ShapeError: record 1: expected 2 cells, found 1",
    "eval-bare-cr-splits-a-row": "ShapeError: record 1: expected 2 cells, found 1",
    "kb-build-values-too-far-apart": "ParseError: attribute 'a': values -1e+308 and 1e+308 are "
                                     "too far apart",
    **{
        case: "ParseError: attribute 'a': the values are too large: a centroid overflows"
        for case in ("kb-build-weighted-sum-overflows", "kb-build-start-overflows")
    },
    **{
        case: "ParseError: attribute 'price', record 0: value 1e+308 is too far from every "
              "centroid"
        for case in BAD_INPUTS if case.endswith("value-too-far-from-every-centroid")
    },
    "eval-cell-over-csv-field-limit": "ParseError: line 2 of the table: field larger",
    "seed-negative": "ConfigError: seed must be a non-negative integer, got -1",
    "tol-inf": "ConfigError: tol must be positive and finite",
    "clusters-negative": "ConfigError: price: cluster count must be at least 2, got -3",
    "fuzzifier-huge": "ConfigError: fuzzifier 1e+308 is too large",
    **{
        f"{document}-{case}": f"fuzzycp: malformed document: {message}"
        for document in ("kb", "query", "inspect", "compile")
        for case, message in {
            "integer-over-digit-limit": "Exceeds the limit (4300 digits)",
            "nesting-over-recursion-limit": "maximum recursion depth exceeded",
            "repeated-key": "key 'name' appears twice in one object",
        }.items()
    },
    **{
        case: "fuzzycp: malformed document: a string holds a lone surrogate"
        for case in BAD_INPUTS if case.endswith("lone-surrogate")
    },
    "pref-flat-utility": "DegenerateUtilityError: utility scale is flat; cannot normalize",
    **{
        case: "DegenerateQueryError: query declares no variables"
        for case in ("pref-empty", "pref-terms-only")
    },
    **{
        f"{command}-variable-name-with-{what}": f"ConfigError: variable {name!r}: not a letter"
        for command in ("eval", "inspect")
        for what, name in SPLITTING_NAMES.items()
    },
    **{
        f"{command}-domain-value-with-newline": "ConfigError: variable 'cost', value 'l\\nw': "
                                                "not a letter or _ then letters, digits or _"
        for command in ("eval", "inspect")
    },
    **{
        f"{command}-kb-label-with-newline": "ConfigError: price: label 'l\\no' holds a tab or "
                                            "line break"
        for command in ("eval", "inspect")
    },
    **{
        case: "ConfigError: attribute 'k\\nm' holds a tab or line break"
        for case in BAD_INPUTS if case.endswith("attribute-with-newline")
    },
    "kb-build-labels-empty": "ConfigError: price: 1 labels configured for 3 clusters",
    "kb-build-labels-one-empty": "ConfigError: price: a label is empty",
    "kb-centroid-float-beyond-float": "ConfigError: price: centroids must be finite",
    "kb-centroids-descending": "DegenerateDataError: price: centroids are not strictly ascending",
    "kb-label-repeated": "ConfigError: price: duplicate labels",
    "kb-fuzzifier-1": "ConfigError: price: fuzzifier must be finite and > 1",
    "query-edge-repeated": "ValidationError: invalid preference net: edge at cost->wear: "
                           "duplicate edge",
    "query-node-repeated": "ValidationError: invalid preference net: node at cost: declared "
                           "more than once",
    "query-node-without-cpt": "ValidationError: invalid preference net: cpt at stretch: no "
                              "preference table",
    "query-domain-value-repeated": "ConfigError: variable 'cost' repeats a domain value",
    "kb-build-clusters-collapse": "DegenerateDataError: attribute 'a': clusters collapsed onto "
                                  "the same centroid",
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(tmp_path, built_kb, compiled_query, case):
    argv = BAD_INPUTS[case](tmp_path, built_kb, compiled_query)
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzycp", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("fuzzycp:")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert BAD_INPUT_MESSAGES.get(case, "") in proc.stderr
    assert proc.stdout == ""


def test_kb_build_past_the_squared_float_range_prints_no_warning(tmp_path):
    # the squared distances of FCM's objective overflow; the centroids do not
    table = tmp_path / "wide.csv"
    table.write_bytes(b"a\n1e160\n-1e160\n5\n1\n2\n3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzycp", "kb", "build", "--input", str(table),
         "--out", str(tmp_path / "kb.json")],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("a: centroids [") and proc.stderr.count("\n") == 1


# --- numeric flags -----------------------------------------------------------

# the largest magnitude each flag is tried at; no cluster count above 10^6
HUGE = {
    "--clusters": "1000000",
    "--fuzzifier": "1e308",
    "--tol": "1e308",
    "--max-iter": str(10**30),
    "--seed": str(10**30),
    "--terms": str(10**30),
    "--top": str(10**30),
}


def _with_flag(flag, value, tmp_path, kb, query):
    """The stage that takes ``flag``, with only that flag off its default;
    ``flag=value`` keeps argparse from reading ``-inf`` as an option."""
    option = f"{flag}={value}"
    if flag == "--terms":
        return ["query", "compile", "--kb", str(kb), "--query", str(DATA_DIR / "cars.pref"),
                "--out", str(tmp_path / "out.json"), option]
    if flag == "--top":
        return ["eval", "--kb", str(kb), "--query", str(query),
                "--data", str(DATA_DIR / "cars.csv"), option]
    return _kb_build(option)(tmp_path, kb, query)


@pytest.mark.parametrize("flag", list(HUGE))
def test_no_numeric_flag_value_ends_in_a_traceback(tmp_path, built_kb, compiled_query, flag):
    for value in ("-1", "-" + HUGE[flag], "0", "nan", "inf", "-inf", HUGE[flag]):
        argv = _with_flag(flag, value, tmp_path, built_kb, compiled_query)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        assert code in (0, 1, 2), (value, code, stderr)
        assert "Traceback" not in stderr and not caught, (value, stderr)
        if code == 2:
            assert stderr.startswith("fuzzycp:") and stderr.count("\n") == 1, (value, stderr)


@pytest.mark.parametrize("flag", ["--clusters", "--max-iter", "--seed", "--terms", "--top"])
def test_non_integer_flag_value_is_an_invalid_int(tmp_path, built_kb, compiled_query, capsys,
                                                  flag):
    assert main(_with_flag(flag, "abc", tmp_path, built_kb, compiled_query)) == 1
    assert f"argument {flag}: invalid int value: 'abc'\n" in capsys.readouterr().err


# --- edited documents --------------------------------------------------------

# values an edit may put in place of any entry: every JSON type, empty and not
JUNK = (None, True, 0, -1, 2.5, "", "x", [], [1], ["x"], {}, {"x": 1})


def _entries(doc, path=()):
    """Path of every entry below ``doc``, as keys and list indexes."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _entries(value, path + (key,))


@st.composite
def edited(draw, doc):
    """``doc`` after one to three edits: an entry dropped, replaced by a
    value of another type, or a list lengthened by a copy of an element."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_entries(doc))))
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        key = path[-1]
        edit = draw(st.sampled_from(("drop", "replace", "lengthen")))
        if edit == "drop":
            del owner[key]
        elif edit == "lengthen" and isinstance(owner[key], list) and owner[key]:
            owner[key].append(copy.deepcopy(draw(st.sampled_from(owner[key]))))
        else:
            owner[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Paths of a built knowledge base and a query compiled against it."""
    directory = tmp_path_factory.mktemp("documents")
    paths = {"kb": directory / "kb.json", "query": directory / "q.json"}
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(KB_ARGS + ["--out", str(paths["kb"])]) == 0
        assert main([
            "query", "compile", "--kb", str(paths["kb"]),
            "--query", str(DATA_DIR / "cars.pref"), "--out", str(paths["query"]),
        ]) == 0
    return paths


@pytest.mark.parametrize("document", ["kb", "query"])
def test_no_document_edit_ends_in_a_traceback(documents, tmp_path_factory, document):
    original = json.loads(documents[document].read_text())
    path = tmp_path_factory.mktemp("edited") / "edited.json"
    paths = {**documents, document: path}
    eval_argv = [
        "eval", "--kb", str(paths["kb"]), "--query", str(paths["query"]),
        "--data", str(DATA_DIR / "cars.csv"),
    ]

    @settings(max_examples=150, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edited(original))
    def check(doc):
        path.write_text(json.dumps(doc))
        for argv in (eval_argv, ["inspect", str(path)]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 2, 3), (argv[0], code, err.getvalue())

    check()


# --- mutated inputs ----------------------------------------------------------

# what an edit may put in place of a byte range: the delimiters and line ends
# of both input languages, quotes, a byte-order mark, bytes that are not
# UTF-8, and the starts of numbers, words and keywords
NOISE = (b"", b",", b";", b"\n", b"\r", b"\r\n", b'"', b" ", b"\t", b"\xef\xbb\xbf",
         b"\xff", b"\xc3", b"-", b".", b"e", b"0", b"1e999", b"nan", b"inf", b"x", b"#",
         b"{", b"}", b":", b"=", b">", b"var", b"attr", b"depends", b"when", b"prefer",
         b"terms", b"9" * 20)


@st.composite
def mutated(draw, data: bytes):
    """``data`` after one to four edits, each replacing a range of up to
    eight bytes by noise, by random bytes or by two copies of itself."""
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 8)))
        piece = draw(st.one_of(st.sampled_from(NOISE), st.binary(max_size=4),
                               st.just(data[start:end] * 2)))
        data = data[:start] + piece + data[end:]
    return data


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2, 3), (argv[0], code, err.getvalue())
    return code


def test_no_table_mutation_ends_in_a_traceback(documents, tmp_path_factory):
    directory = tmp_path_factory.mktemp("mutated")
    table, kb = directory / "table.csv", directory / "kb.json"
    original = (DATA_DIR / "cars.csv").read_bytes()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(mutated(original), st.binary(max_size=64)))
    def check(data):
        table.write_bytes(data)
        built = _run(["kb", "build", "--input", str(table), "--seed", "7", "--out", str(kb)])
        evaluated = _run(["eval", "--kb", str(documents["kb"]),
                          "--query", str(documents["query"]), "--data", str(table)])
        if 0 in (built, evaluated):
            dataset = ingest_tabular(data)
            attributes, records = reference_ingest(data.decode("utf-8-sig"))
            assert dataset.attributes == attributes
            assert np.array_equal(dataset.records, records, equal_nan=True)

    check()


def test_no_query_text_mutation_ends_in_a_traceback(documents, tmp_path_factory):
    directory = tmp_path_factory.mktemp("mutated")
    text, out = directory / "query.pref", directory / "query.json"
    original = (DATA_DIR / "cars.pref").read_bytes()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated(original))
    def check(data):
        text.write_bytes(data)
        compiled = _run(["query", "compile", "--kb", str(documents["kb"]),
                         "--query", str(text), "--out", str(out)])
        if compiled == 0:
            assert _run(["inspect", str(out)]) == 0

    check()


# --- the cyclic collector ----------------------------------------------------

# Runs the stage in argv[2:] through entry_point, as ``python -m fuzzycp``
# and the ``fuzzycp`` script do, and writes to the file argv[1] how many
# collections started once entry_point was entered.
ENTRY_POINT_CHILD = """
import gc, sys
from fuzzycp.cli import entry_point

starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info))
count_path = sys.argv.pop(1)
try:
    entry_point()
finally:
    with open(count_path, "w") as f:
        f.write(str(len(starts)))
"""

# stage -> its arguments, given the directory it writes to and the
# ``documents`` paths
STAGES = {
    "kb build": lambda out, docs: KB_ARGS + ["--out", str(out / "kb.json")],
    "query compile": lambda out, docs: [
        "query", "compile", "--kb", str(docs["kb"]), "--query", str(DATA_DIR / "cars.pref"),
        "--out", str(out / "q.json"),
    ],
    "eval": lambda out, docs: [
        "eval", "--kb", str(docs["kb"]), "--query", str(docs["query"]),
        "--data", str(DATA_DIR / "cars.csv"),
    ],
    "eval absent data": lambda out, docs: [
        "eval", "--kb", str(docs["kb"]), "--query", str(docs["query"]),
        "--data", str(docs["kb"].parent / "absent.csv"),
    ],
}


@pytest.mark.parametrize("stage", list(STAGES))
def test_entry_point_runs_a_stage_without_collections(documents, tmp_path, capsys, stage):
    in_process, child = tmp_path / "in_process", tmp_path / "child"
    in_process.mkdir()
    child.mkdir()
    code = main(STAGES[stage](in_process, documents))
    expected = capsys.readouterr()
    count = tmp_path / "collections"
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_POINT_CHILD, str(count), *STAGES[stage](child, documents)],
        capture_output=True, text=True, env=child_env(),
    )
    assert count.read_text() == "0"
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)
    written = sorted(path.name for path in in_process.iterdir())
    assert sorted(path.name for path in child.iterdir()) == written
    for name in written:
        assert (child / name).read_bytes() == (in_process / name).read_bytes(), name


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(documents, tmp_path, capsys, enabled):
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        for stage in STAGES:
            main(STAGES[stage](tmp_path, documents))
            assert gc.isenabled() is enabled, stage
            assert gc.get_freeze_count() == frozen, stage
    finally:
        (gc.enable if was_enabled else gc.disable)()


# Runs each stage in the JSON list argv[1] in process with the collector off
# and prints, as JSON, how many unreachable objects a collection finds after
# each.
GARBAGE_CHILD = """
import contextlib, gc, json, os, sys
from fuzzycp.cli import main

gc.disable()
found = []
for argv in json.loads(sys.argv[1]):
    gc.collect()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \\
            contextlib.redirect_stderr(sink):
        assert main(argv) == 0, argv
    found.append(gc.collect())
print(json.dumps(found))
"""


def test_no_stage_leaves_cyclic_garbage_that_grows_with_the_table(tmp_path):
    # what entry_point relies on to run a stage without the collector
    header, rows = (DATA_DIR / "cars.csv").read_text().split("\n", 1)
    found = []
    for copies in (1, 50):
        directory = tmp_path / str(copies)
        directory.mkdir()
        table, kb, query = directory / "cars.csv", directory / "kb.json", directory / "q.json"
        table.write_text(header + "\n" + rows * copies)
        evaluate = ["eval", "--kb", str(kb), "--query", str(query), "--data", str(table)]
        stages = [
            [*KB_ARGS[:3], str(table), *KB_ARGS[4:], "--out", str(kb)],
            ["query", "compile", "--kb", str(kb), "--query", str(DATA_DIR / "cars.pref"),
             "--out", str(query)],
            evaluate,
            evaluate + ["--format", "json"],
            ["inspect", str(kb)],
            ["inspect", str(query)],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", GARBAGE_CHILD, json.dumps(stages)],
            capture_output=True, text=True, env=child_env(), check=True,
        )
        found.append(json.loads(proc.stdout))
    assert found[0] == found[1]


# --- inspect -----------------------------------------------------------------


def test_inspect_kb(built_kb, capsys):
    assert main(["inspect", str(built_kb)]) == 0
    out = capsys.readouterr().out
    assert "records: 20" in out
    assert "attribute price" in out
    assert "attribute km" in out
    iterations = json.loads(built_kb.read_text())["provenance"]["iterations"]
    assert [line for line in out.splitlines() if "converged" in line] == [
        f"  iterations: {iterations[name]}, converged: yes" for name in ("price", "km")
    ]


def test_inspect_kb_prints_unknown_for_what_the_build_did_not_record(tmp_path, capsys):
    def fits(path):
        assert main(["inspect", str(path)]) == 0
        return [line for line in capsys.readouterr().out.splitlines() if "converged" in line]

    # a version 1 document records iterations, not convergence
    assert fits(V1_KB) == ["  iterations: 82, converged: unknown",
                           "  iterations: 25, converged: unknown"]
    doc = json.loads(CARS_KB.read_text())
    edited = tmp_path / "kb.json"
    for provenance in ({}, {"iterations": [82, 25], "converged": {"price": 1, "km": [True]}},
                       {"iterations": {"price": 8.0, "km": True}, "converged": "yes"}):
        edited.write_text(json.dumps({**doc, "provenance": provenance}))
        assert fits(edited) == ["  iterations: unknown, converged: unknown"] * 2


def test_inspect_query_reports_dominance(compiled_query, capsys):
    assert main(["inspect", str(compiled_query)]) == 0
    out = capsys.readouterr().out
    assert "dominance: OK" in out
    assert "importance:" in out


def test_inspect_query_output_is_golden(tmp_path, capsys):
    # the steps, spans, utility rows and terms derived from the cars net
    query = _compile(CARS_KB, tmp_path / "q.json")
    capsys.readouterr()
    assert main(["inspect", str(query)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "cars_inspect_query.txt").read_bytes()


def test_benchmark_tracer_runs_a_stage(tmp_path, compiled_query):
    # the benchmark's tracer wraps fuzzycp functions by name; a renamed or
    # moved one fails here, not only in the benchmark's own tests
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(BENCH_TRACER), "--spans", str(spans), "--trace-id", "1",
         "--", "inspect", str(compiled_query)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
    assert {"cli.main", "cpnet.validate_cpnet", "ucp.assign_utilities"} <= names


def test_inspect_truncated_document(tmp_path, compiled_query, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text(compiled_query.read_text()[:100])
    assert main(["inspect", str(broken)]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_documented_flag_set(tmp_path, capsys):
    # global --clusters/--labels apply to every attribute
    data = tmp_path / "d.csv"
    data.write_text("price\n1\n2\n9\n10\n")
    out = tmp_path / "kb.json"
    code = main([
        "kb", "build", "--input", str(data), "--clusters", "2",
        "--labels", "low,high", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["attributes"][0]["labels"] == ["low", "high"]
