"""The package and the document-only CLI stages load without numpy, only
``kb build`` loads numpy.random, only ``query compile`` loads the query
parser, every public name resolves to the object its home module defines,
only ``kbdoc`` spells out the document format or imports ``json``, and
every module is Python 3.10, the oldest version ``pyproject.toml`` allows."""

import ast
import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzycp
from fuzzycp.cli import main
from helpers import child_env
from test_cli import DATA_DIR, KB_ARGS

# the names the package exported when it imported every module eagerly
PUBLIC = {
    "AssignmentError", "AttributeConfig", "BindingError", "CPNet", "CapacityError",
    "ClusterModel", "ConfigError", "DataProjection", "Dataset", "DegenerateDataError",
    "DegenerateQueryError", "DegenerateUtilityError", "EmptyDatasetError", "Evaluation",
    "FcmResult", "FuzzycpError", "KBConfig", "KnowledgeBase", "ParseError",
    "PreferenceVariable", "QuerySpec", "Ranking", "SemanticError", "ShapeError", "Term",
    "UCPNet", "ValidationError", "Violation", "WeightedQuery", "aggregate_term_score",
    "assign_utilities", "build_knowledge_base", "check_dominance", "compile_query",
    "enumerate_outcomes", "evaluate", "format_query", "fuzzy_c_means", "ingest_tabular",
    "load_query", "node_importance", "outcome_utility", "parse_query", "project",
    "query_from_document", "query_to_document", "rank", "rewrite_query", "save_query",
    "spans", "term_importance", "topological_order", "validate_cpnet",
}


def _loads(code: str, module: str = "numpy") -> bool:
    """Whether a fresh interpreter has ``module`` loaded after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint({module!r} in sys.modules)"],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    return proc.stdout.splitlines()[-1] == "True"


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Paths of a built knowledge base and a query compiled against it."""
    directory = tmp_path_factory.mktemp("documents")
    kb, query = directory / "kb.json", directory / "q.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(KB_ARGS + ["--out", str(kb)]) == 0
        assert main(["query", "compile", "--kb", str(kb),
                     "--query", str(DATA_DIR / "cars.pref"), "--out", str(query)]) == 0
    return kb, query


def _stage_code(stage, kb, query, tmp_path) -> str:
    """Code that runs ``stage`` in process against the built documents."""
    argv = {
        "import": None,
        "kb build": KB_ARGS + ["--out", str(tmp_path / "kb.json")],
        "query compile": ["query", "compile", "--kb", str(kb),
                          "--query", str(DATA_DIR / "cars.pref"),
                          "--out", str(tmp_path / "out.json")],
        "eval": ["eval", "--kb", str(kb), "--query", str(query),
                 "--data", str(DATA_DIR / "cars.csv")],
        "inspect kb": ["inspect", str(kb)],
        "inspect query": ["inspect", str(query)],
    }[stage]
    if argv is None:
        return "import fuzzycp"
    return f"from fuzzycp.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize("stage", ["import", "query compile", "inspect kb", "inspect query"])
def test_document_stages_leave_numpy_unloaded(tmp_path, documents, stage):
    assert not _loads(_stage_code(stage, *documents, tmp_path))


@pytest.mark.parametrize(
    "stage", ["import", "kb build", "query compile", "eval", "inspect kb", "inspect query"]
)
def test_no_stage_loads_dataclasses(tmp_path, documents, stage):
    # dataclasses imports inspect, dis, ast and tokenize: start-up that the
    # plain record classes do without
    assert not _loads(_stage_code(stage, *documents, tmp_path), "dataclasses")


@pytest.mark.parametrize(
    "stage", ["import", "kb build", "query compile", "eval", "inspect kb", "inspect query"]
)
def test_only_query_compile_loads_the_parser(tmp_path, documents, stage):
    loaded = _loads(_stage_code(stage, *documents, tmp_path), "fuzzycp.dsl")
    assert loaded == (stage == "query compile")


def test_table_stages_load_numpy(tmp_path):
    argv = KB_ARGS + ["--out", str(tmp_path / "kb.json")]
    assert _loads(f"from fuzzycp.cli import main\nassert main({argv!r}) == 0")


def test_kb_build_leaves_numpy_ma_unloaded(tmp_path):
    # np.quantile and np.unique without counts import numpy.ma, start-up
    # that fuzzy c-means does not need
    argv = KB_ARGS + ["--out", str(tmp_path / "kb.json")]
    code = f"from fuzzycp.cli import main\nassert main({argv!r}) == 0"
    assert _loads(code, "numpy.random")
    assert not _loads(code, "numpy.ma")


@pytest.mark.parametrize(
    "stage", ["import", "query compile", "eval", "inspect kb", "inspect query"]
)
def test_only_kb_build_loads_numpy_random(tmp_path, documents, stage):
    # numpy.random imports secrets, hmac and _hashlib; only fuzzy c-means'
    # start noise draws from it
    assert not _loads(_stage_code(stage, *documents, tmp_path), "numpy.random")


def test_every_public_name_resolves_to_its_home_object():
    assert set(fuzzycp.__all__) == PUBLIC
    listed = dir(fuzzycp)
    for name in fuzzycp.__all__:
        value = getattr(fuzzycp, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert name in listed
    namespace = {}
    exec("from fuzzycp import *", namespace)
    assert PUBLIC <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        fuzzycp.nonexistent


def test_only_kbdoc_writes_indented_json():
    # the document format has one writer, kbdoc.document_text: a json.dump
    # or json.dumps with an indent anywhere else would be a second copy
    writers = []
    for path in sorted(Path(fuzzycp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dump", "dumps")
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                    and any(k.arg == "indent" for k in node.keywords)):
                writers.append(f"{path.name}:{node.lineno}")
    assert [writer.split(":")[0] for writer in writers] == ["kbdoc.py"], writers


def test_only_kbdoc_imports_json():
    # kbdoc reads, writes and compares every JSON value: an import of json
    # anywhere else would be a second home for one of them
    importers = []
    for path in sorted(Path(fuzzycp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "json" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert [importer.split(":")[0] for importer in importers] == ["kbdoc.py"], importers


def test_only_write_stdout_writes_to_stdout():
    # cli.write_stdout alone decides how stdout is encoded, UTF-8 in every
    # locale: no other module imports sys, and in cli every print goes to
    # stderr and nothing else writes to sys.stdout or its buffer
    importers, writers = [], []
    for path in sorted(Path(fuzzycp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for function in ast.walk(tree)
                   if isinstance(function, ast.FunctionDef) and function.name == "write_stdout"
                   for node in ast.walk(function)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import) and "sys" in [alias.name for alias in node.names]:
                importers.append(where)
            elif id(node) in allowed:
                continue
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "print":
                if not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                           for k in node.keywords):
                    writers.append(where)
            elif isinstance(node, ast.Attribute) and ast.unparse(node).startswith(
                    ("sys.stdout.write", "sys.stdout.buffer", "sys.__stdout__")):
                writers.append(where)
    assert [importer.split(":")[0] for importer in importers] == ["cli.py"], importers
    assert writers == []


def test_every_module_parses_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10: no syntax of a later
    # version, such as except*, may appear
    for path in sorted(Path(fuzzycp.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=(3, 10))
