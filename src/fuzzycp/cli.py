"""Command-line front door.

Four subcommands wire the pipeline together, each stage persisted as a
JSON document so it can be inspected and rerun independently:

    fuzzycp kb build      --input data.csv --out kb.json ...
    fuzzycp query compile --kb kb.json --query q.pref --out q.json
    fuzzycp eval          --kb kb.json --query q.json --data data.csv
    fuzzycp inspect       kb.json | q.json

Exit codes: 0 success, 1 usage error, 2 data error (parse, semantic,
validation, binding), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import compress

import numpy as np

from . import kb as kbmod
from . import query as qmod
from .cpnet import node_importance
from .errors import ConfigError, FuzzycpError
from .scoring import rank
from .ucp import check_dominance

OK, USAGE_ERROR, DATA_ERROR, IO_ERROR = 0, 1, 2, 3


class _ArgumentParser(argparse.ArgumentParser):
    """argparse terminates with status 2 on bad usage; we promise 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="fuzzycp", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    kb = top.add_parser("kb", help="knowledge-base stages")
    kb_sub = kb.add_subparsers(dest="kb_command", required=True, parser_class=_ArgumentParser)
    build = kb_sub.add_parser("build", help="cluster a dataset into a fuzzy knowledge base")
    build.add_argument("--input", required=True, help="delimiter-separated data file")
    build.add_argument("--out", required=True, help="where to write the knowledge base")
    build.add_argument("--clusters", type=int, default=kbmod.DEFAULT_CLUSTERS)
    build.add_argument("--labels", help="comma-separated labels, one per cluster")
    build.add_argument("--fuzzifier", type=float, default=kbmod.DEFAULT_FUZZIFIER)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--tol", type=float, default=kbmod.DEFAULT_TOL)
    build.add_argument("--max-iter", type=int, default=kbmod.DEFAULT_MAX_ITER)
    build.add_argument("--delimiter", default=",")
    build.add_argument("--no-header", action="store_true")
    build.add_argument(
        "--attr",
        action="append",
        default=[],
        metavar="NAME:COUNT[:LABELS]",
        help="per-attribute override, e.g. price:3:low,mid,high",
    )
    build.set_defaults(handler=cmd_kb_build)

    query = top.add_parser("query", help="query stages")
    query_sub = query.add_subparsers(
        dest="query_command", required=True, parser_class=_ArgumentParser
    )
    compile_ = query_sub.add_parser("compile", help="compile a preference query")
    compile_.add_argument("--kb", required=True)
    compile_.add_argument("--query", required=True, help="query text file")
    compile_.add_argument("--out", required=True)
    compile_.add_argument("--terms", type=int, default=None)
    compile_.set_defaults(handler=cmd_query_compile)

    run = top.add_parser("eval", help="rank records against a compiled query")
    run.add_argument("--kb", required=True)
    run.add_argument("--query", required=True, help="compiled query document")
    run.add_argument("--data", required=True)
    run.add_argument("--top", type=_positive_int, default=None)
    run.add_argument("--format", choices=("tsv", "json"), default="tsv")
    run.add_argument("--delimiter", default=",")
    run.add_argument("--no-header", action="store_true")
    run.set_defaults(handler=cmd_eval)

    inspect = top.add_parser("inspect", help="dump a document in readable form")
    inspect.add_argument("path")
    inspect.set_defaults(handler=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except FuzzycpError as exc:
        print(f"fuzzycp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"fuzzycp: malformed document: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"fuzzycp: {exc}", file=sys.stderr)
        return IO_ERROR


def entry_point():
    raise SystemExit(main())


def _parse_attr_overrides(specs) -> dict[str, kbmod.AttributeConfig]:
    overrides = {}
    for spec in specs:
        parts = spec.split(":", 2)
        name = parts[0]
        try:
            clusters = int(parts[1]) if len(parts) > 1 and parts[1] else None
        except ValueError:
            raise ConfigError(f"--attr {spec!r}: cluster count is not an integer") from None
        labels = tuple(parts[2].split(",")) if len(parts) > 2 else None
        overrides[name] = kbmod.AttributeConfig(clusters=clusters, labels=labels)
    return overrides


def cmd_kb_build(args) -> int:
    with open(args.input, "rb") as f:
        dataset = kbmod.ingest_tabular(
            f, has_header=not args.no_header, delimiter=args.delimiter
        )
    config = kbmod.KBConfig(
        clusters=args.clusters,
        labels=tuple(args.labels.split(",")) if args.labels else None,
        fuzzifier=args.fuzzifier,
        tol=args.tol,
        max_iter=args.max_iter,
        seed=args.seed,
        per_attribute=_parse_attr_overrides(args.attr),
    )
    kb = kbmod.build_knowledge_base(dataset, config, source=args.input)
    kb.save(args.out)
    iterations = kb.provenance.get("iterations", {})
    for name, model in kb.models.items():
        centroids = ", ".join(f"{c:.6f}" for c in model.centroids)
        print(
            f"{name}: centroids [{centroids}] after {iterations.get(name, '?')} iterations",
            file=sys.stderr,
        )
    for name in kb.unconverged:
        print(f"fuzzycp: warning: {name}: fuzzy c-means did not converge within "
              f"--max-iter {args.max_iter}", file=sys.stderr)
    return OK


def cmd_query_compile(args) -> int:
    kb = kbmod.KnowledgeBase.load(args.kb)
    with open(args.query, encoding="utf-8") as f:
        text = f.read()
    compiled = qmod.compile_query(text, kb, term_count=args.terms)
    qmod.save_query(compiled, args.out)
    print(
        f"compiled {len(compiled.terms)} terms over "
        f"{len(compiled.net.nodes)} variables",
        file=sys.stderr,
    )
    return OK


def cmd_eval(args) -> int:
    kb = kbmod.KnowledgeBase.load(args.kb)
    compiled = qmod.load_query(args.query)
    with open(args.data, "rb") as f:
        dataset = kbmod.ingest_tabular(
            f, has_header=not args.no_header, delimiter=args.delimiter
        )
    ranking = rank(kb, compiled, dataset, top_n=args.top)
    if args.format == "tsv":
        _print_tsv(ranking)
    else:
        _print_json(ranking)
    return OK


# row k holds the digits of "%03d" % k
_DIGIT_GROUPS = np.array([list(b"%03d" % k) for k in range(1000)], dtype=np.uint8)


def _placed(groups: np.ndarray, at: int) -> np.ndarray:
    """Each row of ``groups`` at byte ``at`` of an 8-byte cell, as the
    little-endian uint64 the cell's bytes read as."""
    cells = np.zeros((len(groups), 8), dtype=np.uint8)
    cells[:, at : at + groups.shape[1]] = groups
    return cells.view("<u8").ravel()


# a "%.6f" cell "w.hhhlll" is _UNITS[w] | _THOUSANDTHS[hhh] | _MILLIONTHS[lll]
_UNITS = _placed(np.array([list(b"0."), list(b"1.")], dtype=np.uint8), 0)
_THOUSANDTHS = _placed(_DIGIT_GROUPS, 2)
_MILLIONTHS = _placed(_DIGIT_GROUPS, 5)
# fills the unused bytes of the TSV matrix: no UTF-8 text holds it, while a
# variable name read from a document may hold a NUL
_PAD = 0xFF


def _print_tsv(ranking) -> None:
    """Write the ranking as TSV, one line per row of a uint8 matrix.

    Every cell has a fixed width, its unused bytes set to ``_PAD``; the
    body is the matrix without them.  The bytes equal those of the
    ``%d``/``%.6f``/``%s`` line format.
    """
    n, term_count = ranking.term_scores.shape
    header = ["record_index", "eval"] + [f"s_{k + 1}" for k in range(term_count)] + ["flags"]
    scores = _fixed6(np.column_stack([ranking.score, ranking.term_scores]))
    tabs = np.full((n, term_count + 1, 1), ord("\t"), dtype=np.uint8)
    flagged = np.flatnonzero(ranking.missing.any(axis=1))
    names = _padded([
        ";".join(f"missing:{name}" for name in compress(ranking.variables, row))
        .encode("utf-8", "surrogatepass")
        for row in ranking.missing[flagged].tolist()
    ], width=1)
    flags = np.full((n, names.shape[1]), _PAD, dtype=np.uint8)
    flags[:, 0] = ord("-")
    flags[flagged] = names
    cells = np.concatenate([tabs, scores], axis=2)
    matrix = np.concatenate([
        _decimal(ranking.record_index),
        cells.reshape(n, cells.shape[1] * cells.shape[2]),
        tabs[:, 0],
        flags,
        np.full((n, 1), ord("\n"), dtype=np.uint8),
    ], axis=1)
    sys.stdout.write("\t".join(header) + "\n")
    sys.stdout.write(matrix[matrix != _PAD].tobytes().decode("utf-8", "surrogatepass"))


def _decimal(values: np.ndarray) -> np.ndarray:
    """``b"%d" % v`` for every non-negative v, as rows padded in front."""
    groups = -(-len(str(values.max(initial=0))) // 3)
    digits = np.empty((len(values), groups, 3), dtype=np.uint8)
    rest = values.astype(np.int64)
    for g in reversed(range(groups)):
        rest, group = np.divmod(rest, 1000)
        digits[:, g] = _DIGIT_GROUPS.take(group, axis=0)
    digits = digits.reshape(len(values), 3 * groups)
    leading = np.logical_and.accumulate(digits == ord("0"), axis=1)
    leading[:, -1] = False
    digits[leading] = _PAD
    return digits


def _fixed6(x: np.ndarray) -> np.ndarray:
    """``b"%.6f" % v`` for every v of ``x``, as byte rows padded behind:
    shape ``x.shape + (width,)``.

    k = rint(v·10^6) goes through the digit table as ``0.dddddd`` or
    ``1.000000``.  ``%`` itself formats the cells ``_printf_cells`` picks.
    """
    with np.errstate(invalid="ignore"):
        scaled = x * 1e6
        printf = _printf_cells(x, scaled)
    scaled[printf] = 0.0
    units, fraction = np.divmod(np.rint(scaled).astype(np.int32), 10**6)
    thousandths, millionths = np.divmod(fraction, 1000)
    words = _UNITS.take(units) | _THOUSANDTHS.take(thousandths) | _MILLIONTHS.take(millionths)
    cells = words.view(np.uint8).reshape(x.shape + (8,))
    if printf.any():
        texts = _padded([b"%.6f" % v for v in x[printf].tolist()], width=8)
        cells = np.pad(cells, [(0, 0)] * x.ndim + [(0, texts.shape[1] - 8)], constant_values=_PAD)
        cells[printf] = texts
    return cells


def _printf_cells(x: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """Where rint(x·10^6) may differ from ``%.6f``, which rounds the exact
    binary value: x·10^6 within 1e-6 of a half (exact ties such as 1/128
    included), x above 1 or NaN, and a set sign bit (-0.0 included)."""
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6
    return near_half | ~(x <= 1.0) | np.signbit(x)


def _padded(texts: list[bytes], width: int) -> np.ndarray:
    """The byte strings as rows of one uint8 matrix, padded behind to the
    longest of them or to ``width`` bytes."""
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    rows = np.full((len(texts), lengths.max(initial=width)), _PAD, dtype=np.uint8)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(texts), np.uint8)
    return rows


def _print_json(ranking) -> None:
    rows = zip(ranking.record_index.tolist(), ranking.score.tolist(),
               ranking.term_scores.tolist(), ranking.clipped.tolist(),
               ranking.missing.tolist())
    results = [
        {"record_index": index, "position": position, "eval": score,
         "term_scores": term_scores, "clipped": clipped,
         "missing": list(compress(ranking.variables, missing))}
        for position, (index, score, term_scores, clipped, missing) in enumerate(rows, 1)
    ]
    doc = {"format_version": 1, "term_count": ranking.term_scores.shape[1], "results": results}
    print(json.dumps(doc, ensure_ascii=False, indent=2))


def cmd_inspect(args) -> int:
    with open(args.path, encoding="utf-8") as f:
        doc = json.load(f)
    keys = doc if isinstance(doc, dict) else {}
    if "attributes" in keys:
        _inspect_kb(doc)
    elif "terms" in keys:
        _inspect_query(doc)
    else:
        print("fuzzycp: not a knowledge-base or compiled-query document", file=sys.stderr)
        return DATA_ERROR
    return OK


def _inspect_kb(doc) -> None:
    kb = kbmod.KnowledgeBase.from_document(doc)
    prov = kb.provenance
    print(f"knowledge base (source: {prov.get('source')}, seed: {prov.get('seed')})")
    print(f"records: {prov.get('records', '?')}")
    for name, model in kb.models.items():
        print(f"attribute {name}")
        print(f"  labels:    {', '.join(model.labels)}")
        print(f"  centroids: {', '.join(f'{c:.6f}' for c in model.centroids)}")
        print(f"  fuzzifier: {model.fuzzifier}")


def _inspect_query(doc) -> None:
    compiled = qmod.query_from_document(doc)
    net, ucp = compiled.net, compiled.ucp
    print(f"compiled query over {len(net.nodes)} variables")
    for node in net.nodes:
        print(f"variable {node.name} (attr {compiled.bindings[node.name]}): "
              f"domain {', '.join(node.domain)}")
    if net.edges:
        print("edges: " + ", ".join(f"{p} -> {c}" for p, c in net.edges))
    else:
        print("edges: none")
    print("importance: " + ", ".join(f"{n}={g}" for n, g in node_importance(net).items()))
    for node in net.nodes:
        step = ucp.steps[node.name]
        minspan, maxspan = ucp.spans[node.name]
        print(f"utilities for {node.name} (step {step}, minspan {minspan}, "
              f"maxspan {maxspan})")
        parents = net.parent_names(node.name)
        for key, row in ucp.tables[node.name].items():
            context = ", ".join(f"{p}={v}" for p, v in zip(parents, key)) or "always"
            cells = ", ".join(f"{value}={utility}" for value, utility in row.items())
            print(f"  [{context}] {cells}")
    violations = check_dominance(ucp)
    if violations:
        print("dominance: VIOLATED")
        for v in violations:
            print(f"  {v}")
    else:
        print("dominance: OK")
    print("terms:")
    for k, term in enumerate(compiled.terms, start=1):
        assignment = ", ".join(f"{n}={v}" for n, v in term.assignment.items())
        print(f"  {k}. U={term.importance:.6f}  {assignment}")


if __name__ == "__main__":
    entry_point()
