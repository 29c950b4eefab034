"""Command-line front door.

Four subcommands wire the pipeline together, each stage persisted as a
JSON document so it can be inspected and rerun independently:

    fuzzycp kb build      --input data.csv --out kb.json ...
    fuzzycp query compile --kb kb.json --query q.pref --out q.json
    fuzzycp eval          --kb kb.json --query q.json --data data.csv
    fuzzycp inspect       kb.json | q.json

Exit codes: 0 success, 1 usage error, 2 data error (parse, semantic,
validation, binding), 3 I/O error or memory ran out.  Stdout is UTF-8
in every locale, as every document is: ``write_stdout`` is its one writer.

Each stage imports the layers it uses when it runs.  Only the two that
read tables, ``kb build`` (``kb``) and ``eval`` (``kb`` and ``scoring``),
load numpy; ``query compile`` and ``inspect`` work on documents alone
(``kbdoc`` and ``query``).  Only ``query compile`` reads query text, so
only it loads the parser (``dsl``).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import kbdoc
from .errors import ConfigError, FuzzycpError, MalformedDocumentError, ParseError

OK, USAGE_ERROR, DATA_ERROR, IO_ERROR = 0, 1, 2, 3


class _ArgumentParser(argparse.ArgumentParser):
    """argparse terminates with status 2 on bad usage; we promise 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
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
    build.add_argument("--clusters", type=int, default=kbdoc.DEFAULT_CLUSTERS)
    build.add_argument("--labels", help="comma-separated labels, one per cluster")
    build.add_argument("--fuzzifier", type=float, default=kbdoc.DEFAULT_FUZZIFIER)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--tol", type=float, default=kbdoc.DEFAULT_TOL)
    build.add_argument("--max-iter", type=int, default=kbdoc.DEFAULT_MAX_ITER)
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
    except MalformedDocumentError as exc:
        print(f"fuzzycp: malformed document: {exc}", file=sys.stderr)
        return DATA_ERROR
    except FuzzycpError as exc:
        print(f"fuzzycp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DATA_ERROR
    except BrokenPipeError:
        raise  # not an I/O error: stdout's reader has all it wants
    except (OSError, MemoryError) as exc:  # a resource ran out: a disk, a pipe, memory
        print(f"fuzzycp: {str(exc) or 'out of memory'}", file=sys.stderr)
        return IO_ERROR


def entry_point():
    """Run one stage as the process's whole life.

    No stage makes reference cycles per record, so the cyclic collector
    only walks what the imports built: it is off for the stage, and the
    objects left at exit are frozen so that the interpreter's shutdown
    collections skip them.  ``main`` itself keeps the collector.

    A reader that closes stdout early (``| head``) ends the stage quietly
    with OK, as the Python docs' note on SIGPIPE advises: stdout goes to
    the null device, so the final flush cannot fail again.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = OK
    gc.freeze()
    raise SystemExit(code)


def _parse_attr_overrides(specs) -> dict[str, kbdoc.AttributeConfig]:
    overrides = {}
    for spec in specs:
        parts = spec.split(":", 2)
        name = parts[0]
        try:
            clusters = int(parts[1]) if len(parts) > 1 and parts[1] else None
        except ValueError:
            raise ConfigError(f"--attr {spec!r}: cluster count is not an integer") from None
        labels = tuple(parts[2].split(",")) if len(parts) > 2 else None
        overrides[name] = kbdoc.AttributeConfig(clusters=clusters, labels=labels)
    return overrides


def cmd_kb_build(args) -> int:
    from .kb import build_knowledge_base, ingest_tabular

    with open(args.input, "rb") as f:
        dataset = ingest_tabular(f, has_header=not args.no_header, delimiter=args.delimiter)
    config = kbdoc.KBConfig(
        clusters=args.clusters,
        labels=tuple(args.labels.split(",")) if args.labels is not None else None,
        fuzzifier=args.fuzzifier,
        tol=args.tol,
        max_iter=args.max_iter,
        seed=args.seed,
        per_attribute=_parse_attr_overrides(args.attr),
    )
    kb = build_knowledge_base(dataset, config, source=args.input)
    kb.save(args.out)
    for name, model in kb.models.items():
        centroids = ", ".join(f"{c:.6f}" for c in model.centroids)
        count = kb.provenance["iterations"][name]
        print(f"{name}: centroids [{centroids}] after {count} iterations", file=sys.stderr)
    for name, converged in kb.provenance["converged"].items():
        if not converged:
            print(f"fuzzycp: warning: {name}: fuzzy c-means did not converge within "
                  f"--max-iter {args.max_iter}", file=sys.stderr)
    return OK


def cmd_query_compile(args) -> int:
    from .query import compile_query, save_query

    kb = kbdoc.KnowledgeBase.load(args.kb)
    try:
        # text mode, for the newlines the parser's line numbers count; utf-8-sig drops a BOM
        with open(args.query, encoding="utf-8-sig") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.query}: query text is not UTF-8: {exc}") from None
    compiled = compile_query(text, kb, term_count=args.terms)
    save_query(compiled, args.out)
    print(
        f"compiled {len(compiled.terms)} terms over "
        f"{len(compiled.net.nodes)} variables",
        file=sys.stderr,
    )
    return OK


def cmd_eval(args) -> int:
    from .kb import ingest_tabular
    from .query import load_query
    from .scoring import json_bytes, rank, tsv_bytes

    kb = kbdoc.KnowledgeBase.load(args.kb)
    compiled = load_query(args.query)
    with open(args.data, "rb") as f:
        dataset = ingest_tabular(f, has_header=not args.no_header, delimiter=args.delimiter)
    ranking = rank(kb, compiled, dataset, top_n=args.top)
    attributes = dict.fromkeys(compiled.bindings.values())
    if attributes.keys().isdisjoint(dataset.attributes):
        print(f"fuzzycp: warning: the table has none of the query's attributes "
              f"({', '.join(attributes)}): every value is missing", file=sys.stderr)
    if args.format == "tsv":
        write_stdout(*tsv_bytes(ranking))
    else:
        write_stdout(json_bytes(ranking, compiled))
    return OK


def write_stdout(*chunks: bytes) -> None:
    """Write the UTF-8 ``chunks`` to stdout's byte buffer, whatever the
    locale, and flush it, so that a write the system cuts short raises.

    A buffered writer returns a short count, without raising, from a large
    write that fails part way (a file-size limit, a full disk, a closed
    pipe); writing the rest raises the system's error.  A stream without a
    byte buffer (a ``StringIO``) takes the decoded text.
    """
    stream = sys.stdout
    raw = getattr(stream, "buffer", None)
    if raw is None:
        stream.write(b"".join(chunks).decode())
        return
    stream.flush()
    for data in map(memoryview, chunks):
        while data:
            data = data[raw.write(data):]
    raw.flush()


def cmd_inspect(args) -> int:
    doc = kbdoc.load_document(args.path)
    keys = doc if isinstance(doc, dict) else {}
    if "attributes" not in keys and "terms" not in keys:
        print("fuzzycp: not a knowledge-base or compiled-query document", file=sys.stderr)
        return DATA_ERROR
    lines = _inspect_kb(doc) if "attributes" in keys else _inspect_query(doc)
    write_stdout("".join(f"{line}\n" for line in lines).encode())
    return OK


def _inspect_kb(doc):
    kb = kbdoc.KnowledgeBase.from_document(doc)
    prov = kb.provenance
    yield f"knowledge base (source: {prov.get('source')}, seed: {prov.get('seed')})"
    yield f"records: {prov.get('records', '?')}"
    # fuzzy c-means as the build recorded it; a v1 or hand-written document may not
    fits = [prov.get(key) if isinstance(prov.get(key), dict) else {}
            for key in ("iterations", "converged")]
    for name, model in kb.models.items():
        yield f"attribute {name}"
        yield f"  labels:    {', '.join(model.labels)}"
        yield f"  centroids: {', '.join(f'{c:.6f}' for c in model.centroids)}"
        yield f"  fuzzifier: {model.fuzzifier}"
        iterations, converged = (fit.get(name) for fit in fits)
        yield (f"  iterations: {iterations if type(iterations) is int else 'unknown'}, "
               f"converged: {('no', 'yes')[converged] if type(converged) is bool else 'unknown'}")


def _inspect_query(doc):
    # what query_to_document derives, the one source of every stored block
    from .query import query_from_document, query_to_document

    view = query_to_document(query_from_document(doc))
    nodes = view["cpnet"]["nodes"]
    yield f"compiled query over {len(nodes)} variables"
    for node in nodes:
        yield (f"variable {node['name']} (attr {node['attribute']}): "
               f"domain {', '.join(node['domain'])}")
    yield "edges: " + (", ".join(f"{p} -> {c}" for p, c in view["cpnet"]["edges"]) or "none")
    yield "importance: " + ", ".join(f"{n}={g}" for n, g in view["importance"].items())
    for name, block in view["utilities"].items():
        yield (f"utilities for {name} (step {block['step']}, minspan {block['minspan']}, "
               f"maxspan {block['maxspan']})")
        for row in block["rows"]:
            context = ", ".join(f"{p}={v}" for p, v in row["when"].items()) or "always"
            cells = ", ".join(f"{value}={utility}" for value, utility in row["values"].items())
            yield f"  [{context}] {cells}"
    yield "dominance: OK"  # loading derived the utilities by assign_utilities, which ensures it
    yield "terms:"
    for k, term in enumerate(view["terms"], start=1):
        assignment = ", ".join(f"{n}={v}" for n, v in term["assignment"].items())
        yield f"  {k}. U={term['importance']:.6f}  {assignment}"


if __name__ == "__main__":
    entry_point()
