"""Seeded inputs for the benchmark workloads.

Each workload fixes the shape of its inputs: table sizes, the mixture every
column is drawn from, the cluster count and the structure of the preference
net.  The seed draws the table samples, the missing cells and the preference
orders, so one seed always gives byte-identical files and the per-pass cost
depends on the shape rather than on the seed.

The program only ever sees the three files written by ``make_inputs``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (means, standard deviations, weights) of the mixture one column is drawn from
Mixture = tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]

# Attribute name -> mixture.  Continuous columns keep six decimals, so nearly
# every value is distinct; integer columns are rounded to multiples of 5, like
# prices in k-euro, so that about 1% of the values in 2x10^4 rows are distinct.
_THREE = {
    "price": ((150.0, 400.0, 700.0), (40.0, 60.0, 80.0), (0.3, 0.4, 0.3)),
    "km": ((100.0, 450.0, 850.0), (40.0, 70.0, 90.0), (0.35, 0.4, 0.25)),
    "power": ((120.0, 300.0, 600.0), (25.0, 40.0, 80.0), (0.3, 0.45, 0.25)),
    "age": ((60.0, 250.0, 500.0), (20.0, 40.0, 70.0), (0.3, 0.4, 0.3)),
}
_FOUR = {
    "price": ((100.0, 300.0, 500.0, 750.0), (30.0, 40.0, 50.0, 60.0), (0.25,) * 4),
    "km": ((15.0, 60.0, 120.0, 200.0), (6.0, 12.0, 18.0, 25.0), (0.25,) * 4),
    "power": ((50.0, 90.0, 140.0, 220.0), (8.0, 12.0, 18.0, 30.0), (0.25,) * 4),
}


@dataclass(frozen=True)
class Variable:
    name: str
    attribute: str
    parents: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build_rows: int
    eval_rows: int
    columns: dict[str, Mixture]
    integer: bool  # integer-valued columns, hence many duplicate values
    missing_share: float  # chance that one eval-table cell is empty
    clusters: int
    variables: tuple[Variable, ...]
    terms: int
    eval_args: tuple[str, ...] = ()

    @property
    def labels(self) -> tuple[str, ...]:
        # the program's default labels for these cluster counts
        return {3: ("low", "medium", "high")}.get(
            self.clusters, tuple(f"c{i}" for i in range(self.clusters))
        )

    @property
    def outcomes(self) -> int:
        return self.clusters ** len(self.variables)


_SCAN_NET = (
    Variable("cost", "price"),
    Variable("wear", "km", ("cost",)),
    Variable("punch", "power", ("cost",)),
    Variable("years", "age", ("wear", "punch")),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan-20k",
            why="table-heavy: FCM, KB write and read, ingest, per-record scoring "
            "and 2x10^4 output lines dominate; rewriting is trivial and top-N is bypassed",
            build_rows=20_000,
            eval_rows=20_000,
            columns=_THREE,
            integer=False,
            missing_share=0.01,
            clusters=3,
            variables=_SCAN_NET,
            terms=5,
        ),
        Workload(
            name="top10-dup",
            why="integer columns with about 1% distinct values and --top 10 JSON "
            "output: shows duplicate-aware FCM and top-N selection",
            build_rows=20_000,
            eval_rows=20_000,
            columns=_THREE,
            integer=True,
            missing_share=0.01,
            clusters=3,
            variables=_SCAN_NET,
            terms=5,
            eval_args=("--top", "10", "--format", "json"),
        ),
        Workload(
            name="wide-net",
            why="compile-heavy: 4^9 outcomes enumerated and sorted for 20 terms, "
            "then 20x9 memberships per record over only 2000 records",
            build_rows=2_000,
            eval_rows=2_000,
            columns=_FOUR,
            integer=False,
            missing_share=0.0,
            clusters=4,
            variables=(
                Variable("v0", "price"),
                Variable("v1", "km", ("v0",)),
                Variable("v2", "power", ("v0",)),
                Variable("v3", "price", ("v1", "v2")),
                Variable("v4", "km", ("v2",)),
                Variable("v5", "power", ("v3", "v4")),
                Variable("v6", "price", ("v5",)),
                Variable("v7", "km", ("v5", "v6")),
                Variable("v8", "power", ("v7",)),
            ),
            terms=20,
        ),
    )
}


@dataclass
class Inputs:
    """Generated inputs of one workload, as written and as numbers."""

    workload: Workload
    seed: int
    attributes: list[str]
    build: np.ndarray  # (build_rows, attributes), no missing cells
    eval: np.ndarray  # (eval_rows, attributes), NaN where a cell is empty
    query: str
    build_csv: Path
    eval_csv: Path
    query_file: Path


def _column(rng, mixture: Mixture, rows: int, integer: bool) -> np.ndarray:
    means, sds, weights = (np.asarray(p) for p in mixture)
    component = rng.choice(len(means), size=rows, p=weights / weights.sum())
    x = rng.normal(means[component], sds[component])
    if integer:
        return np.maximum(5.0 * np.rint(x / 5.0), 5.0)
    return np.round(np.abs(x), 6)


def _table(rng, workload: Workload, rows: int) -> np.ndarray:
    return np.column_stack(
        [_column(rng, m, rows, workload.integer) for m in workload.columns.values()]
    )


def _csv(attributes, table: np.ndarray, integer: bool) -> str:
    # repr round-trips every float exactly, so the program parses the very
    # values the checks use
    cell = (lambda v: str(int(v))) if integer else repr
    lines = [",".join(attributes)]
    for row in table.tolist():
        lines.append(",".join("" if math.isnan(v) else cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _query(rng, workload: Workload) -> str:
    labels = workload.labels
    blocks = []
    for var in workload.variables:
        lines = [f"var {var.name}: attr {var.attribute} {{"]
        if var.parents:
            lines.append(f"    depends {', '.join(var.parents)}")
        contexts = itertools.product(labels, repeat=len(var.parents))
        for context in contexts:
            order = " > ".join(labels[i] for i in rng.permutation(len(labels)))
            when = ", ".join(f"{p} = {v}" for p, v in zip(var.parents, context))
            lines.append(f"    when {when}: prefer {order}" if when else f"    prefer {order}")
        lines.append("}")
        blocks.append("\n".join(lines))
    blocks.append(f"terms {workload.terms}")
    return "\n\n".join(blocks) + "\n"


def make_inputs(workload: Workload, seed: int, directory: Path, scale: float = 1.0) -> Inputs:
    """Draw the workload's inputs from ``seed`` and write them to ``directory``.

    ``scale`` shrinks the tables for the benchmark's own tests; a run always
    uses 1.
    """
    rng = np.random.default_rng(seed)
    build_rows = max(50, int(workload.build_rows * scale))
    eval_rows = max(50, int(workload.eval_rows * scale))
    attributes = list(workload.columns)
    build = _table(rng, workload, build_rows)
    table = _table(rng, workload, eval_rows)
    table[rng.random(table.shape) < workload.missing_share] = np.nan
    query = _query(rng, workload)

    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(
        workload=workload,
        seed=seed,
        attributes=attributes,
        build=build,
        eval=table,
        query=query,
        build_csv=directory / "build.csv",
        eval_csv=directory / "eval.csv",
        query_file=directory / "query.pref",
    )
    inputs.build_csv.write_text(_csv(attributes, build, workload.integer), encoding="utf-8")
    inputs.eval_csv.write_text(_csv(attributes, table, workload.integer), encoding="utf-8")
    inputs.query_file.write_text(query, encoding="utf-8")
    return inputs


def properties(inputs: Inputs) -> dict:
    """Measured properties of the generated inputs that results depend on."""
    w = inputs.workload
    return {
        "seed": inputs.seed,
        "build_rows": int(inputs.build.shape[0]),
        "eval_rows": int(inputs.eval.shape[0]),
        "attributes": len(inputs.attributes),
        "clusters": w.clusters,
        "distinct_share": {
            name: round(len(np.unique(inputs.build[:, j])) / inputs.build.shape[0], 6)
            for j, name in enumerate(inputs.attributes)
        },
        "missing_cell_share": round(float(np.isnan(inputs.eval).mean()), 6),
        "variables": len(w.variables),
        "outcomes": w.outcomes,
        "terms": w.terms,
    }
