"""End-to-end benchmark of the three fuzzycp CLI stages.

    python3 bench/run.py --workload scan-20k --seed 1 --seconds 55 --trace 0

A single-process closed loop with one client: a pass runs ``kb build``,
``query compile`` and ``eval`` one after another, each as a fresh
``python -m fuzzycp`` child, exactly as a user does, with stdout going to a
file.  After the first pass, the stage with the fewest samples among those
whose median still fits in ``--seconds`` runs again, until none fits, so
that every stage's median rests on several samples.  Inputs are generated
from ``--seed`` before anything is timed, and every stage output is checked
after its invocation, outside the timed region.

With ``--trace 0`` the last line carries the end-to-end metrics named in
BENCHMARK.json.  With ``--trace 1`` untraced and traced passes alternate
(``bench/tracing.py`` drives the traced stages) and the last line carries
the per-layer metrics, including the tracing overhead per stage.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import WORKLOADS, make_inputs, properties

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
STAGES = ("kb_build", "query_compile", "eval")
RUN_BUDGET_S = 165.0  # a run must end within 180 s
HOST_REF_S = 0.15  # end-to-end times are scaled to this host speed; see end_to_end
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cap = str(len(os.sched_getaffinity(0)))
    env.update({var: cap for var in BLAS_THREADS})
    return env


def run_child(argv, env, cwd, stdout, deadline):
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB).

    A child still running at ``deadline`` is killed and reports exit code -9.
    """
    with open(stdout, "wb") as out, open(f"{stdout}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted, e.g. by SIGTERM: stop the child too
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Bench:
    """One run: the inputs of a workload and the passes made over them."""

    def __init__(self, workload, seed, work, scale=1.0):
        self.workload = workload
        self.work = work
        self.inputs = make_inputs(workload, seed, work, scale)
        self.verifier = checks.Verifier(self.inputs)
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failures: dict[int, str] = {}  # stage invocation -> reason
        self.kb = work / "kb.json"
        self.query = work / "query.json"

    def stage_args(self, stage):
        i = self.inputs
        if stage == "kb_build":
            return ["kb", "build", "--input", str(i.build_csv), "--out", str(self.kb),
                    "--clusters", str(self.workload.clusters), "--seed", "0"]
        if stage == "query_compile":
            return ["query", "compile", "--kb", str(self.kb), "--query", str(i.query_file),
                    "--out", str(self.query)]
        return ["eval", "--kb", str(self.kb), "--query", str(self.query),
                "--data", str(i.eval_csv), *self.workload.eval_args]

    def import_s(self, module="fuzzycp") -> float:
        """Wall time of a fresh interpreter importing ``module`` and exiting."""
        argv = [sys.executable, "-c", f"import {module}"]
        wall, code, _ = run_child(argv, self.env, self.work, self.work / "setup.out", self.deadline)
        if code != 0:
            raise SystemExit(f"bench: cannot import {module}")
        return wall

    def invoke(self, stage, traced=False):
        """Run one stage once and check its output; returns its wall time,
        its peak RSS and, when traced, the file its spans go to."""
        own = {"kb_build": self.kb, "query_compile": self.query}.get(stage)
        if own is not None:
            own.unlink(missing_ok=True)  # a failed stage must not pass on a stale file
        argv = [sys.executable, "-m", "fuzzycp", *self.stage_args(stage)]
        self.attempted += 1
        spans = None
        if traced:
            spans = (self.attempted, self.work / f"spans-{self.attempted}.jsonl")
            argv = [sys.executable, str(BENCH / "tracing.py"), "--spans",
                    str(spans[1]), "--trace-id", str(self.attempted), "--", *argv[3:]]
        out = self.work / f"{stage}.out"
        wall, code, peak = run_child(argv, self.env, self.work, out, self.deadline)
        problem = f"exit code {code}" if code != 0 else self.check(stage, out)
        if problem:
            self.failures[self.attempted] = f"{stage}: {problem}"
        return wall, peak, spans

    def run_pass(self, traced: bool) -> dict:
        """One pass, each stage invoked once; returns the wall time of each
        stage, the peak RSS and the span files of a traced pass."""
        walls, rss, spans = {}, [], []
        for stage in STAGES:
            walls[stage], peak, span = self.invoke(stage, traced)
            rss.append(peak)
            if span:
                spans.append(span)
        return {"walls": walls, "peak_rss_mb": max(rss), "spans": spans}

    def stage_samples(self, seconds) -> tuple[dict, list, list, list]:
        """Untraced: one pass, then, while any stage's median fits in what
        is left of ``seconds``, the fitting stage with the fewest samples.
        A set-up sample (``import fuzzycp``) and a host sample
        (``import numpy``) precede every stage invocation, so that both are
        sampled across the whole run; one untimed import of each first
        fills the caches.  Returns the wall times per stage, the set-up
        times, the host times and the peak RSS of every stage child."""
        self.import_s()
        self.import_s("numpy")
        start = time.monotonic()
        walls = {stage: [] for stage in STAGES}
        setup, host, rss = [], [], []
        stage = STAGES[0]
        while stage:
            setup.append(self.import_s())
            host.append(self.import_s("numpy"))
            wall, peak, _ = self.invoke(stage)
            walls[stage].append(wall)
            rss.append(peak)
            stage = self.next_stage(walls, seconds - (time.monotonic() - start))
        return walls, setup, host, rss

    def next_stage(self, walls, left):
        """The first pass in order, then the stage with the fewest samples
        whose median fits in ``left`` seconds, or None."""
        for stage in STAGES:
            if not walls[stage]:
                return stage
        fits = [s for s in STAGES if statistics.median(walls[s]) <= left]
        if not fits or self.out_of_time(max(map(statistics.median, walls.values()))):
            return None
        return min(fits, key=lambda s: len(walls[s]))

    def check(self, stage, out):
        if stage == "kb_build":
            return self.verifier.kb_build(self.kb)
        if stage == "query_compile":
            return self.verifier.query_compile(self.query)
        return self.verifier.eval(out, self.kb, self.query)

    def passes(self, seconds, kinds):
        """Cycle through ``kinds`` (traced or not) while another cycle fits in
        ``seconds``; the first cycle always runs."""
        done = {kind: [] for kind in kinds}
        start, longest = time.monotonic(), 0.0
        while True:
            began = time.monotonic()
            for kind in kinds:
                done[kind].append(self.run_pass(kind))
            longest = max(longest, time.monotonic() - began)
            if time.monotonic() - start + longest > seconds or self.out_of_time(longest):
                return done

    def out_of_time(self, cycle) -> bool:
        return time.monotonic() + cycle > self.deadline - 15.0


def end_to_end(bench, seconds, names) -> tuple[dict, dict]:
    walls, setup, host, rss = bench.stage_samples(seconds)
    # The shared host's speed drifts by a third and more over minutes, and
    # all stages of a run drift together.  Times are scaled to a host on
    # which a fresh interpreter imports numpy in HOST_REF_S, judged by the
    # median of the run's host samples.
    scale = HOST_REF_S / statistics.median(host)
    samples = {stage + "_s": [w * scale for w in walls[stage]] for stage in STAGES}
    # stages run separately after the first pass, so the CSV-to-ranking time
    # is the sum of the stage medians
    samples["pipeline_s"] = [sum(statistics.median(w) for w in samples.values())]
    samples["peak_rss_mb"] = [max(rss)]
    samples["setup_s"] = [w * scale for w in setup]
    return {name: samples[name] for name in names}, {
        "invocations": {stage: len(w) for stage, w in walls.items()},
        "host_import_numpy_s": statistics.median(host),
        "unscaled_median_s": {stage: statistics.median(w) for stage, w in walls.items()}
        | {"setup": statistics.median(setup)},
    }


def per_layer(bench, seconds, names) -> tuple[dict, dict]:
    done = bench.passes(seconds, (False, True))
    plain, traced = done[False], done[True]
    samples = {name: [] for name in names}
    for p in traced:
        spans = []
        for invocation, path in p["spans"]:
            found = tracing.read_spans(path) if path.exists() else []
            problems = tracing.tree_problems(found)
            if problems:
                bench.failures.setdefault(invocation, f"spans: {problems[0]}")
            spans += found
        values = tracing.layer_metrics(spans, [n for n in names if not n.startswith("trace.")])
        for name, value in values.items():
            samples[name].append(value)
    for stage in STAGES:
        name = f"trace.overhead_s.{stage}"
        if name in samples:
            samples[name] = [
                statistics.median(p["walls"][stage] for p in traced)
                - statistics.median(p["walls"][stage] for p in plain)
            ]
    return samples, {"passes": len(plain), "traced_passes": len(traced)}


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 20:
        return None
    p = int(100 * (1 - 10 / len(values)))
    return p, float(np.percentile(values, p))


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_thread_cap": child_env()[BLAS_THREADS[0]],
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so that the running child is killed and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "fuzzycp" / "__init__.py").is_file():
        print(f"bench: no fuzzycp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks call the program's scalar oracles
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in metrics]

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        measure = per_layer if args.trace else end_to_end
        samples, counts = measure(bench, args.seconds, names)
        facts = {"machine": machine_facts(), "workload": {
            "name": args.workload, **properties(bench.inputs), **counts}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print("facts " + json.dumps(facts))
    for invocation, failure in sorted(bench.failures.items()):
        print(f"FAILED stage invocation {invocation}: {failure}")
    print(f"{'metric':44} {'median':>14} {'unit':6} {'n':>3}  tail")
    for m in metrics:
        values = samples[m["name"]]
        p = tail(values)
        print(f"{m['name']:44} {statistics.median(values):14.6f} {m['unit']:6} {len(values):3d}  "
              + (f"p{p[0]}={p[1]:.6f}" if p else "-"))
    print(f"fail_ratio {len(bench.failures)}/{bench.attempted}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {
            m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
            for m in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
