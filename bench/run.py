#!/usr/bin/env python3
"""Corpus-generation benchmark for gexpand.

    python3 bench/run.py --workload amr-enumerate --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 10   # every workload, both modes
    python3 bench/run.py --smoke                       # the benchmark's own test

Untraced (``--trace 0``): one closed loop, one child at a time, every
child started by launcher.py.  Each iteration times a fresh interpreter
that imports gexpand and parses the workload's input files
(``setup_s``), then one CLI corpus run (``python -m gexpand.cli ...
--out <fresh empty dir>``) from spawn to exit, with its peak RSS, then
the calibration job (calibrate.py).  Times are scaled by REFERENCE_S
over the mean calibration time before and after them, which removes
most of the host's speed drift.  Every corpus is checked outside the
timed region (see checks.py).

Traced (``--trace 1``): a short untraced baseline, the serial/parallel
``evaluate_corpus`` ratio, then repeated in-process calls of
``gexpand.cli.main`` with spans around the calls between modules (see
tracing.py).  Reports per-layer medians over the traced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout that holds this file; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 60
# Time calibrate.py is scaled to: reported times are seconds on a
# machine where the calibration job takes exactly this long.
REFERENCE_S = 0.25
BASELINE_SAMPLES = 3
SPEEDUP_PAIRS = 5

SETUP_CODE = (
    "import sys, gexpand\n"
    "gexpand.parse_operation_file(open(sys.argv[1]).read())\n"
    "gexpand.parse_rtg(open(sys.argv[2]).read())\n"
    "if len(sys.argv) > 3:\n"
    "    gexpand.parse_definitions(open(sys.argv[3]).read())\n"
)

E2E_UNITS = {
    "wall_s": "s",
    "graphs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "tree_ok_frac": "ratio",
}
RATIO_METRICS = {"evaluator.useful_ratio", "evaluator.distinct_ratio",
                 "substitution.fanout", "trace.coverage"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_speedup"):
        return "x"
    return "ratio" if name in RATIO_METRICS else "count"


def child_env() -> dict:
    # A fixed hash seed removes one source of run-to-run variation in
    # set iteration order; the program's output does not depend on it.
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


class Launcher:
    """Client of launcher.py, the small process that starts every timed
    child, so that a child's peak RSS does not include this process's."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv, log: Path) -> dict:
        """Run a child to completion: ``wall`` seconds, ``rss_mb`` and
        exit ``status``."""
        request = {"argv": argv, "cwd": str(ROOT), "env": child_env(),
                   "log": str(log), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return "no percentile has 10 samples beyond it"
    return f"p{100 * (n - 10) // n} {s[n - 11]:.4f} s"


class Run:
    """One benchmark run: its children, started through the launcher,
    and its counts and problems."""

    def __init__(self, launcher: Launcher, log: Path) -> None:
        self.launcher = launcher
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(what)

    def child(self, argv, what: str):
        """The launcher's answer, or None (and a failure) on a non-zero
        exit status."""
        result = self.launcher.run(argv, self.log)
        if result["status"] != 0:
            self.fail(f"{what} exited with status {result['status']}: "
                      f"{self.log.read_text(errors='replace')[-300:]!r}")
            return None
        return result

    def calibration(self):
        """Seconds the calibration job took, or None."""
        result = self.child([sys.executable, str(BENCH / "calibrate.py")],
                            "calibration")
        return None if result is None else result["wall"]


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at reference speed."""
    return 2 * REFERENCE_S / (before + after)


def cli_runs(run: Run, inputs, work: Path, seconds: float, min_samples: int):
    """Untraced closed loop of setup and CLI runs; returns the samples
    as (wall, setup, rss, scale) tuples and the scan of the reference
    corpus (None if even the warm-up run failed)."""
    from checks import CheckError, scan

    setup_argv = [sys.executable, "-c", SETUP_CODE, inputs.ops, inputs.rtg]
    if inputs.defs is not None:
        setup_argv.append(inputs.defs)

    def corpus_run(out: Path):
        run.attempted += 1
        result = run.child([sys.executable, "-m", "gexpand.cli",
                            *inputs.cli_args(str(out.relative_to(ROOT)))],
                           "CLI")
        if result is None:
            return None
        try:
            return result, scan(out)
        except CheckError as exc:
            run.fail(str(exc))
            return None

    # Warm-up, untimed: fills the bytecode and file caches, and keeps
    # the reference corpus that every timed corpus must equal.
    run.launcher.run(setup_argv, run.log)
    first = corpus_run(fresh_dir(work / "ref"))
    before = run.calibration()
    if first is None or before is None:
        return [], None
    ref = first[1]

    samples = []
    out = work / "out"
    deadline = time.perf_counter() + seconds
    while True:
        setup = run.child(setup_argv, "set-up")
        if setup is None:
            break
        result = corpus_run(fresh_dir(out))
        shutil.rmtree(out, ignore_errors=True)
        after = run.calibration()
        if result is None or after is None:
            break
        cli, got = result
        if got.digest != ref.digest:
            run.fail(f"corpus digest {got.digest[:12]} differs from "
                     f"{ref.digest[:12]}")
            break
        samples.append((cli["wall"], setup["wall"], cli["rss_mb"],
                        scale(before, after)))
        before = after
        if len(samples) >= min_samples and time.perf_counter() >= deadline:
            break
    return samples, ref


def deep(ref_dir: Path, ref, inputs, run: Run) -> str:
    from checks import CheckError, deep_check

    try:
        return deep_check(ref_dir, ref.manifest, inputs, ROOT)
    except CheckError as exc:
        run.fail(f"reference corpus: {exc}")
        return f"FAILED: {exc}"


def untraced(run: Run, inputs, work: Path, seconds: float, report):
    samples, ref = cli_runs(run, inputs, work, seconds, 1)
    if ref is None:
        return {}
    summary = deep(work / "ref", ref, inputs, run)
    if not samples:
        return {}
    walls = [w * k for w, _s, _r, k in samples]
    wall = statistics.median(walls)
    failed_frac = run.failed / run.attempted
    tree_error_frac = ref.error_trees / inputs.trees
    metrics = {
        "wall_s": wall,
        "graphs_per_s": ref.files / wall,
        "setup_s": statistics.median(s * k for _w, s, _r, k in samples),
        "peak_rss_mb": statistics.median(r for _w, _s, r, _k in samples),
        "ok_frac": 1 - failed_frac,
        "tree_ok_frac": 1 - tree_error_frac,
    }
    n = len(samples)
    raw = lambda i: statistics.median(x[i] for x in samples)  # noqa: E731
    report(f"wall_s           {wall:.4f} s  median of {n}; {tail(walls)}")
    report(f"graphs_per_s     {metrics['graphs_per_s']:.2f} 1/s  "
           f"({ref.files} files / median wall_s)")
    report(f"setup_s          {metrics['setup_s']:.4f} s  median of {n}")
    report(f"unscaled         wall_s {raw(0):.4f} s, setup_s {raw(1):.4f} s; "
           f"scale median {raw(3):.3f} (min {min(x[3] for x in samples):.3f}, "
           f"max {max(x[3] for x in samples):.3f})")
    report(f"peak_rss_mb      {metrics['peak_rss_mb']:.2f} MB  median of {n}")
    report(f"failed_frac      {failed_frac:.4f} ratio  "
           f"({run.failed} of {run.attempted} runs; ok_frac {1 - failed_frac:.4f})")
    report(f"tree_error_frac  {tree_error_frac:.4f} ratio  "
           f"({ref.error_trees} of {inputs.trees} trees; tree_ok_frac "
           f"{1 - tree_error_frac:.4f})")
    report(f"corpus_sha256    {ref.digest}")
    report(f"checks           {summary}")
    return metrics


def parallel_speedup(inputs) -> float:
    """Serial over ``parallel=True`` time of ``evaluate_corpus`` on the
    workload's trees, median of alternating pairs."""
    import gexpand

    text = lambda p: (ROOT / p).read_text()  # noqa: E731
    algebra = gexpand.parse_operation_file(text(inputs.ops))
    trees = [t for t, _w in gexpand.n_best_trees(
        gexpand.parse_rtg(text(inputs.rtg)), inputs.trees)]
    cfg = gexpand.EvalConfig(mode=inputs.workload.mode, seed=inputs.seed)

    def timed(parallel: bool) -> float:
        start = time.perf_counter()
        gexpand.evaluate_corpus(trees, algebra, cfg, parallel=parallel)
        return time.perf_counter() - start

    ratios = []
    for i in range(SPEEDUP_PAIRS):
        if i % 2:
            par, ser = timed(True), timed(False)
        else:
            ser, par = timed(False), timed(True)
        ratios.append(ser / par)
    return statistics.median(ratios)


def traced(run: Run, inputs, work: Path, seconds: float, report):
    import gexpand.cli
    from checks import CheckError, scan
    from tracing import Tracer, absent_spans, expected_spans, layer_metrics

    deadline = time.perf_counter() + seconds
    samples, ref = cli_runs(run, inputs, work, 0, BASELINE_SAMPLES)
    if not samples:
        return {}
    baseline_s = statistics.median((w - s) * k for w, s, _r, k in samples)
    speedup = parallel_speedup(inputs)

    tracer = Tracer()
    main = tracer.wrap("cli.main", gexpand.cli.main)
    expected = expected_spans(inputs.workload.mode, inputs.defs is not None)
    per_run = []
    out = work / "out"
    before = run.calibration()
    tracer.install()
    try:
        while before is not None:
            run.attempted += 1
            tracer.run += 1
            first = len(tracer.spans)
            argv = inputs.cli_args(str(fresh_dir(out).relative_to(ROOT)))
            with open(os.devnull, "w") as sink, \
                    contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                status = main(argv)
            try:
                got = scan(out) if status == 0 else None
            except CheckError as exc:
                run.fail(f"traced run: {exc}")
                break
            if got is None or got.digest != ref.digest:
                run.fail(f"traced run: status {status}, corpus differs")
                break
            shutil.rmtree(out, ignore_errors=True)
            after = run.calibration()
            if after is None:
                break
            k = scale(before, after)
            before = after
            spans = tracer.spans[first:]
            values = {
                name: v * k if layer_unit(name) == "s" else v
                for name, v in layer_metrics(
                    spans, absent_spans(spans, tracer.missing, expected)
                ).items()
            }
            values["cli.files"] = got.files
            values["cli.bytes"] = got.bytes
            per_run.append(values)
            if time.perf_counter() >= deadline:
                break
    finally:
        tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
    tracer.write(work / "spans.jsonl")
    summary = deep(work / "ref", ref, inputs, run)
    if not per_run:
        return {}

    metrics = {
        name: statistics.median(r[name] for r in per_run)
        for name in per_run[0]
        if all(name in r for r in per_run)
    }
    metrics.update(counters(tracer.captured))
    metrics["evaluator.parallel_speedup"] = speedup
    if "cli.main_s" in metrics:
        metrics["trace.overhead_s"] = metrics["cli.main_s"] - baseline_s
    report(f"traced runs      {len(per_run)}; spans in "
           f"{(work / 'spans.jsonl').relative_to(ROOT)}")
    report(f"checks           {summary}")
    for name in sorted(metrics):
        report(f"{name:32} {metrics[name]:.6g} {layer_unit(name)}")
    return metrics


def counters(captured) -> dict:
    """Work counters from the trees and outcomes of the last traced run,
    computed outside any timed region."""
    out = {}
    best = captured.get("grammar.n_best")
    if best is not None:
        trees = [t for t, _w in best]
        out["grammar.trees"] = len(trees)
        out["grammar.tree_nodes"] = sum(t.size() for t in trees)
        distinct = set()
        stack = list(trees)
        while stack:
            t = stack.pop()
            distinct.add(t.serialize())
            stack.extend(t.children)
        out["evaluator.subtree_evals"] = out["grammar.tree_nodes"]
        out["evaluator.distinct_subtrees"] = len(distinct)
        out["evaluator.distinct_ratio"] = (
            len(distinct) / max(1, out["grammar.tree_nodes"]))
    outcomes = captured.get("evaluator.corpus")
    if outcomes is not None:
        yielding = sum(1 for o in outcomes if o.graphs)
        out["evaluator.graphs_out"] = sum(len(o.graphs) for o in outcomes)
        out["evaluator.zero_yield_trees"] = len(outcomes) - yielding
        out["evaluator.useful_ratio"] = yielding / max(1, len(outcomes))
    return out


def bench_one(launcher: Launcher, name: str, seed: int, seconds: float,
              trace: bool, trees=None, report=print) -> dict:
    from workloads import WORKLOADS, prepare

    w = WORKLOADS[name]
    work = fresh_dir(WORK / name)
    inputs = prepare(w, seed, trees or w.trees, ROOT, work / "inputs")
    report(f"== {name}  seed {seed}  trees {inputs.trees}  mode {w.mode}"
           f"{'  defs' if w.defs else ''}  trace {int(trace)}")
    run = Run(launcher, work / "child.log")
    measure = traced if trace else untraced
    metrics = measure(run, inputs, work, seconds, lambda s: report("  " + s))
    shutil.rmtree(work / "ref", ignore_errors=True)
    for problem in run.problems:
        report(f"  FAILED: {problem}")
    unit = layer_unit if trace else E2E_UNITS.get
    return {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()},
    }


def smoke(launcher: Launcher) -> int:
    """Every workload once at tiny size, untraced and traced; every
    metric BENCHMARK.json names must appear with its unit."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name, w in WORKLOADS.items():
        for trace, wanted in ((False, spec["end_to_end"]),
                              (True, spec["per_layer"])):
            result = bench_one(launcher, name, 1, 0, trace, w.smoke_trees,
                               report=lambda s: None)
            got = result["metrics"]
            bad = [m["name"] for m in wanted
                   if got.get(m["name"], {}).get("unit") != m["unit"]]
            good = result["correct"] and not bad
            ok &= good
            print(f"smoke {name} trace {int(trace)}: "
                  f"{'ok' if good else 'FAILED'}"
                  f"{'' if result['correct'] else ' (incorrect)'}"
                  f"{f' missing {bad}' if bad else ''}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload once at tiny size and check "
                        "that every metric is reported")
    args = p.parse_args(argv)

    if not (SRC / "gexpand" / "__init__.py").is_file():
        print(f"error: no gexpand source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gexpand

    if Path(gexpand.__file__).resolve().parent != SRC / "gexpand":
        print(f"error: imported gexpand from {gexpand.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if not args.smoke and args.workload not in (*WORKLOADS, "all"):
        p.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")
    os.chdir(ROOT)
    with Launcher() as launcher:
        if args.smoke:
            return smoke(launcher)
        if args.workload == "all":
            correct = True
            for name in WORKLOADS:
                for trace in (False, True):
                    result = bench_one(launcher, name, args.seed,
                                       args.seconds, trace)
                    correct &= result["correct"]
                    print(json.dumps(result))
            return 0 if correct else 1
        result = bench_one(launcher, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
