"""stellarq benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Each repetition is a fresh Python process (``worker.py``), so no cache
carries work from one repetition into the next, just as a CLI user pays
imports, parameter optimization and the sampler's envelope on every
invocation.  Repetitions follow one another until ``--seconds`` have
passed (at least ``MIN_REPS``); the end-to-end metrics are their medians.

``--trace 1`` instead runs the workload twice with spans recorded around
the calls into each ``stellarq`` module, plus once untraced on the same
inputs to measure the tracing overhead, and reports the per-layer metrics.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("campaign", "scan", "profile", "pipeline")
MIN_REPS = 2
DEADLINE_S = 165.0  # start no repetition that would end after this
FULL_SUITE_WALL_S = 572  # reference only: the whole pytest suite, 2-CPU Xeon


def git_sha():
    """The checked-out commit, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": git_sha(),
        "full_suite_wall_s_reference": FULL_SUITE_WALL_S,
    }


def run_worker(workload, rep_seed, trace, probe, workdir, deadline) -> dict:
    """One repetition in a fresh process; a crash or timeout is one failed op."""
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(rep_seed), str(int(trace)),
            str(int(probe)), repr(time.monotonic()), str(workdir), str(out)]
    try:
        proc = subprocess.run(argv, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"ops": {"worker": False}, "failures": ["worker timed out"]}
    if proc.returncode != 0 or not out.is_file():
        return {"ops": {"worker": False}, "failures": [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    result = json.loads(out.read_text())
    spans = workdir / "spans.json"
    if spans.is_file():
        result["spans_file"] = spans
    return result


def rep_seed(seed: int, rep: int) -> int:
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def measure(workload, seed, seconds, workdir) -> list:
    start = time.monotonic()
    results, longest = [], 0.0
    while len(results) < MIN_REPS or time.monotonic() - start < seconds:
        t0 = time.monotonic()
        if t0 + longest > start + DEADLINE_S:
            break
        results.append(run_worker(workload, rep_seed(seed, len(results)), False, False,
                                  workdir / f"rep{len(results)}", start + DEADLINE_S + 10))
        longest = max(longest, time.monotonic() - t0)
    return results


def trace_runs(workload, seed, workdir) -> tuple:
    start = time.monotonic()
    deadline = start + DEADLINE_S + 10
    s = rep_seed(seed, 0)
    traced = [run_worker(workload, s, True, workload == "campaign", workdir / "traced0", deadline),
              run_worker(workload, s, True, False, workdir / "traced1", deadline)]
    plain = run_worker(workload, s, False, False, workdir / "plain", deadline)
    return traced, plain


def median(results, key):
    vals = [r[key] for r in results if key in r]
    return statistics.median(vals) if vals else None


def layer_summary(traced, plain) -> tuple:
    """Medians over the traced repetitions, in the order of ``tracer.UNITS``.

    Also returns the counts that failed to repeat between the two traced
    repetitions, which ran on the same inputs.
    """
    layers = [r["layers"] for r in traced if "layers" in r]
    if len(layers) < len(traced) or "wall_s" not in plain:
        return {}, []
    metrics = {k: statistics.median(l.get(k, 0.0) for l in layers) for k in tracer.UNITS}
    unrepeated = [f"{k} differs between the traced runs: {[l[k] for l in layers]}"
                  for k in tracer.REPEATABLE if len({l[k] for l in layers}) != 1]
    metrics["trace.overhead_fraction"] = (metrics["trace.wall_s"] - plain["wall_s"]) / plain["wall_s"]
    metrics["dhd.sample_q.speedup_2w"] = layers[0].get("dhd.sample_q.speedup_2w", 0.0)
    return metrics, unrepeated


UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def run_workload(workload, seed, seconds, trace) -> dict | None:
    """Measure one workload, print its report lines and return its result."""
    workdir = WORK / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    try:
        if trace:
            traced, plain = trace_runs(workload, seed, workdir)
            metrics, unrepeated = layer_summary(traced, plain)
            results = traced + [plain, {"ops": {"trace_repeat": not unrepeated}, "failures": unrepeated}]
            units = tracer.UNITS
            spans = traced[0].get("spans_file")
            if spans:
                shutil.copyfile(spans, WORK / f"spans-{workload}.json")
        else:
            results = measure(workload, seed, seconds, workdir)
            metrics = {k: median(results, k) for k in UNITS}
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r["ops"]) for r in results)
    failed = sum(not ok for r in results for ok in r["ops"].values())
    for msg in [m for r in results for m in r["failures"]]:
        print(f"FAILED {msg}", file=sys.stderr)
    if not metrics or any(v is None for v in metrics.values()):
        print(f"error: no {workload} repetition produced its measurements", file=sys.stderr)
        return None

    measured = [r for r in results if "wall_s" in r]
    outputs = {}
    for r in measured:
        for k, v in r["outputs"].items():
            outputs[k] = outputs.get(k, 0) + v
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: "
          f"{len(measured)} fresh processes, {attempted} operations")
    for i, r in enumerate(measured):
        print(f"  process {i}: " + ", ".join(f"{k} {r[k]:.4g}" for k in UNITS))
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
    print(f"  {'failed_fraction':48s} {failed / max(attempted, 1):.6g} 1 ({failed}/{attempted})")
    if outputs:
        print(f"  outputs: {json.dumps(outputs)}")
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs the four in turn; its metrics are named <workload>.<metric>")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "stellarq" / "__init__.py").is_file():
        print(f"error: the stellarq sources are not at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    if any(r is None for r in results.values()):
        return 1
    print(f"environment: {json.dumps(environment())}")
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
