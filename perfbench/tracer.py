"""Span recorder for the traced benchmark run, and the per-layer metrics.

Spans are taken from the benchmark's side only: each traced function is
replaced, for the duration of the run, by a wrapper in every ``stellarq``
namespace that binds it by name (``sample_q`` in ``dhd`` and
``negativity``, ``coherent_row`` in ``fockspace`` and ``dhd``, ...), so
calls from one layer into another are seen as nested spans.  Spans stay
in memory and are written out once, when the worker ends.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
import time

import numpy as np

LAYERS = ("fockspace", "dhd", "estimator", "stellar", "negativity", "cli")
AT_BEST_TOL = 1e-9  # a restart "found the optimum" within this of the best


def _rows(args, kwargs, result):
    return {"rows": int(result.shape[0]), "cells": int(result.size)}


def _batch(args, kwargs, result):
    return {"n": result.n, "proposals": round(result.n / result.acceptance_rate)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else args[0])}


def _kernel_samples(args, kwargs, result):
    return {"samples": int(np.size(args[0]))}


def _kernel_range_key(args, kwargs, result):
    what, p, eta = args + tuple(kwargs.values())
    key = int(what) if isinstance(what, (int, np.integer)) else what.matrix.tobytes().hex()
    return {"key": f"{key}/{int(p)}/{float(eta)!r}"}


def _restarts(args, kwargs, result):
    report = result.optimizer_report
    best = max(r["objective"] for r in report)
    return {
        "nfev": sum(r["nfev"] for r in report),
        "restarts": len(report),
        "converged": sum(r["converged"] for r in report),
        "at_best": sum(r["objective"] >= best - AT_BEST_TOL for r in report),
    }


def _cli_span(args):
    """``cli.main(argv)`` gets one span per subcommand: ``cli.sample`` and so on."""
    return f"cli.{args[0][0]}"


# (module, function, measure): every public entry point the workloads
# reach, plus what each call counts.  A function a later version renames
# or removes is skipped, and its metrics read 0.
TARGETS = (
    ("fockspace", "coherent_row", _rows),
    ("fockspace", "husimi_q", None),
    ("fockspace", "apply_gaussian", None),
    ("fockspace", "gaussian_matrix", None),
    ("dhd", "sample_q", _batch),
    ("dhd", "sample_unbalanced", None),
    ("dhd", "certify_envelope", None),
    ("dhd", "translate_samples", None),
    ("dhd", "save_csv", _file_bytes),
    ("dhd", "load_csv", _file_bytes),
    ("estimator", "estimate", None),
    ("estimator", "kernel_values", _kernel_samples),
    ("estimator", "kernel_range", _kernel_range_key),
    ("estimator", "required_samples", None),
    ("estimator", "optimize_params", None),
    ("stellar", "max_fidelity_rank_bounded", _restarts),
    ("stellar", "fidelity_profile", None),
    ("stellar", "rank_witness_verdict", None),
    ("stellar", "profile_to_csv", None),
    ("negativity", "estimate_omega", None),
    ("negativity", "witness_scan", None),
    ("negativity", "choose_witness_params", None),
    ("negativity", "scan_to_csv", None),
    ("cli", "main", None),
)


class Tracer:
    """Records ``[id, name, start, end, parent, counts]`` spans in memory.

    Only calls made on the thread that created the tracer are recorded;
    a call from a worker thread runs through unrecorded, so that spans
    always nest.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._thread = threading.get_ident()
        self._patched = []

    def _wrap(self, name, fn, measure):
        """``name`` is a span name, or a function of the call's arguments giving one."""
        spans, stack, thread = self.spans, self._stack, self._thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != thread:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            span = [len(spans), label, time.perf_counter(), None, stack[-1][0] if stack else None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "stellarq" or k.startswith("stellarq.")]
        for layer, fname, measure in TARGETS:
            orig = getattr(sys.modules.get(f"stellarq.{layer}"), fname, None)
            if orig is None:
                continue
            name = _cli_span if (layer, fname) == ("cli", "main") else f"{layer}.{fname}"
            wrapper = self._wrap(name, orig, measure)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


def check_nesting(spans) -> list:
    """Messages for spans that are unfinished or lie outside their parent."""
    bad = []
    for sid, name, start, end, parent, _ in spans:
        if end is None:
            bad.append(f"span {sid} {name} never ended")
        elif parent is not None:
            p = spans[parent]
            if not (p[2] <= start and end <= p[3]):
                bad.append(f"span {sid} {name} is not inside its parent {p[1]}")
    return bad


def self_times(spans) -> list:
    """Per span: its duration minus the time its child spans cover."""
    own = [s[3] - s[2] for s in spans]
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans, interval_s: float, timed_s: float) -> dict:
    """Per-layer metrics from one traced worker's spans.

    ``interval_s`` is the traced stretch (planning plus timed section)
    that the spans fall in; ``timed_s`` is the traced timed section.
    """
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def total(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def count(name, key):
        return sum(s[5][key] for s in by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        layer_self[s[1].split(".", 1)[0]] += t
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = t
    top = sum(s[3] - s[2] for s in spans if s[4] is None)
    m["trace.wall_s"] = timed_s
    m["trace.interval_s"] = interval_s
    m["trace.unspanned_s"] = interval_s - top

    rows = count("fockspace.coherent_row", "rows")
    m["fockspace.coherent_row.s"] = total("fockspace.coherent_row")
    m["fockspace.coherent_row.rows"] = rows
    m["fockspace.coherent_row.mb_computed"] = count("fockspace.coherent_row", "cells") * 16 / 1e6
    m["fockspace.apply_gaussian.s"] = total("fockspace.apply_gaussian")
    m["fockspace.husimi_q.s"] = total("fockspace.husimi_q")
    m["fockspace.gaussian_matrix.s"] = total("fockspace.gaussian_matrix")
    m["fockspace.gaussian_matrix.calls"] = calls("fockspace.gaussian_matrix")

    n_drawn = count("dhd.sample_q", "n")
    proposals = count("dhd.sample_q", "proposals")
    m["dhd.sample_q.s"] = total("dhd.sample_q")
    m["dhd.samples_per_s"] = ratio(n_drawn, total("dhd.sample_q"))
    m["dhd.proposals"] = proposals
    m["dhd.acceptance"] = ratio(n_drawn, proposals)
    m["dhd.certify_envelope.s"] = total("dhd.certify_envelope")
    m["dhd.certify_envelope.calls"] = calls("dhd.certify_envelope")
    m["dhd.certify_envelope.calls_per_sample_q"] = ratio(
        calls("dhd.certify_envelope"), calls("dhd.sample_q")
    )
    csv_s = total("dhd.save_csv") + total("dhd.load_csv")
    csv_mb = (count("dhd.save_csv", "bytes") + count("dhd.load_csv", "bytes")) / 1e6
    m["dhd.save_csv.s"] = total("dhd.save_csv")
    m["dhd.load_csv.s"] = total("dhd.load_csv")
    m["dhd.csv_mb_per_s"] = ratio(csv_mb, csv_s)

    keys = [s[5]["key"] for s in by_name.get("estimator.kernel_range", ())]
    m["estimator.kernel_values.s"] = total("estimator.kernel_values")
    m["estimator.kernel_values.samples_per_s"] = ratio(
        count("estimator.kernel_values", "samples"), total("estimator.kernel_values")
    )
    m["estimator.kernel_range.s"] = total("estimator.kernel_range")
    m["estimator.kernel_range.calls"] = len(keys)
    m["estimator.kernel_range.repeat_calls"] = len(keys) - len(set(keys))
    m["estimator.kernel_range.calls_per_estimate"] = ratio(len(keys), calls("estimator.estimate"))
    m["estimator.optimize_params.s"] = total("estimator.optimize_params")
    m["estimator.estimate.self_s"] = sum(
        t for s, t in zip(spans, own) if s[1] == "estimator.estimate"
    )

    nfev = count("stellar.max_fidelity_rank_bounded", "nfev")
    restarts = count("stellar.max_fidelity_rank_bounded", "restarts")
    m["stellar.max_fidelity_rank_bounded.s"] = total("stellar.max_fidelity_rank_bounded")
    m["stellar.nfev"] = nfev
    m["stellar.us_per_nfev"] = ratio(1e6 * total("stellar.max_fidelity_rank_bounded"), nfev)
    m["stellar.restarts_converged_fraction"] = ratio(
        count("stellar.max_fidelity_rank_bounded", "converged"), restarts
    )
    m["stellar.restarts_at_best_fraction"] = ratio(
        count("stellar.max_fidelity_rank_bounded", "at_best"), restarts
    )
    m["stellar.rank_witness_verdict.s"] = total("stellar.rank_witness_verdict")
    m["stellar.fidelity_profile.calls"] = calls("stellar.fidelity_profile")
    m["stellar.fidelity_profile.calls_per_verdict"] = ratio(
        calls("stellar.fidelity_profile"), calls("stellar.rank_witness_verdict")
    )

    omega_ms = [1e3 * (s[3] - s[2]) for s in by_name.get("negativity.estimate_omega", ())]
    m["negativity.choose_witness_params.s"] = total("negativity.choose_witness_params")
    m["negativity.estimate_omega.s"] = total("negativity.estimate_omega")
    m["negativity.estimate_omega.p50_ms"] = float(np.percentile(omega_ms, 50)) if omega_ms else 0.0
    m["negativity.estimate_omega.p99_ms"] = float(np.percentile(omega_ms, 99)) if omega_ms else 0.0
    m["negativity.alphas_per_s"] = ratio(len(omega_ms), total("negativity.estimate_omega"))

    for sub in ("state", "sample", "estimate", "profile", "witness-scan"):
        m[f"cli.{sub}.s"] = total(f"cli.{sub}")

    return m


def check_accounting(m) -> list:
    """The layers' self times plus the unspanned rest make up the interval."""
    accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unspanned_s"]
    if math.isclose(accounted, m["trace.interval_s"], rel_tol=1e-9, abs_tol=1e-9):
        return []
    return [f"self times account for {accounted} s of {m['trace.interval_s']} s"]


# Every per-layer metric of a traced run, with its unit; the last two are
# filled in by run.py from the untraced repetition and the probe.
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.interval_s": "s",
    "trace.unspanned_s": "s",
    "fockspace.coherent_row.s": "s",
    "fockspace.coherent_row.rows": "count",
    "fockspace.coherent_row.mb_computed": "MB",
    "fockspace.apply_gaussian.s": "s",
    "fockspace.husimi_q.s": "s",
    "fockspace.gaussian_matrix.s": "s",
    "fockspace.gaussian_matrix.calls": "count",
    "dhd.sample_q.s": "s",
    "dhd.samples_per_s": "1/s",
    "dhd.proposals": "count",
    "dhd.acceptance": "1",
    "dhd.certify_envelope.s": "s",
    "dhd.certify_envelope.calls": "count",
    "dhd.certify_envelope.calls_per_sample_q": "1",
    "dhd.save_csv.s": "s",
    "dhd.load_csv.s": "s",
    "dhd.csv_mb_per_s": "MB/s",
    "estimator.kernel_values.s": "s",
    "estimator.kernel_values.samples_per_s": "1/s",
    "estimator.kernel_range.s": "s",
    "estimator.kernel_range.calls": "count",
    "estimator.kernel_range.repeat_calls": "count",
    "estimator.kernel_range.calls_per_estimate": "1",
    "estimator.optimize_params.s": "s",
    "estimator.estimate.self_s": "s",
    "stellar.max_fidelity_rank_bounded.s": "s",
    "stellar.nfev": "count",
    "stellar.us_per_nfev": "us",
    "stellar.restarts_converged_fraction": "1",
    "stellar.restarts_at_best_fraction": "1",
    "stellar.rank_witness_verdict.s": "s",
    "stellar.fidelity_profile.calls": "count",
    "stellar.fidelity_profile.calls_per_verdict": "1",
    "negativity.choose_witness_params.s": "s",
    "negativity.estimate_omega.s": "s",
    "negativity.estimate_omega.p50_ms": "ms",
    "negativity.estimate_omega.p99_ms": "ms",
    "negativity.alphas_per_s": "1/s",
    **{f"cli.{sub}.s": "s" for sub in ("state", "sample", "estimate", "profile", "witness-scan")},
    "trace.overhead_fraction": "1",
    "dhd.sample_q.speedup_2w": "x",
}

# Counts that must repeat exactly between two traced workers on the same
# inputs: the redundant work a memoizing change would remove.
REPEATABLE = (
    "estimator.kernel_range.calls",
    "estimator.kernel_range.repeat_calls",
    "estimator.kernel_range.calls_per_estimate",
    "dhd.certify_envelope.calls",
    "dhd.certify_envelope.calls_per_sample_q",
    "stellar.fidelity_profile.calls",
    "stellar.fidelity_profile.calls_per_verdict",
    "fockspace.gaussian_matrix.calls",
    "stellar.nfev",
    "dhd.proposals",
)
