"""One fresh-process repetition of a workload; run by run.py, not by hand.

    worker.py WORKLOAD SEED TRACE PROBE SPAWNED WORKDIR OUT

SEED is the repetition's seed, from which the program's own seeds are
derived; TRACE=1 records spans; PROBE=1 adds the two-worker sampling
probe (campaign only); SPAWNED is the parent's ``time.monotonic()`` just
before it started this process (the clock is system-wide), so ``setup_s``
covers interpreter start-up and imports.  The result is written to OUT
as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np


def main(argv) -> int:
    workload, seed, trace, probe, spawned, workdir, out = argv
    trace, probe, spawned = trace == "1", probe == "1", float(spawned)
    result = {"ops": {}, "failures": [], "outputs": {}}

    def fail(op, message):
        result["ops"][op] = False
        result["failures"].append(f"{op}: {message}")

    import tracer
    import workloads

    wl = workloads.WORKLOADS[workload](Path(workdir), np.random.SeedSequence(int(seed)).generate_state(4).tolist())
    ops = wl.OPS + ("trace",) * trace + ("sample_q_2w",) * probe
    result["ops"] = {op: True for op in ops}
    rec = tracer.Tracer() if trace else None
    try:
        if rec:
            rec.install()
        t_plan = time.monotonic()
        wl.setup()
        t_ready = time.monotonic()
        wl.run()
        t_end = time.monotonic()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if rec:
            rec.uninstall()
        result["setup_s"] = t_ready - spawned
        result["wall_s"] = t_end - t_ready
        wl.check(fail)
        result["outputs"] = wl.outputs
        if rec:
            for msg in tracer.check_nesting(rec.spans):
                fail("trace", msg)
            layers = tracer.layer_metrics(rec.spans, t_end - t_plan, t_end - t_ready)
            for msg in tracer.check_accounting(layers):
                fail("trace", msg)
            result["layers"] = layers
            (Path(workdir) / "spans.json").write_text(json.dumps(rec.spans))
        if probe:
            one = [s[3] - s[2] for s in rec.spans if s[1] == "dhd.sample_q" and s[4] is None]
            speedup, same = wl.probe_two_workers(one[-1])
            result["layers"]["dhd.sample_q.speedup_2w"] = speedup
            if not same:
                fail("sample_q_2w", "two-worker batch differs from the one-worker batch")
    except Exception:
        result["failures"].append(traceback.format_exc())
        result["ops"] = {op: False for op in result["ops"]}
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
