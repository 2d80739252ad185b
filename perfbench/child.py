"""One fresh calibench process of the benchmark; prints one JSON record.

    python3 perfbench/child.py MODE WORKLOAD SEED SPAWNED

MODE is ``setup`` (set up only), ``measure`` (set up, then the timed verify
call), ``trace`` (the same with spans installed) or ``kernels`` (the search
layer: set-up of ``calibench comass``, per-frame kernel timings and the
comass searches; WORKLOAD is ignored).  SPAWNED is the CLOCK_MONOTONIC
reading taken by the parent just before it started this process, so set-up
times include interpreter start-up.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

FRAME_BATCH = 100
FRAME_PASSES = 3

# Every child runs on one CPU.  On a shared 2-vCPU host the search's thread
# pool gains no wall time over one CPU, while unpinned wall time swings with
# how much of the second vCPU other tenants leave free.
CPU = max(os.sched_getaffinity(0))


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _frame_us(fn, form, frames):
    passes = []
    for _ in range(FRAME_PASSES):
        t0 = time.perf_counter()
        for M in frames:
            fn(form, M)
        passes.append((time.perf_counter() - t0) / len(frames) * 1e6)
    return statistics.median(passes)


def kernels(seed, spawned):
    """The search layer, untraced: set-up of ``calibench comass``, per-frame
    value and gradient timings on a seeded batch of orthonormal frames, and
    the comass searches, each timed."""
    import numpy as np

    from calibench import grassmann

    state = workloads.comass_setup(seed)
    rec = {"catalog.comass_setup_s": _now() - spawned}
    for i, (name, _, _) in enumerate(workloads.COMASS_SEARCHES):
        if isinstance(state[name], workloads.SetupError):
            continue
        form, _ = state[name]
        rng = np.random.default_rng([seed, 100 + i])
        frames = [np.linalg.qr(rng.standard_normal((form.n, form.grade())))[0]
                  for _ in range(FRAME_BATCH)]
        rec[f"grassmann.frame_value.{name}.us"] = _frame_us(grassmann.frame_value, form, frames)
        rec[f"grassmann.frame_gradient.{name}.us"] = _frame_us(grassmann.frame_gradient, form, frames)
    out, seconds = workloads.comass_searches(state, seed)
    rec.update(asdict(out))
    rec.update({f"grassmann.comass_search.{name}.s": t for name, t in seconds.items()})
    return rec


def main(argv):
    mode, workload, seed, spawned = argv[0], argv[1], int(argv[2]), float(argv[3])
    os.sched_setaffinity(0, {CPU})
    if mode == "kernels":
        print(json.dumps(kernels(seed, spawned)))
        return 0
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import calibench.cli  # noqa: F401 - set-up is the CLI's import

    rec = {"setup_s": _now() - spawned}
    if mode != "setup":
        t0, c0 = time.perf_counter(), time.process_time()
        out = workloads.verify(workload, seed)
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = time.process_time() - c0
        rec.update(asdict(out))
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        from calibench import catalog
        from spans import summarize

        caches = [catalog.catalog.cache_info(), catalog.build_spinor_family.cache_info()]
        rec["spans"] = len(tracer.spans)
        rec["summary"] = summarize(tracer.spans)
        rec["counters"] = dict(tracer.counters)
        rec["cache_hits"] = sum(c.hits for c in caches)
        rec["cache_calls"] = sum(c.hits + c.misses for c in caches)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
