"""calibench benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
``src/calibench`` of that checkout.  With ``--trace 0`` the end-to-end metrics
are printed, with ``--trace 1`` the per-layer ones.  A line with the machine
and settings comes first; the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed / attempted`` is the failed share of the verify checks and, on a
traced run, of the comass searches.  See perfbench/README.md for the metrics
and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "calibench")
LEDGER = os.path.join(HERE, ".ledger.json")

sys.path.insert(0, HERE)
from workloads import COMASS_SEARCHES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# (name, unit); every name is printed on every workload, 0 where the
# workload never enters that code.
_FORMS = [f for f, _, _ in COMASS_SEARCHES]
PER_LAYER = (
    *[(f"{layer}.{m}", u) for layer in ("forms", "octonion", "clifford", "catalog", "grassmann", "cli")
      for m, u in (("calls", "count"), ("self_s", "s"))],
    ("forms.evaluate.calls", "count"),
    ("forms.evaluate.self_s", "s"),
    ("forms.evaluate.zero_share", "share"),
    ("forms.wedge.calls", "count"),
    ("forms.wedge.self_s", "s"),
    ("forms.wedge.term_pairs", "count"),
    ("forms.pullback.calls", "count"),
    ("forms.pullback.self_s", "s"),
    ("octonion.mul.calls", "count"),
    ("octonion.mul.self_s", "s"),
    ("clifford.endo_to_form.calls", "count"),
    ("clifford.endo_to_form.self_s", "s"),
    ("clifford.rep16.calls", "count"),
    ("clifford.rep16.self_s", "s"),
    *[(f"catalog.{fn}.{m}", u) for fn in ("build_phi", "build_cayley", "build_spinor_family", "catalog")
      for m, u in (("calls", "count"), ("self_s_per_call", "s"))],
    ("catalog.cache_hit_share", "share"),
    ("catalog.comass_setup_s", "s"),
    ("grassmann.comass_search.calls", "count"),
    ("grassmann.comass_search.restart_iters", "count"),
    *[(f"grassmann.comass_search.{f}.s", "s") for f in _FORMS],
    ("grassmann.comass_search.cayley_rot.gap", "1"),
    *[(f"grassmann.{k}.{f}.us", "us") for k in ("frame_value", "frame_gradient") for f in _FORMS],
    ("grassmann.federer_eval.self_s", "s"),
    ("grassmann.gen_calibrated.samples", "count"),
    ("grassmann.gen_calibrated.self_s", "s"),
    ("cli.run_suite.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "share"),
)
HIGHER_IS_BETTER = {"catalog.cache_hit_share"}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """Starts the child processes of one benchmark run, one at a time."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.started = _now()

    def child(self, mode):
        left = RUN_LIMIT_S - (_now() - self.started)
        spawned = _now()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), mode, self.workload,
             str(self.seed), repr(spawned)],
            cwd=ROOT, capture_output=True, text=True, timeout=max(left, 1.0),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["process_s"] = _now() - spawned
        return rec


def source_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def machine(args, source):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "child_cpu": max(os.sched_getaffinity(0)),
        "search_pool_threads": min(32, (os.cpu_count() or 1) + 4),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
        "source_sha256": source,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def ledger_agrees(key, value):
    """True unless an earlier run of the same source, workload and seed
    recorded a different value.  Records the value otherwise."""
    try:
        with open(LEDGER) as fh:
            book = json.load(fh)
    except (OSError, ValueError):
        book = {}
    if key in book:
        return book[key] == value
    book[key] = value
    with open(LEDGER, "w") as fh:
        json.dump(book, fh, indent=1, sort_keys=True)
    return True


def check(calls, kern, workload, seed, source):
    """(correct, attempted, failed) over the children that ran the verify
    call and, on a traced run, the kernel child's comass searches.  Each
    digest must agree between children and with the ledger."""
    runs = calls + ([kern] if kern else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    digest = calls[0]["digest"]
    repeat = all(r["digest"] == digest for r in calls)
    repeat = ledger_agrees(f"{source}:{workload}:{seed}", digest) and repeat
    if kern:
        repeat = ledger_agrees(f"{source}:comass:{seed}", kern["digest"]) and repeat
    return failed == 0 and repeat, attempted, failed


def end_to_end(run, seconds):
    """Repeat the timed call in fresh processes for `seconds`, then top up
    the set-up samples with set-up-only processes."""
    calls = []
    while True:
        calls.append(run.child("measure"))
        spent = _now() - run.started
        if spent + statistics.median(r["process_s"] for r in calls) > seconds:
            break
    setups = [r["setup_s"] for r in calls]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.child("setup")["setup_s"])
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in calls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in calls),
    }
    detail = {"calls": len(calls), "wall_s": [r["wall_s"] for r in calls],
              "cpu_s": [r["cpu_s"] for r in calls], "setup_s": setups}
    return calls, metrics, detail


def per_layer(run):
    """One untraced call, one traced call and the kernel child."""
    plain = run.child("measure")
    traced = run.child("trace")
    kern = run.child("kernels")
    summary, counters = traced["summary"], traced["counters"]

    def row(name, field):
        return summary.get(name, {}).get(field, 0)

    def share(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            metrics[name] = row(base, field)
        elif field == "self_s_per_call":
            metrics[name] = share(row(base, "self_s"), row(base, "calls"))
        elif name in counters:
            metrics[name] = counters[name]
        elif name in kern:
            metrics[name] = kern[name]
        else:
            metrics[name] = 0
    metrics["forms.evaluate.zero_share"] = share(
        counters.get("forms.evaluate.zero", 0), row("forms.evaluate", "calls"))
    metrics["catalog.cache_hit_share"] = share(traced["cache_hits"], traced["cache_calls"])
    metrics["grassmann.comass_search.cayley_rot.gap"] = kern["comass_gap"]
    metrics["trace.spans"] = traced["spans"]
    metrics["trace.overhead_share"] = traced["wall_s"] / plain["wall_s"] - 1.0
    detail = {"wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
    return [plain, traced], kern, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        print(f"no calibench sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    source = source_digest()
    run = Run(args.workload, args.seed)
    if args.trace:
        calls, kern, metrics, detail = per_layer(run)
        units = dict(PER_LAYER)
    else:
        (calls, metrics, detail), kern = end_to_end(run, args.seconds), None
        units = dict(END_TO_END)
    correct, attempted, failed = check(calls, kern, args.workload, args.seed, source)

    print(json.dumps({"machine": machine(args, source), "samples": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
