"""Tests of the benchmark's own bookkeeping.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import run
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _ticks():
    """A clock that advances by one on every reading."""
    state = {"t": 0}
    lock = threading.Lock()

    def clock():
        with lock:
            state["t"] += 1
            return float(state["t"])

    return clock


def test_self_time_subtracts_children_and_not_grandchildren():
    recs = [
        spans.Span(0, "x.a", 0.0, 10.0, None, 0),
        spans.Span(1, "x.b", 1.0, 4.0, 0, 0),
        spans.Span(2, "x.b", 5.0, 7.0, 0, 0),
        spans.Span(3, "y.c", 5.5, 6.0, 2, 0),
    ]
    assert spans.self_times(recs) == {0: 5.0, 1: 3.0, 2: 1.5, 3: 0.5}
    summary = spans.summarize(recs)
    assert summary["x.b"] == {"calls": 2, "self_s": 4.5}
    assert summary["x"] == {"calls": 3, "self_s": 9.5}
    assert summary["y"] == {"calls": 1, "self_s": 0.5}


def test_self_time_counts_overlapping_children_once():
    recs = [
        spans.Span(0, "x.a", 0.0, 10.0, None, 0),
        spans.Span(1, "x.b", 2.0, 6.0, 0, 0),
        spans.Span(2, "x.b", 4.0, 8.0, 0, 0),
    ]
    assert spans.self_times(recs)[0] == 4.0


def test_wrapped_calls_nest_with_their_callers():
    tracer = spans.Tracer(run_id=7, clock=_ticks())
    inner = tracer.wrap("x.inner", lambda v: v + 1)
    outer = tracer.wrap("x.outer", lambda v: inner(v) * 2)
    assert outer(1) == 4
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["x.inner"].parent == by_name["x.outer"].span_id
    assert by_name["x.outer"].parent is None
    assert {s.run_id for s in tracer.spans} == {7}
    # outer reads the clock at 1 and 4, inner at 2 and 3
    assert spans.summarize(tracer.spans)["x.outer"]["self_s"] == 2.0


def test_each_thread_keeps_its_own_stack():
    tracer = spans.Tracer()
    leaf = tracer.wrap("x.leaf", lambda v: time.sleep(0.001) or v)

    def fan_out(n):
        with ThreadPoolExecutor(4) as pool:
            return sum(pool.map(leaf, range(n)))

    assert tracer.wrap("x.root", fan_out)(16) == sum(range(16))
    leaves = [s for s in tracer.spans if s.name == "x.leaf"]
    assert len(leaves) == 16 and all(s.parent is None for s in leaves)


def test_install_rebinds_names_imported_by_other_modules():
    from calibench import forms, grassmann, octonion

    original = forms.evaluate
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert grassmann.evaluate is forms.evaluate is not original
        f = forms.RealForm(4, {(1, 2): 1})
        assert grassmann.frame_value(f, np.eye(4)[:, :2]) == 1.0
        octonion.Octonion.basis(1) * octonion.Octonion.basis(2)
    finally:
        tracer.uninstall()
    assert grassmann.evaluate is forms.evaluate is original
    names = {s.name: s for s in tracer.spans}
    assert names["forms.evaluate"].parent == names["grassmann.frame_value"].span_id
    assert "octonion.mul" in names
    assert not spans.UNTRACED & names.keys()


@pytest.mark.parametrize("seed", range(5))
def test_seeded_rotation_is_exactly_orthogonal(seed):
    Q = workloads.seeded_rotation(seed)
    n = len(Q)
    assert all(isinstance(x, Fraction) for row in Q for x in row)
    for i in range(n):
        for j in range(n):
            assert sum(Q[t][i] * Q[t][j] for t in range(n)) == int(i == j)
    assert workloads.seeded_rotation(seed) == Q
    form = workloads.rotated_cayley(seed)
    assert max(abs(c) for c in form.terms().values()) < 1


def test_orthogonality_check_rejects_a_perturbed_matrix():
    Q = workloads.seeded_rotation(0)
    Q[0][0] += Fraction(1, 10**12)
    assert not workloads.is_exactly_orthogonal(Q)


def test_ledger_flags_a_changed_value(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "LEDGER", str(tmp_path / "ledger.json"))
    assert run.ledger_agrees("k", "d")
    assert run.ledger_agrees("k", "d")
    assert not run.ledger_agrees("k", "e")
    assert run.ledger_agrees("other", "e")


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["per_layer"]:
        assert m["better"] == ("higher" if m["name"] in run.HIGHER_IS_BETTER else "lower")
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".ledger.json"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "comass", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced_counts(workload, seed):
    procs = [
        subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), "trace", workload, str(seed),
             repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    out = []
    for p in procs:
        stdout, _ = p.communicate(timeout=300)
        assert p.returncode == 0
        rec = json.loads(stdout.strip().splitlines()[-1])
        counts = {name: row["calls"] for name, row in rec["summary"].items()}
        counts.update({k: v for k, v in rec["counters"].items() if not k.endswith(".s")})
        out.append((counts, rec["spans"], rec["digest"]))
    return out


def test_traced_counts_repeat_exactly_across_runs():
    first, second = _traced_counts("verify_numeric", 0)
    assert first == second
    counts = first[0]
    assert counts["forms.evaluate"] > 10_000
    assert counts["grassmann.federer_eval"] == 1
