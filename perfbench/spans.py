"""Spans around calibench's public functions, installed from outside.

``Tracer.install`` wraps every public function of the six layer modules and
``Octonion.__mul__``, and rebinds each wrapped name in every calibench module
that imported it by name (``grassmann`` calls ``evaluate`` and ``wedge``
through its own globals, so wrapping ``forms.evaluate`` alone would miss
them).  Spans stay in memory as ``Span`` records; each thread keeps its own
stack, because ``comass_search`` runs its restarts on a thread pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("forms", "octonion", "clifford", "catalog", "grassmann", "cli")

# Bit helpers that run inside every wedge and evaluate term (one numeric
# suite makes ~4M mask_indices calls); a span each would cost more than the
# helpers do.  Their time is self time of the calling span.
UNTRACED = frozenset({
    "forms.blade_mask",
    "forms.mask_indices",
    "forms.reorder_sign",
    "forms.perm_sign",
})


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


def _wedge_counts(args, kwargs, result, dt):
    return {"forms.wedge.term_pairs": len(args[0]) * len(args[1])}


def _evaluate_counts(args, kwargs, result, dt):
    return {"forms.evaluate.zero": int(result == 0.0)}


def _search_counts(args, kwargs, result, dt):
    return {"grassmann.comass_search.restart_iters": result.restarts * result.iters}


def _gen_counts(args, kwargs, result, dt):
    return {"grassmann.gen_calibrated.samples": len(result)}


# Counters kept beside the spans, taken from each call's arguments or result.
COUNTERS = {
    "forms.wedge": _wedge_counts,
    "forms.evaluate": _evaluate_counts,
    "grassmann.comass_search": _search_counts,
    "grassmann.gen_calibrated": _gen_counts,
}


def _traceable(mod, name, obj):
    if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
        return False
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


class Tracer:
    """Collects spans and counters for one run id."""

    def __init__(self, run_id=0, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self.counters = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.run_id))
            if count is not None:
                with self._lock:
                    self.counters.update(count(args, kwargs, result, end - start))
            return result

        return traced

    def install(self):
        """Wrap the layer modules' public functions and Octonion.__mul__."""
        layer_modules = [importlib.import_module(f"calibench.{layer}") for layer in LAYERS]
        package, octonion = sys.modules["calibench"], layer_modules[1]
        wrapped = {}
        for layer, mod in zip(LAYERS, layer_modules):
            for name, obj in vars(mod).items():
                key = f"{layer}.{name}"
                if key not in UNTRACED and _traceable(mod, name, obj):
                    wrapped[id(obj)] = (obj, self.wrap(key, obj))
        for mod in [package, *layer_modules]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._restore.append((mod, name, obj))
        mul = octonion.Octonion.__mul__
        octonion.Octonion.__mul__ = self.wrap("octonion.mul", mul)
        self._restore.append((octonion.Octonion, "__mul__", mul))

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()


def self_times(spans):
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.span_id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.span_id] = (s.end - s.start) - covered
    return out


def summarize(spans):
    """Name -> {"calls", "self_s"}, plus one row per layer (the name's first
    dotted part)."""
    selfs = self_times(spans)
    rows = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for s in spans:
        for key in {s.name, s.name.split(".", 1)[0]}:
            rows[key]["calls"] += 1
            rows[key]["self_s"] += selfs[s.span_id]
    return dict(rows)
