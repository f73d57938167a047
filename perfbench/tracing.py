"""Span tracing for one benchmark child, installed from outside the package.

`install` wraps the public functions of the timed `mui` modules and a few
hot methods, so that every call records a span (name, start, end, parent).
Spans stay in flat arrays until the run ends; `summarize` then turns them
into per-layer counts and self times, and `save` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

# The layers of the package.  `field` and `cli` are left out: no workload
# spends measurable time in them, and `field.binomial_mod` is called so often
# from `power_op` that wrapping it would distort the layer it serves.
LAYERS = ("algebra", "linalg", "steenrod", "invariants", "essential", "verify")

# Per-term helpers of `algebra`: they run once per monomial of every element,
# so a span around each would cost more than the work it measures.
UNWRAPPED = {"algebra.monomial_degree", "algebra.term_key"}

# (span name, module, class, method) for the methods patched on their class.
METHODS = (
    ("algebra.mul", "algebra", "Element", "__mul__"),
    ("algebra.add", "algebra", "Element", "__add__"),
    ("algebra.exact_divide", "algebra", "Element", "exact_divide"),
    ("linalg.coords", "linalg", "DegreeBasis", "coords"),
    ("linalg.span_insert", "linalg", "SpanBuilder", "insert"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _claim_span(args, kwargs):
    return "verify.claim." + _arg(args, kwargs, 0, "claim_id").replace(":", "-")


def _config_span(args, kwargs):
    ring = _arg(args, kwargs, 0, "ring")
    return f"verify.config.{ring.p}-{ring.n}-{_arg(args, kwargs, 1, 'max_degree')}"


# Spans whose name depends on the arguments (one name per claim or config).
SPAN_NAMERS = {"verify.run_claim": _claim_span, "verify.run_all": _config_span}


class Tracer:
    """Flat, append-only span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, span: str, fn, observe=None):
        """A wrapper recording one span per call of fn; observe(args, kwargs,
        result) updates counters after a call that returned."""
        namer = SPAN_NAMERS.get(span)
        fixed = self.name_id(span)
        name_id = self.name_id
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if namer is None else name_id(namer(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_rref(self, args, kwargs, result):
        shape = getattr(_arg(args, kwargs, 0, "mat"), "shape", (0, 0))
        cells = shape[0] * shape[1] if len(shape) == 2 else 0
        self.counters["linalg.rref.cells"] += cells
        self.counters["linalg.rref.max_cells"] = max(
            self.counters["linalg.rref.max_cells"], cells
        )

    def _observe_insert(self, args, kwargs, result):
        self.counters["linalg.span_insert.accepted"] += bool(result)

    def summarize(self) -> dict[str, float]:
        """Per span name: calls, self_s (duration minus child spans) and
        total_s (duration); plus the counters."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        self_s = np.bincount(name, weights=dur - child, minlength=width)
        total_s = np.bincount(name, weights=dur, minlength=width)
        stats: dict[str, float] = {}
        for nid, span in enumerate(self.names):
            stats[span + ".calls"] = int(calls[nid])
            stats[span + ".self_s"] = float(self_s[nid])
            stats[span + ".total_s"] = float(total_s[nid])
        inserts = stats.get("linalg.span_insert.calls", 0)
        accepted = self.counters.get("linalg.span_insert.accepted", 0)
        stats["linalg.span_insert.accept_ratio"] = accepted / inserts if inserts else 0.0
        stats.update(self.counters)
        return stats

    def save(self, path: str) -> None:
        """Write the spans as arrays: names[name[i]], start[i], end[i] and
        parent[i] (the index of the enclosing span, -1 at top level)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _is_public_function(obj, module_name: str) -> bool:
    wrapped = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
    return wrapped and getattr(obj, "__module__", None) == module_name


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules, rebinding the name in
    every `mui` namespace that holds it, and patch METHODS on their classes.
    An lru_cache function is wrapped outside its cache, so hits count as
    calls."""
    package = importlib.import_module("mui")
    namespaces = [package] + [
        mod for name, mod in sys.modules.items() if name.startswith("mui.")
    ]
    observers = {
        "linalg.rref": tracer._observe_rref,
        "linalg.span_insert": tracer._observe_insert,
    }
    for layer in LAYERS:
        module = importlib.import_module(f"mui.{layer}")
        for attr, obj in list(vars(module).items()):
            span = f"{layer}.{attr}"
            if attr.startswith("_") or span in UNWRAPPED:
                continue
            if not _is_public_function(obj, module.__name__):
                continue
            traced = tracer.wrap(span, obj, observers.get(span))
            for ns in namespaces:
                for key in [k for k, v in vars(ns).items() if v is obj]:
                    setattr(ns, key, traced)
    for span, layer, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(f"mui.{layer}"), cls_name)
        setattr(cls, method, tracer.wrap(span, getattr(cls, method), observers.get(span)))
