"""Span tracing at the boundaries of the peocalc layers.

``install`` rebinds every public function of each layer module, in every
``peocalc`` namespace that holds it, to a wrapper that records a span:
name, start, end and parent.  Spans stay in memory until ``write`` and
are recorded only while ``active`` is set, which the worker sets around
each timed operation.  Self time is a span's duration minus the time of
its child spans (and minus the time spent measuring a returned object).

A call counts towards ``<layer>.calls`` when its parent span belongs to
another layer or to the benchmark itself, so calls inside one layer are
not counted twice.  Result measures (series terms, monomials, iterates)
are taken from those boundary calls for the same reason.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("gammafn", "special", "umbral", "series", "weyl", "solvers", "volterra", "verify", "cli")


def _special_terms(r):
    t = getattr(r, "terms", None)
    return t if isinstance(t, int) else 0


def _weyl_monomials(r):
    from peocalc.weyl import GradedOpSeries, WeylElement

    if isinstance(r, WeylElement):
        return len(r.coeffs)
    if isinstance(r, GradedOpSeries):
        return r.monomial_count()
    if isinstance(r, dict):
        return sum(len(v.coeffs) for v in r.values() if isinstance(v, WeylElement))
    return 0


def _series_terms(r):
    from peocalc.series import FracSeries

    return len(r.terms) if isinstance(r, FracSeries) else 0


def _volterra_iterates(r):
    from peocalc.volterra import MatrixSeries, VNState

    if isinstance(r, VNState):
        return len(r.iterates) - 1
    if isinstance(r, MatrixSeries):
        return len({float(e) for row in r.grid for s in row for e, _ in s.terms})
    return 0


# layer -> (counter name, measure of a returned object)
MEASURES = {
    "special": ("terms", _special_terms),
    "weyl": ("monomials", _weyl_monomials),
    "series": ("terms", _series_terms),
    "volterra": ("iterates", _volterra_iterates),
}
COUNTED_CALLS = {"weyl.weyl_mul": ("weyl", "mul_calls")}


class Recorder:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.spans: list[list[int]] = []  # [name id, parent index, start ns, end ns]
        self.child_ns: list[int] = []
        self.stack: list[int] = [-1]
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.counters: dict[str, int] = {}
        for layer, (name, _) in MEASURES.items():
            self.counters[f"{layer}.{name}"] = 0
        for layer, name in COUNTED_CALLS.values():
            self.counters[f"{layer}.{name}"] = 0

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        name_id = len(self.names)
        self.names.append(name)
        layer_id = LAYERS.index(layer)
        self.layer_of.append(layer_id)
        measure = MEASURES.get(layer)
        counted = COUNTED_CALLS.get(name)
        rec = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            parent = rec.stack[-1]
            boundary = parent < 0 or rec.layer_of[rec.spans[parent][0]] != layer_id
            idx = len(rec.spans)
            span = [name_id, parent, 0, 0]
            rec.spans.append(span)
            rec.child_ns.append(0)
            rec.stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                rec.stack.pop()
                dur = span[3] - span[2]
                rec.self_ns[layer] += dur - rec.child_ns[idx]
                if parent >= 0:
                    rec.child_ns[parent] += dur
            if counted:
                rec.counters[f"{counted[0]}.{counted[1]}"] += 1
            if boundary:
                rec.calls[layer] += 1
                if measure:
                    m0 = clock()
                    rec.counters[f"{layer}.{measure[0]}"] += measure[1](result)
                    if parent >= 0:
                        rec.child_ns[parent] += clock() - m0
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every public layer function in every peocalc namespace."""
        modules = [m for n, m in sys.modules.items() if (n == "peocalc" or n.startswith("peocalc.")) and m]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"peocalc.{layer}"]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped[id(fn)] = (fn, self._wrap(layer, fn))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])

    def metrics(self, n_ops: int, speed_factor: float) -> dict[str, float]:
        """Per-operation averages; self times multiplied by speed_factor."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / n_ops
            out[f"{layer}.self_ms"] = self.self_ns[layer] * speed_factor / 1e6 / n_ops
        for key, total in self.counters.items():
            out[key] = total / n_ops
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: name, parent index, start and end in ns."""
        with open(path, "w") as fh:
            for name_id, parent, start, end in self.spans:
                fh.write(json.dumps([self.names[name_id], parent, start, end]) + "\n")
