"""Per-layer span tracing of the vschro modules, installed from outside.

Every function named in a module's __all__ is wrapped, and the wrapper is
bound in every vschro module that holds the original: `from x import f`
copies the binding, so patching only the defining module would miss most
calls.  The check registry `cli.CHECKS` is wrapped entry by entry as
`verify.check.<name>`.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict

LAYERS = ("mesh", "fields", "operators", "evolve", "spectral", "problems", "verify", "cli")

# Exact work counts read off a wrapped call: span name -> (count, fn(result)).
COUNTERS = {
    "evolve.pcg": ("iters", lambda result: result[1]),
    "evolve.trotter_evolve": ("steps", lambda result: len(result.times) - 1),
    "fields.matrix_exp": ("cells", lambda result: result.shape[0]),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job id]
        self.counts = defaultdict(int)
        self.job = None
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter:
                self.counts[f"{name}.{counter[0]}"] += counter[1](result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper


def install(tracer: Tracer) -> set:
    """Wrap the public functions of every layer; returns the span names."""
    modules = {layer: importlib.import_module(f"vschro.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                wrappers[fn] = (f"{layer}.{attr}", tracer.wrap(f"{layer}.{attr}", fn))
    for ns in (importlib.import_module("vschro"), *modules.values()):
        for attr, value in list(vars(ns).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(ns, attr, wrappers[value][1])
    names = {name for name, _ in wrappers.values()}
    checks = getattr(modules["cli"], "CHECKS", {})
    for check, fn in list(checks.items()):
        checks[check] = tracer.wrap(f"verify.check.{check}", fn)
        names.add(f"verify.check.{check}")
    return names


def aggregate(tracer: Tracer, wall_s: float) -> dict:
    """Flat per-layer values from the spans of one traced pass.

    `<span>.s` sums the durations of spans with no same-named ancestor,
    `<span>.self_s` is duration minus the time direct child spans cover
    (children run one after another, so that is the sum of their durations).
    Job spans (`job.<id>`) are the top level; their self time and the gap to
    the pass wall time are the benchmark's own share.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    out = defaultdict(int)
    layer_self = defaultdict(float)
    min_self, toplevel = float("inf"), 0.0
    for i, (name, start, end, parent, job) in enumerate(spans):
        dur = end - start
        self_s = dur - child_s[i]
        min_self = min(min_self, self_s)
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        p, nested = parent, False
        while p is not None and not nested:
            nested = spans[p][0] == name
            p = spans[p][3]
        if not nested:
            out[f"{name}.s"] += dur
        if parent is None:
            toplevel += dur
        layer = name.split(".")[0]
        layer_self[layer if layer in LAYERS else "bench"] += self_s
        if name.startswith("job.verify."):
            out[f"cli.{name[4:]}.s"] += dur
        if name == "evolve.pcg" and job.startswith("verify."):
            out[f"cli.{job}.pcg_calls"] += 1
    out.update(tracer.counts)
    gap = wall_s - toplevel
    layer_self["bench"] += gap
    for layer in (*LAYERS, "bench"):
        out[f"layer.{layer}.share"] = layer_self[layer] / wall_s
    out["trace.wall_s"] = wall_s
    out["trace.toplevel_gap_s"] = gap
    out["trace.min_self_s"] = min_self if spans else 0.0
    out["trace.spans"] = len(spans)
    return dict(out)
