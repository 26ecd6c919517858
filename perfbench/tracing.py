"""Spans and counters recorded around the public functions of mpfusion.

`instrument` replaces every public function of the traced modules with a
wrapper, both on the defining module and wherever another mpfusion module
bound the same object with `from ... import`.  Most functions get a span
(name, layer, start, end, parent, workload); functions called thousands of
times per round get counters instead, and the three performance-layer hot
functions also accumulate their wall time so it can be charged to the
enclosing span.  Spans stay in memory until `Tracer.export`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("scenario", "discrete", "quadratic", "performance", "optimizer",
          "pipeline")

# Called per slot, per edge per round, or per objective evaluation: a span
# each would cost more than the call.  Values: accumulate wall time or not.
COUNTED = {
    "scenario.step_activity": False,
    "discrete.s_transfer": False,
    "discrete.coefficient_from_coupling": False,
    "discrete.sumprod_step": False,
    "discrete.maxprod_step": False,
    "discrete.linear_step": False,
    "quadratic.local_quadratic": False,
    "quadratic.init_affine": False,
    "quadratic.affine_step": False,
    "quadratic.quad_from_affine": False,
    "performance.gfun": True,
    "performance.gfun_neighbors": True,
    "performance.solve_threshold": True,
    "performance.empirical_gfun": False,
}


def _columns(gamma) -> int:
    """Slots or probes in a (nodes,) or (nodes, columns) score array."""
    return gamma.shape[1] if getattr(gamma, "ndim", 1) > 1 else 1


def _work_run_messages(args):
    edges = len(args["top"].directed_edges())
    return {"algorithm": args["algorithm"],
            "edge_updates": edges * int(args["iterations"]) * _columns(args["gamma"])}


def _work_run_campaign(args):
    return {"node_slots": args["config"].node_count * int(args["slots"])}


def _work_quadratic_run(args):
    return {"probe_columns": _columns(args["gamma"])}


# Span attributes read from the call's arguments, for per-layer rates.
ATTRIBUTES = {
    "discrete.run_messages": _work_run_messages,
    "scenario.run_campaign": _work_run_campaign,
    "quadratic.run": _work_quadratic_run,
}

# Span attributes read from the call's result.
RESULTS = {
    "optimizer.optimize_p2": lambda sol: {"converged": bool(sol.converged)},
}


class Tracer:
    """In-memory spans and counters of one traced process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []              # [id, name, layer, start, end, parent, attrs]
        self.counters = {}           # name -> count
        self.timed = {}              # name -> seconds (outermost timed calls)
        self.charged = {}            # span id -> seconds of timed calls inside
        self._stack = []             # open span ids
        self._timed_depth = 0

    # -- recording ----------------------------------------------------------

    def span(self, name, layer, fn):
        from_args, from_result = ATTRIBUTES.get(name), RESULTS.get(name)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            attrs = None
            if from_args is not None:
                attrs = from_args(signature.bind(*args, **kwargs).arguments)
            record = [sid, name, layer, time.perf_counter(), None, parent, attrs]
            self.spans.append(record)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[4] = time.perf_counter()
            if from_result is not None:
                record[6] = from_result(result)
            return result
        return functools.wraps(fn)(wrapper)

    def counter(self, name, fn, timed):
        counters = self.counters
        counters.setdefault(name, 0)
        if not timed:
            def wrapper(*args, **kwargs):
                counters[name] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(wrapper)

        inner = name + ".in_timed"
        counters.setdefault(inner, 0)
        self.timed.setdefault(name, 0.0)

        def timed_wrapper(*args, **kwargs):
            counters[name] += 1
            if self._timed_depth:
                counters[inner] += 1
                return fn(*args, **kwargs)
            self._timed_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._timed_depth -= 1
                self.timed[name] += dt
                if self._stack:
                    sid = self._stack[-1]
                    self.charged[sid] = self.charged.get(sid, 0.0) + dt
        return functools.wraps(fn)(timed_wrapper)

    @contextlib.contextmanager
    def root(self, name):
        """A benchmark-level span (one workload round); yields its id."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, "bench", time.perf_counter(), None, parent, None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()

    def export(self) -> dict:
        return {
            "workload": self.workload,
            "span_fields": ["id", "name", "layer", "start", "end", "parent",
                            "attrs", "workload"],
            "spans": [s + [self.workload] for s in self.spans],
            "counters": dict(self.counters),
            "timed_s": dict(self.timed),
            "charged_s": {str(k): v for k, v in self.charged.items()},
        }


def instrument(tracer: Tracer, package) -> int:
    """Wrap the public functions of every traced module of `package`.

    Returns the number of functions wrapped.  Also counts construction of
    `performance.ConditionalStats` and calls of
    `optimizer.ComponentMoments.stats_for_row` (one per design-objective
    evaluation).
    """
    prefix = package.__name__ + "."
    modules = {name: sys.modules[prefix + name] for name in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            if name in COUNTED:
                wrapped = tracer.counter(name, obj, COUNTED[name])
            else:
                wrapped = tracer.span(name, layer, obj)
            replaced[id(obj)] = (obj, wrapped)

    # rebind in every module of the package, which covers `from x import f`
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package.__name__
                               or mod_name.startswith(prefix)):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    cls = modules["performance"].ConditionalStats
    cls.__post_init__ = tracer.counter("performance.conditional_stats_builds",
                                       cls.__post_init__, False)
    cm = modules["optimizer"].ComponentMoments
    cm.stats_for_row = tracer.counter("optimizer.objective_evals",
                                      cm.stats_for_row, False)
    return len(replaced)


# ---------------------------------------------------------------------------
# derived figures


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(trace: dict) -> dict:
    """Self time per layer: span durations minus direct child spans, with
    the timed hot calls charged to the performance layer."""
    spans = trace["spans"]
    child_time = {}
    for sid, _, _, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    charged = {int(k): v for k, v in trace["charged_s"].items()}
    out = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for sid, _, layer, start, end, *_ in spans:
        own = charged.get(sid, 0.0)
        out[layer] += (end - start) - child_time.get(sid, 0.0) - own
        out["performance"] += own
    return out


def layer_coverage(trace: dict, lo: float, hi: float) -> dict:
    """Share of [lo, hi] covered by the spans of each layer."""
    span = hi - lo
    by_layer = {layer: [] for layer in LAYERS}
    for _, _, layer, start, end, *_ in trace["spans"]:
        if layer in by_layer and end > lo and start < hi:
            by_layer[layer].append((max(start, lo), min(end, hi)))
    out = {layer: _union_length(iv) / span for layer, iv in by_layer.items()}
    every = [iv for ivs in by_layer.values() for iv in ivs]
    out["any"] = _union_length(every) / span
    return out
