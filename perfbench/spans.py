"""In-memory spans around perch's public functions, for the traced run.

A Tracer keeps a list of spans (name, start, end, parent, attrs) and a
stack of the open ones.  `instrument` replaces the module and class
attributes listed in WRAPPED with wrappers that open a span around each
call, for the lifetime of a `with` block and in this process only; the
originals are restored on exit.  Nothing is written until the caller
asks for it at the end of the run.
"""

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent)
        sp.attrs.update(attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def children(self):
        out = [[] for _ in self.spans]
        for i, sp in enumerate(self.spans):
            if sp.parent is not None:
                out[sp.parent].append(i)
        return out

    def self_times(self):
        """Span duration minus the time its child spans cover."""
        kids = self.children()
        return [sp.duration - sum(self.spans[j].duration for j in kids[i])
                for i, sp in enumerate(self.spans)]

    def ancestors(self, i):
        p = self.spans[i].parent
        while p is not None:
            yield p
            p = self.spans[p].parent

    def dump(self, path):
        """Write every span and the self time per span name as JSON."""
        selft = self.self_times()
        per_name = {}
        for sp, st in zip(self.spans, selft):
            row = per_name.setdefault(sp.name, {"calls": 0, "total_s": 0.0,
                                                "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += sp.duration
            row["self_s"] += st
        t0 = self.spans[0].start if self.spans else 0.0
        doc = {"self_time_by_name": per_name,
               "spans": [{"name": sp.name, "start": sp.start - t0,
                          "end": sp.end - t0, "parent": sp.parent,
                          "attrs": sp.attrs} for sp in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh, default=str)


# ---------------------------------------------------------------- wrappers


def _nk(ks):
    return int(np.size(ks))


def _integrate_attrs(args, kw, out):
    return {"k": _nk(args[2]), "steps": int(args[3])}


def _ab_attrs(args, kw, out):
    return {"requested": _nk(args[1])}


def _panel_attrs(args, kw, out):
    return {"panels": len(out.panels), "nodes": int(out.n)}


def _matrix_attrs(args, kw, out):
    return {"bytes": int(out.nbytes)}


# (module, owner attribute or None, function attribute, span name, attrs)
WRAPPED = [
    ("perch.initial", None, "compute_momentum", "initial.compute_momentum", None),
    ("perch.scattering", None, "integrate_transfer",
     "scattering.integrate_transfer", _integrate_attrs),
    ("perch.scattering", "ScatteringData", "ab", "scattering.ab", _ab_attrs),
    ("perch.scattering", "ScatteringData", "ab_coarse",
     "scattering.ab_coarse", _ab_attrs),
    ("perch.scattering", "ScatteringData", "bstar_zeros",
     "scattering.bstar_zeros", None),
    ("perch.branch", None, "locate_branch_points",
     "branch.locate_branch_points", None),
    ("perch.branch", "SheetedR", "__init__", "branch.SheetedR", None),
    ("perch.branch", "TraceFunction", "axis_slope", "branch.axis_slope", None),
    ("perch.assembly", None, "build_master_contour",
     "contour.build_master_contour", None),
    ("perch.assembly", None, "panelize", "contour.panelize", _panel_attrs),
    ("perch.contour", None, "build_panels", "contour.build_panels", None),
    ("perch.assembly", "JumpSpec", "jump_stack", "assembly.jump_stack", None),
    ("perch.assembly", None, "check_jumps", "assembly.check_jumps", None),
    ("perch.cauchy", "CauchyOperator", "__init__",
     "cauchy.CauchyOperator", None),
    ("perch.cauchy", "CauchyOperator", "boundary_matrix",
     "cauchy.boundary_matrix", _matrix_attrs),
]


def _wrap(tracer, name, fn, attrs_fn):
    @functools.wraps(fn)
    def inner(*args, **kw):
        with tracer.span(name) as sp:
            out = fn(*args, **kw)
        if attrs_fn is not None:
            sp.attrs.update(attrs_fn(args, kw, out))
        return out
    return inner


@contextmanager
def instrument(tracer):
    """Route the WRAPPED functions through tracer spans inside the block.

    A module-level function is replaced in every perch module that holds
    it, since `from .contour import build_panels` binds its own name.
    """
    saved = []
    try:
        for modname, owner, attr, name, attrs_fn in WRAPPED:
            mod = sys.modules[modname]
            if owner is not None:
                cls = getattr(mod, owner)
                fn = cls.__dict__[attr]
                saved.append((cls, attr, fn))
                setattr(cls, attr, _wrap(tracer, name, fn, attrs_fn))
                continue
            fn = getattr(mod, attr)
            wrapped = _wrap(tracer, name, fn, attrs_fn)
            for other in [m for k, m in sys.modules.items()
                          if k == "perch" or k.startswith("perch.")]:
                if getattr(other, attr, None) is fn:
                    saved.append((other, attr, fn))
                    setattr(other, attr, wrapped)
        yield tracer
    finally:
        for holder, attr, fn in reversed(saved):
            setattr(holder, attr, fn)


# ---------------------------------------------------------------- metrics


# per-layer metrics: name -> unit; the README ties each to the
# end-to-end metric it should move
PER_LAYER = {
    "initial.momentum_s": "s",
    "scattering.integrate_s": "s",
    "scattering.integrate_calls": "count",
    "scattering.integrate_k": "count",
    "scattering.stepk": "count",
    "scattering.batch_median_k": "count",
    "scattering.ab_hit_ratio": "ratio",
    "scattering.coarse_k": "count",
    "scattering.bstar_zeros_s": "s",
    "branch.locate_s": "s",
    "branch.sheet_s": "s",
    "branch.axis_slope_calls": "count",
    "branch.axis_slope_s": "s",
    "contour.build_s": "s",
    "contour.panels": "count",
    "contour.nodes": "count",
    "assembly.jumps_cold_s": "s",
    "assembly.jump_stack_calls": "count",
    "assembly.check_s": "s",
    "assembly.jumps_warm_s": "s",
    "cauchy.boundary_matrix_s": "s",
    "cauchy.matrix_mb": "MB",
    "tracing.overhead_s": "s",
}

# metrics that read the one-off Riemann-Hilbert build of sweep's set-up,
# where that workload runs these layers, instead of its timed rounds
BUILD_METRICS = ("branch.", "contour.", "assembly.jumps_cold_s")


def span_cost(calls=5000, repeats=5):
    """Seconds one traced call adds: a wrapped no-op against a bare one.

    The wrapped no-op carries the attribute hook of ScatteringData.ab,
    the call traced most often, on a 12-k batch.
    """
    def noop(*args):
        return None

    wrapped = _wrap(Tracer(), "noop", noop, _ab_attrs)
    ks = np.zeros(12, dtype=complex)

    def per_call(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(None, ks)
            times.append((time.perf_counter() - t0) / calls)
        return statistics.median(times)

    return per_call(wrapped) - per_call(noop)


def layer_metrics(tracer, workload, jump_sets_per_round):
    """Per-layer metrics from the spans of a traced run.

    Spans under a "setup" span are one light set-up each; spans under
    "build" are sweep's Riemann-Hilbert build; spans under "round" are
    the timed part.  Values are per set-up, per build or per round.
    The tracing overhead is the spans of a round times span_cost().
    """
    spans = tracer.spans
    top = {}
    for i in range(len(spans)):
        root = i
        for p in tracer.ancestors(i):
            root = p
        top[i] = spans[root].name
    n_of = {ph: sum(1 for sp in spans if sp.parent is None and sp.name == ph)
            for ph in ("setup", "build", "round")}
    kids = tracer.children()

    def under(i, name):
        return any(spans[p].name == name for p in tracer.ancestors(i))

    def pick(metric, name, extra=lambda i: True):
        phase = "round"
        if metric == "initial.momentum_s":
            phase = "setup"
        elif workload == "sweep" and metric.startswith(BUILD_METRICS):
            phase = "build"
        sel = [i for i, sp in enumerate(spans)
               if sp.name == name and top[i] == phase and extra(i)]
        return sel, max(n_of[phase], 1)

    def total(metric, name, value=lambda i: spans[i].duration, **kw):
        sel, n = pick(metric, name, **kw)
        return sum(value(i) for i in sel) / n

    out = {}
    out["initial.momentum_s"] = total("initial.momentum_s",
                                      "initial.compute_momentum")
    it = "scattering.integrate_transfer"
    out["scattering.integrate_s"] = total("scattering.integrate_s", it)
    out["scattering.integrate_calls"] = total("scattering.integrate_calls", it,
                                              value=lambda i: 1)
    out["scattering.integrate_k"] = total(
        "scattering.integrate_k", it, value=lambda i: spans[i].attrs["k"])
    out["scattering.stepk"] = total(
        "scattering.stepk", it,
        value=lambda i: spans[i].attrs["k"] * spans[i].attrs["steps"])
    sel, _ = pick("scattering.batch_median_k", it)
    out["scattering.batch_median_k"] = (
        float(statistics.median(spans[i].attrs["k"] for i in sel))
        if sel else 0.0)

    def integrated_below(i):
        return sum(spans[j].attrs["k"] for j in kids[i] if spans[j].name == it)

    sel, _ = pick("scattering.ab_hit_ratio", "scattering.ab")
    requested = sum(spans[i].attrs["requested"] for i in sel)
    misses = sum(integrated_below(i) for i in sel)
    out["scattering.ab_hit_ratio"] = ((requested - misses) / requested
                                      if requested else 0.0)
    out["scattering.coarse_k"] = total("scattering.coarse_k",
                                       "scattering.ab_coarse",
                                       value=integrated_below)
    out["scattering.bstar_zeros_s"] = total("scattering.bstar_zeros_s",
                                            "scattering.bstar_zeros")
    out["branch.locate_s"] = total("branch.locate_s",
                                   "branch.locate_branch_points")
    out["branch.sheet_s"] = total("branch.sheet_s", "branch.SheetedR")
    out["branch.axis_slope_calls"] = total("branch.axis_slope_calls",
                                           "branch.axis_slope",
                                           value=lambda i: 1)
    out["branch.axis_slope_s"] = total("branch.axis_slope_s",
                                       "branch.axis_slope")
    out["contour.build_s"] = (
        total("contour.build_s", "contour.build_master_contour")
        + total("contour.build_s", "contour.panelize"))
    not_in_check = dict(extra=lambda i: not under(i, "assembly.check_jumps"))
    out["contour.panels"] = total(
        "contour.panels", "contour.panelize",
        value=lambda i: spans[i].attrs["panels"], **not_in_check)
    out["contour.nodes"] = total(
        "contour.nodes", "contour.panelize",
        value=lambda i: spans[i].attrs["nodes"], **not_in_check)
    # on sweep, pick reads the build, where the cold pass runs
    out["assembly.jumps_cold_s"] = total("assembly.jumps_cold_s",
                                         "assembly.jump_stack", **not_in_check)
    out["assembly.jump_stack_calls"] = total("assembly.jump_stack_calls",
                                             "assembly.jump_stack",
                                             value=lambda i: 1)
    out["assembly.check_s"] = total("assembly.check_s", "assembly.check_jumps")
    # a round's jump_stack calls on sweep are its warm jump sets
    out["assembly.jumps_warm_s"] = (
        total("assembly.jumps_warm_s", "assembly.jump_stack")
        / jump_sets_per_round if jump_sets_per_round else 0.0)
    out["cauchy.boundary_matrix_s"] = total("cauchy.boundary_matrix_s",
                                            "cauchy.boundary_matrix")
    mats = [spans[i].attrs["bytes"] for i, sp in enumerate(spans)
            if sp.name == "cauchy.boundary_matrix"]
    out["cauchy.matrix_mb"] = max(mats) / 1e6 if mats else 0.0
    in_rounds = sum(1 for i, sp in enumerate(spans)
                    if top[i] == "round" and sp.parent is not None)
    out["tracing.overhead_s"] = (in_rounds / max(n_of["round"], 1)
                                 * span_cost())
    return {k: {"value": float(v), "unit": PER_LAYER[k]} for k, v in out.items()}
