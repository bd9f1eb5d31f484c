"""Layer spans for the traced benchmark run.

`install` wraps the public functions of each hessianlab layer at the
names their callers look them up by, so no file under src/ changes. A
wrapped call records a span (name, start, end, parent span) and the work
counts of that boundary. Spans stay in memory; the launcher writes them
out when the CLI call ends, and `layer_metrics` turns the spans and counts
of a repetition into the per-layer metrics.

The traced child imports this module before wrapping, so hessianlab and
numpy are imported only inside `install`.
"""

from __future__ import annotations

import functools
import hashlib
import os
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli", "fields", "solver", "symm", "geometry", "polar",
    "candidates", "functionals", "pipeline",
)

# span name -> per-layer time metric filled from the spans' total duration
SPAN_TIME_METRICS = {
    "fields.rasterize": "fields.rasterize_s",
    "fields.stencils": "fields.stencils_s",
    "fields.hessian_stack": "fields.hessian_stack_s",
    "fields.save_hsf1": "fields.save_hsf1_s",
    "fields.load_hsf1": "fields.load_hsf1_s",
    "solver.solve": "solver.solve_s",
    "solver.linear_solve": "solver.linear_solve_s",
    "symm.esym_table": "symm.esym_table_s",
    "symm.spectral_gradient": "symm.spectral_gradient_s",
    "geometry.mvee": "geometry.mvee_s",
    "geometry.ball_fit": "geometry.ball_fit_s",
    "geometry.extract_body": "geometry.extract_body_s",
    "polar.radial_crossings": "polar.radial_crossings_s",
    "polar.integrate_sublevel": "polar.integrate_sublevel_s",
    "polar.sublevel_volume": "polar.sublevel_volume_s",
    "functionals.condition_sweep": "functionals.condition_sweep_s",
    "functionals.iso_ratio": "functionals.iso_ratio_s",
    "functionals.legendre_transform": "functionals.legendre_transform_s",
    "pipeline.analyze": "pipeline.analyze_s",
    "pipeline.quadratic_test": "pipeline.quadratic_test_s",
    "pipeline.write_report_json": "pipeline.write_report_json_s",
}

# span name -> per-layer metric filled from the number of spans
SPAN_CALL_METRICS = {
    "fields.rasterize": "fields.rasterize_calls",
    "fields.hessian_stack": "fields.hessian_stack_calls",
    "solver.linear_solve": "solver.linear_solves",
    "symm.esym_table": "symm.esym_table_calls",
    "symm.spectral_gradient": "symm.spectral_gradient_calls",
    "geometry.mvee": "geometry.mvee_calls",
    "geometry.ball_fit": "geometry.ball_fit_calls",
    "polar.radial_crossings": "polar.radial_crossings_calls",
}

# counts taken at the span boundaries (Tracer.counts keys)
COUNT_METRICS = (
    "fields.stencil_nodes",
    "fields.hsf1_bytes_written",
    "fields.hsf1_bytes_read",
    "geometry.mvee_points",
    "polar.rays",
    "candidates.value_points",
    "candidates.grad_points",
    "candidates.hess_points",
)

# self time of one span name, besides the per-layer totals
SELF_TIME_METRICS = {
    "solver.solve": "solver.self_s",
    "functionals.legendre_transform": "functionals.legendre_self_s",
}


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.crossing_keys = set()

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span; count(args, kwargs) runs at the boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            i = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.spans[i][1:3] = [t0, t1]

        return traced


def _rows(X):
    shape = getattr(X, "shape", None)
    return 1 if not shape or len(shape) == 1 else int(shape[0])


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class _LinalgProxy:
    """scipy.sparse.linalg as the solver module sees it, with a traced
    spsolve; every other attribute is the real one."""

    def __init__(self, real, spsolve):
        self._real = real
        self.spsolve = spsolve

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(tracer: Tracer):
    """Wrap every traced hessianlab function; returns the traced cli.main."""
    import numpy as np
    from hessianlab import candidates, cli, fields, functionals, geometry, pipeline, polar, solver

    counts = tracer.counts

    def patch(owners, attr, name, count=None):
        traced = tracer.wrap(name, getattr(owners[0], attr), count)
        for owner in owners:
            setattr(owner, attr, traced)

    patch([fields], "rasterize", "fields.rasterize")

    build = fields.DomainMask.stencils
    traced_build = tracer.wrap("fields.stencils", build)

    def stencils(mask):
        # only the first call per mask builds; later calls are a cached lookup
        if mask._stencils is not None:
            return build(mask)
        counts["fields.stencil_nodes"] += int(mask.inside_count())
        return traced_build(mask)

    fields.DomainMask.stencils = stencils
    patch([fields.StencilSet], "hessian_stack", "fields.hessian_stack")

    save = fields.save_hsf1

    def save_hsf1(field, path):
        try:
            return save(field, path)
        finally:
            if os.path.exists(path):
                counts["fields.hsf1_bytes_written"] += os.path.getsize(path)

    fields.save_hsf1 = save_hsf1
    patch([fields, cli], "save_hsf1", "fields.save_hsf1")

    def count_read(args, kwargs):
        path = _arg(args, kwargs, 0, "path")
        if os.path.exists(path):
            counts["fields.hsf1_bytes_read"] += os.path.getsize(path)

    patch([fields, cli], "load_hsf1", "fields.load_hsf1", count_read)

    patch([solver], "solve", "solver.solve")
    solver.spla = _LinalgProxy(
        solver.spla, tracer.wrap("solver.linear_solve", solver.spla.spsolve)
    )
    patch([solver], "esym_table", "symm.esym_table")
    patch([solver], "spectral_gradient", "symm.spectral_gradient")

    def count_points(args, kwargs):
        counts["geometry.mvee_points"] += _rows(_arg(args, kwargs, 0, "points"))

    patch([geometry], "mvee", "geometry.mvee", count_points)
    patch([geometry], "ball_fit", "geometry.ball_fit")
    patch([geometry], "extract_body", "geometry.extract_body")

    def count_rays(args, kwargs):
        cand = _arg(args, kwargs, 0, "cand")
        t = float(_arg(args, kwargs, 1, "t"))
        dirs = np.ascontiguousarray(_arg(args, kwargs, 2, "dirs"), dtype=float)
        counts["polar.rays"] += dirs.shape[0]
        # the same candidate, level and direction set bisects to the same radii
        key = (
            cand.name, cand.params.tobytes(), cand.anchor.tobytes(), t,
            hashlib.sha1(dirs).hexdigest(),
        )
        if key not in tracer.crossing_keys:
            tracer.crossing_keys.add(key)
            counts["polar.rays_distinct"] += dirs.shape[0]

    patch([polar, geometry], "radial_crossings", "polar.radial_crossings", count_rays)
    patch([polar], "integrate_sublevel", "polar.integrate_sublevel")
    patch([polar], "sublevel_volume", "polar.sublevel_volume")

    for method in ("value", "grad", "hess"):

        def count_rows(args, kwargs, metric=f"candidates.{method}_points"):
            counts[metric] += _rows(_arg(args, kwargs, 1, "X"))

        patch([candidates.AnalyticCandidate], method, f"candidates.{method}", count_rows)

    patch([functionals], "condition_sweep", "functionals.condition_sweep")
    patch([functionals], "iso_ratio", "functionals.iso_ratio")
    patch([functionals], "legendre_transform", "functionals.legendre_transform")
    patch([pipeline], "analyze", "pipeline.analyze")
    patch([pipeline], "quadratic_test", "pipeline.quadratic_test")
    patch([pipeline], "write_report_json", "pipeline.write_report_json")
    return tracer.wrap("cli.main", cli.main)


# ---------------------------------------------------------------------------
# aggregation (benchmark process)


def self_times(spans):
    """Per-span duration minus the part its direct children cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            s, e = max(spans[j][1], reach), min(spans[j][2], end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def layer_metrics(calls):
    """Per-layer metrics of one repetition.

    calls: one dict per CLI call with the call's "spans" and "counts"."""
    m = {name: 0.0 for name in SPAN_TIME_METRICS.values()}
    m.update({name: 0 for name in SPAN_CALL_METRICS.values()})
    m.update({name: 0 for name in COUNT_METRICS})
    m.update({name: 0.0 for name in SELF_TIME_METRICS.values()})
    m.update({f"{layer}.layer_self_s": 0.0 for layer in LAYERS})
    distinct = 0
    for call in calls:
        spans = call["spans"]
        for (name, start, end, _), self_s in zip(spans, self_times(spans)):
            if name in SPAN_TIME_METRICS:
                m[SPAN_TIME_METRICS[name]] += end - start
            if name in SPAN_CALL_METRICS:
                m[SPAN_CALL_METRICS[name]] += 1
            if name in SELF_TIME_METRICS:
                m[SELF_TIME_METRICS[name]] += self_s
            m[name.split(".")[0] + ".layer_self_s"] += self_s
        for name in COUNT_METRICS:
            m[name] += call["counts"].get(name, 0)
        distinct += call["counts"].get("polar.rays_distinct", 0)
    m["polar.rays_distinct_frac"] = distinct / m["polar.rays"] if m["polar.rays"] else 0.0
    return m
