"""Spans and counts around calls into each module's public functions.

The program is left untouched: `traced(tracer)` swaps the module attributes
(and the two class methods) that the pipeline calls through for wrappers that
record a span, and restores them on exit. Spans stay in memory as
(estimate, name, start, end, parent) rows, and counts are recorded at the same
boundaries. Recording happens only while `tracer.estimate` is set, so the
benchmark's own checks, which use the same loaders, leave no spans.

tracemalloc peaks around `top_spectrum`, `moment_table` and `fit_nodes` are
taken on separate estimates (`tracer.peaks_only`), which record nothing else:
tracemalloc follows every Python allocation, and under it the cold
multiset-partition expansion in `star_counts.injective_profiles` runs about
five times slower, which would swamp the span times.
"""
from __future__ import annotations

import contextlib
import functools
import math
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from graphon_forge import (
    estimator,
    evaluation,
    graph_sampler,
    moment_poly,
    nonbacktracking,
    pipeline,
    star_counts,
)

MB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.peaks: dict[str, list[float]] = defaultdict(list)
        self.estimate: int | None = None
        self.peaks_only = False
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((self.estimate, name, time.perf_counter(), math.nan, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            est, _, start, _, _ = self.spans[index]
            self.spans[index] = (est, name, start, time.perf_counter(), parent)

    def add(self, key: str, value: float) -> None:
        if self.estimate is not None and not self.peaks_only:
            self.counts[self.estimate][key] += value

    def per_estimate(self) -> dict[int, dict[str, float]]:
        """Span totals (inclusive) by name, self time by layer (the name's prefix), and the counts."""
        out: dict[int, dict[str, float]] = {}
        child_time = defaultdict(float)
        for est, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (est, name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(est, defaultdict(float))
            row[name + "_s"] += end - start
            row[name.split(".")[0] + ".self_s"] += end - start - child_time[i]
        for est, counts in self.counts.items():
            out.setdefault(est, defaultdict(float)).update(counts)
        return out

    def dump(self) -> list[dict]:
        return [
            {"estimate": e, "name": n, "start": s, "end": t, "parent": p}
            for e, n, s, t, p in self.spans
        ]


def _wrap(tracer: Tracer, name: str, fn, after=None, peak_key: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.estimate is None:
            return fn(*args, **kwargs)
        if tracer.peaks_only:
            if peak_key is None:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                tracer.peaks[peak_key].append(tracemalloc.get_traced_memory()[1] / MB)
            finally:
                tracemalloc.stop()
            return result
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


def _patches(tracer: Tracer):
    """(owner, attribute, span name, after-hook, tracemalloc key) for every traced call."""
    t = tracer
    raw_profiles = star_counts.injective_profiles

    def wrote(key):
        return lambda _r, obj, path, *a, **k: t.add(key, os.path.getsize(path))

    def table_counts(table, *a, **k):
        t.add("star_counts.entries", table.entries.size)
        shape = table.entries.shape
        t.add("star_counts.terms", sum(len(raw_profiles(tuple(int(x) for x in alpha))) for alpha in np.ndindex(shape)))

    def fit_counts(fit, M, kappa, K, resolution, *a, **k):
        t.add("moment_poly.nodes", resolution**K)
        t.add("moment_poly.support", fit.weights.size)

    def align_counts(_r, est, truth, g=256, rank=None, search_orders=True):
        r = max(est.K if rank is None else rank, est.K)
        t.add("evaluation.candidates", (math.factorial(r) if search_orders else 1) * 2**r)

    return [
        (graph_sampler, "sample_graph", "graph_sampler.sample", None, None),
        (graph_sampler, "split_edges", "graph_sampler.sample", None, None),
        (graph_sampler, "save_edge_list", "graph_sampler.write", wrote("graph_sampler.bytes"), None),
        (graph_sampler, "save_latents", "graph_sampler.write", wrote("graph_sampler.bytes"), None),
        (graph_sampler, "load_edge_list", "graph_sampler.read", lambda *a, **k: t.add("graph_sampler.read_calls", 1), None),
        (graph_sampler, "load_latents", "graph_sampler.read", lambda *a, **k: t.add("graph_sampler.read_calls", 1), None),
        (nonbacktracking, "build_nb_operator", "nonbacktracking.build", lambda op, *a, **k: t.add("nonbacktracking.dim", op.dim), None),
        (nonbacktracking, "top_spectrum", "nonbacktracking.solve", None, "nonbacktracking.peak_mb"),
        (nonbacktracking.NbOperator, "matmat", "nonbacktracking.apply", lambda *a, **k: t.add("nonbacktracking.applies", 1), None),
        (nonbacktracking.NbOperator, "matvec", "nonbacktracking.apply", lambda *a, **k: t.add("nonbacktracking.applies", 1), None),
        (star_counts, "moment_table", "star_counts.table", table_counts, "star_counts.peak_mb"),
        (star_counts, "injective_profiles", "star_counts.profiles", None, None),
        (moment_poly, "mollifier_moments", "moment_poly.mollifier", None, None),
        (moment_poly, "fit_nodes", "moment_poly.fit", fit_counts, "moment_poly.peak_mb"),
        (estimator, "sample_nodes", "estimator.sample", None, None),
        (estimator, "save_estimate", "estimator.write", wrote("estimator.bytes"), None),
        (estimator, "load_estimate", "estimator.read", None, None),
        (evaluation, "delta2_upper", "evaluation.align", align_counts, None),
        (evaluation, "l2_distance_grid", "evaluation.l2", None, None),
        (evaluation, "diagnostics_C", "evaluation.diagnostics", None, None),
    ] + [
        (pipeline.PipelineState, f"require_{what}", "pipeline.reload", None, None)
        for what in ("graphs", "spectrum", "table", "fit", "estimate")
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, after, peak_key in _patches(tracer):
            fn = owner.__dict__.get(attr)
            if fn is None:  # gone from the program: its metrics read 0
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, after, peak_key))
        for stage in pipeline.STAGE_ORDER:
            fn = pipeline.STAGE_FUNCS[stage]
            saved.append((pipeline.STAGE_FUNCS, stage, fn))
            pipeline.STAGE_FUNCS[stage] = _wrap(tracer, f"pipeline.{stage}", fn)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
