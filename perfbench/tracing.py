"""Per-layer spans and counters, recorded from outside the package.

install() swaps each public entry point for a wrapper that records a span
(name, start, end, parent) and, for some, a counter taken from the
arguments or the result.  The names are patched where the callers look
them up: dispflow.experiment for the pipelines, dispflow.varsolve and
dispflow.discrete for direct calls (iterate calls convex_step through its
own module).  Spans stay in memory; summary() turns one pass of them into
the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from collections import Counter

from dispflow import discrete, experiment, grid, varsolve


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.flows = []  # (t reached, t_end) per evolve call
        self._stack = []

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        busy, calls = Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            busy[name] += t1 - t0
            calls[name] += 1
            if parent is not None:
                child[parent] += t1 - t0
        run_self = sum(
            t1 - t0 - child[i]
            for i, (name, t0, t1, _) in enumerate(self.spans)
            if name == "experiment.run"
        )
        steps = self.counts["flows.steps"]
        t_end = sum(t for _, t in self.flows)
        rays = self.counts["tomo.ray_samples"]
        return {
            "tomo.project_s": busy["tomo.project"],
            "tomo.project_calls": calls["tomo.project"],
            "tomo.ray_samples": rays,
            "tomo.ray_samples_per_s": rays / busy["tomo.project"] if rays else 0.0,
            "tomo.fbp_s": busy["tomo.fbp"],
            "tomo.fbp_calls": calls["tomo.fbp"],
            "flows.evolve_s": busy["flows.evolve"],
            "flows.steps": steps,
            "flows.step_us": 1e6 * busy["flows.evolve"] / steps if steps else 0.0,
            # no flow ran: nothing was truncated
            "flows.t_reached_frac": sum(t for t, _ in self.flows) / t_end if t_end else 1.0,
            "grid.fields_built": self.counts["grid.fields_built"],
            "varsolve.iterate_s": busy["varsolve.iterate"],
            "varsolve.convex_steps": calls["varsolve.convex_step"],
            "varsolve.convex_step_ms": (
                1e3 * busy["varsolve.convex_step"] / calls["varsolve.convex_step"]
                if calls["varsolve.convex_step"]
                else 0.0
            ),
            "discrete.assign_s": busy["discrete.assign"],
            "discrete.jitter_s": busy["discrete.jitter"],
            "fileio.write_s": busy["fileio.write"],
            "fileio.files_written": calls["fileio.write"],
            "fileio.bytes_written": self.counts["fileio.bytes_written"],
            "metrics.metrics_s": busy["metrics.metrics"],
            "experiment.self_s": run_self,
        }


def _count_rays(tracer, args, kwargs, sino):
    # the projector samples each ray at ceil(2 sqrt(2) n) + 1 points
    n = args[0].n1
    rows, cols = sino.field.shape
    tracer.counts["tomo.ray_samples"] += rows * cols * (math.ceil(2 * math.sqrt(2) * n) + 1)


def _record_flow(tracer, args, kwargs, state):
    t_end = args[2] if len(args) > 2 else kwargs["t_end"]
    tracer.counts["flows.steps"] += state.steps
    tracer.flows.append((state.t, t_end))


def _count_bytes(tracer, args, kwargs, result):
    tracer.counts["fileio.bytes_written"] += os.path.getsize(args[0])


#: (module, attribute, span name, counter hook)
_ENTRY_POINTS = (
    (experiment, "run_experiment", "experiment.run", None),
    (experiment, "radon", "tomo.project", _count_rays),
    (experiment, "radon_perturbed", "tomo.project", _count_rays),
    (experiment, "fbp", "tomo.fbp", None),
    (experiment, "evolve", "flows.evolve", _record_flow),
    (experiment, "iterate", "varsolve.iterate", None),
    (varsolve, "iterate", "varsolve.iterate", None),
    (varsolve, "convex_step", "varsolve.convex_step", None),
    (experiment, "jitter_correct_rows", "discrete.jitter", None),
    (discrete, "jitter_correct_rows", "discrete.jitter", None),
    (experiment, "block_assign_columns", "discrete.assign", None),
    (discrete, "block_assign_columns", "discrete.assign", None),
    (experiment, "write_image", "fileio.write", _count_bytes),
    (experiment, "write_csv", "fileio.write", _count_bytes),
    (experiment, "metrics", "metrics.metrics", None),
)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Route every entry point, and ScalarField construction, through tracer."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _ENTRY_POINTS]
    field_init = grid.ScalarField.__post_init__

    def counted_init(self):
        tracer.counts["grid.fields_built"] += 1
        field_init(self)

    try:
        for (mod, attr, orig), (_, _, name, hook) in zip(saved, _ENTRY_POINTS):
            setattr(mod, attr, tracer.wrap(name, orig, hook))
        grid.ScalarField.__post_init__ = counted_init
        yield tracer
    finally:
        for mod, attr, orig in saved:
            setattr(mod, attr, orig)
        grid.ScalarField.__post_init__ = field_init
