"""Outside-in span recorder for the traced benchmark run.

Each wrap point replaces a function name in the namespace of the module
that looks it up. The package modules bind each other's functions with
``from ... import``, so wrapping ``mwmusic.forward.hankel2_0`` catches the
calls made from ``forward`` (the steering table and the data matrix) and
nothing else. The recorder keeps spans in memory; the caller serialises
them when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

import numpy as np


def _count_hankel(counters, args):
    counters["specfun.hankel2_0.evals"] += int(np.size(args[0]))


def _count_bessel(counters, args):
    xs, q_max = args[0], int(args[1])
    counters["specfun.bessel_j_grid.cells"] += int(np.size(xs)) * (q_max + 1)
    counters["specfun.bessel_j_grid.q_max"] = max(counters["specfun.bessel_j_grid.q_max"], q_max)


def _count_written(counters, args):
    counters["music.write_map_csv.bytes"] += os.path.getsize(args[1])


def _count_read(counters, args):
    counters["music.read_map_csv.bytes"] += os.path.getsize(args[0])


# (namespace module, attribute, span name, counter); the span name uses the
# module that defines the function, which is the layer the time belongs to
WRAP_POINTS = (
    ("mwmusic.forward", "scattering_matrix", "forward.scattering_matrix", None),
    ("mwmusic.forward", "hankel2_0", "specfun.hankel2_0", _count_hankel),
    ("mwmusic.music", "svd_leading", "music.svd_leading", None),
    ("mwmusic.music", "incident_field_matrix", "forward.incident_field_matrix", None),
    ("mwmusic.music", "imaging_map", "music.imaging_map", None),
    ("mwmusic.music", "extract_peaks", "music.extract_peaks", None),
    ("mwmusic.music", "write_map_csv", "music.write_map_csv", _count_written),
    ("mwmusic.music", "write_map_pgm", "music.write_map_pgm", None),
    ("mwmusic.music", "read_map_csv", "music.read_map_csv", _count_read),
    ("mwmusic.theory", "closed_form_norm_map", "theory.closed_form_norm_map", None),
    ("mwmusic.theory", "bessel_j_grid", "specfun.bessel_j_grid", _count_bessel),
    ("mwmusic.theory", "jacobi_anger_truncation", "specfun.jacobi_anger_truncation", None),
    ("mwmusic.theory", "compare_maps", "theory.compare_maps", None),
    ("mwmusic.theory", "c_identity_check", "theory.c_identity_check", None),
    ("mwmusic.harness", "validate_scene", "scene.validate_scene", None),
    ("mwmusic.harness", "run_experiment", "harness.run_experiment", None),
    ("mwmusic.harness", "compare_saved_map", "harness.compare_saved_map", None),
    ("mwmusic.cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(name for _, _, name, _ in WRAP_POINTS)
COUNTER_NAMES = (
    "specfun.hankel2_0.evals",
    "specfun.bessel_j_grid.cells",
    "specfun.bessel_j_grid.q_max",
    "music.write_map_csv.bytes",
    "music.read_map_csv.bytes",
)


class Recorder:
    """Spans as [name, start_ns, end_ns, parent index or -1, pass id]."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter_ns(), 0, parent, self.pass_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                count(self.counters, args)
            return result

        return traced


@contextmanager
def installed(recorder: Recorder):
    """Wrap every wrap point for the duration of the block, then restore."""
    originals = []
    try:
        for module_name, attr, name, count in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, recorder.wrap(name, fn, count))
        yield recorder
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def span_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s and self_s (duration minus direct children).

    Spans of one process are properly nested on one thread, so the direct
    children of a span cover disjoint parts of it and their sum is the part
    of the parent they cover.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (end - start) * 1e-9
        entry["self_s"] += (end - start - child_ns[i]) * 1e-9
    return out


def check_spans(spans) -> list[str]:
    """Trace arithmetic problems: negative self time, children outside or
    summing past their parent. An empty list means the trace is consistent."""
    problems = []
    child_ns = [0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) lies outside its parent {parent}")
            child_ns[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        if child_ns[i] > end - start:
            problems.append(f"children of span {i} ({name}) sum past it")
    return problems
