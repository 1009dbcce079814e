"""In-memory spans for the traced run, and the per-layer metrics drawn from them.

A span records one call into a library layer, timed from outside the
call: name, start, end, parent, a work count, and the peak of
``tracemalloc``-traced memory above the level at which the span started.
Spans stay in memory until the run ends; nothing here imports fieldsamp.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

MB = 2.0 ** 20


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    count: int = 0
    base_bytes: int = 0
    peak_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def peak_mb(self) -> float:
        return (self.peak_bytes - self.base_bytes) / MB


class Tracer:
    """Records nested spans on the calling thread.

    ``tracemalloc`` keeps one peak for the whole process, so a child span
    folds the peak reached so far into its parent before resetting it, and
    folds its own peak back when it ends.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, count: int = 0):
        current, peak = tracemalloc.get_traced_memory()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.peak_bytes = max(parent.peak_bytes, peak)
        tracemalloc.reset_peak()
        s = Span(id=len(self.spans), name=name, start=time.perf_counter(), end=0.0,
                 parent=None if parent is None else parent.id, count=count,
                 base_bytes=current, peak_bytes=current)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.peak_bytes = max(s.peak_bytes, tracemalloc.get_traced_memory()[1])
            self._stack.pop()
            if parent is not None:
                parent.peak_bytes = max(parent.peak_bytes, s.peak_bytes)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans: list[Span], untraced_s: float, traced_s: float) -> dict[str, tuple]:
    """Per-layer metrics as ``{name: (value, unit)}``; a layer never called reads 0."""
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.duration for s in named(name))

    def work(name):
        return sum(s.count for s in named(name))

    def self_s(name):
        return sum(own[s.id] for s in named(name))

    def peak(name):
        return max((s.peak_mb for s in named(name)), default=0.0)

    # the interpolation matrix of one MSE cell holds one float64 per
    # displacement its kernel evaluates
    cell_evals = {}
    for s in named("kernels.eval"):
        cell_evals[s.parent] = cell_evals.get(s.parent, 0) + s.count
    matrix_mb = max(cell_evals.values(), default=0) * 8 / MB

    return {
        "lattice.enumerate_s": (busy("lattice.enumerate"), "s"),
        "lattice.points": (work("lattice.enumerate"), "count"),
        "scattering.fit_s": (busy("scattering.fit"), "s"),
        "kernels.eval_s": (busy("kernels.eval"), "s"),
        "kernels.evals": (work("kernels.eval"), "count"),
        "kernels.matrix_mb": (matrix_mb, "MB"),
        "statfield.synth_s": (busy("statfield.synth"), "s"),
        "statfield.synth_terms": (work("statfield.synth"), "count"),
        "analysis.mse_s": (busy("analysis.mse"), "s"),
        "analysis.mse_self_s": (self_s("analysis.mse"), "s"),
        "analysis.mse_peak_mb": (peak("analysis.mse"), "MB"),
        "statfield.acf_eval_s": (busy("statfield.acf_eval"), "s"),
        "statfield.acf_disps": (work("statfield.acf_eval"), "count"),
        "statfield.acf_peak_mb": (peak("statfield.acf_eval"), "MB"),
        "analysis.autocorr_s": (busy("analysis.autocorr"), "s"),
        "analysis.autocorr_self_s": (self_s("analysis.autocorr"), "s"),
        "analysis.autocorr_peak_mb": (peak("analysis.autocorr"), "MB"),
        "analysis.eigen_s": (busy("analysis.eigen"), "s"),
        "analysis.eigen_n": (work("analysis.eigen"), "count"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "fraction"),
    }
