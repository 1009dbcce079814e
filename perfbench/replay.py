"""Replay of a workload's CLI job through the public fieldsamp API.

Run as a script, it replays the job once in a fresh process, as the CLI
job runs, and writes the table it computed, its wall time and, when
traced, its spans.  The traced replay calls the same computations as the
job, in the same order, with spans around each layer call.  Child spans come from public
constructors only: a ``Kernel`` whose ``fn`` is timed is handed to
``mse_experiment``, and an ``Acf`` subclass timing the wrapped
``eval_many`` is handed to ``build_autocorr_matrix``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np

from fieldsamp import (
    Acf,
    ClarkeAcf,
    Kernel,
    NumericAcf,
    Region,
    ScatteringScenario,
    Wavenumber,
    build_autocorr_matrix,
    eigen_spectrum,
    enumerate_lattice,
    kernel_disk,
    kernel_ellipse,
    kernel_rect,
    mse_experiment,
    nyquist_ellipse,
    nyquist_hex,
    nyquist_rect,
    power_capture_count,
    support_at_threshold,
    synthesize,
)

from tracing import Tracer
from workloads import WORKLOADS


class _Untraced:
    def span(self, name, count=0):
        return nullcontext(SimpleNamespace(count=count))


class TimedAcf(Acf):
    """Delegates to another ACF, with a span around every ``eval_many``."""

    def __init__(self, inner: Acf, tracer: Tracer):
        self.inner = inner
        self.kn = inner.kn
        self.scenario = inner.scenario
        self.tracer = tracer

    def eval_many(self, disp):
        with self.tracer.span("statfield.acf_eval", count=len(disp)):
            return self.inner.eval_many(disp)


def timed_kernel(kern: Kernel, tracer: Tracer) -> Kernel:
    """The same kernel, with a span around every evaluation of its ``fn``."""
    fn = kern.fn

    def timed(r):
        with tracer.span("kernels.eval", count=math.prod(r.shape[:-1])):
            return fn(r)

    return Kernel(kern.support, kern.peak, fn=timed)


def _scenario(scenario_path):
    if scenario_path is None:
        return ScatteringScenario.isotropic(Wavenumber.from_wavelength(1.0))
    return ScatteringScenario.from_json(scenario_path)


def replay_mse(wl, scenario, seed, tracer) -> tuple[dict, list]:
    """The job's MSE table, as ``cmd_mse_sweep`` computes it, and each cell's samples."""
    kn = scenario.kn
    with tracer.span("scattering.fit"):
        shape = support_at_threshold(scenario, -20.0)  # the CLI's --threshold-db default
    schemes = [
        ("ellipse_nyquist", nyquist_ellipse(kn, shape), kernel_ellipse(kn, shape)),
        ("rect_matched", nyquist_rect(Wavenumber.from_wavelength(kn.wavelength / shape.a1)),
         kernel_rect(kn, scale=shape.a1)),
        ("hex", nyquist_hex(kn), kernel_disk(kn)),
        ("rect_half_lambda", nyquist_rect(kn), kernel_rect(kn)),
    ]
    rows, positions = [], []
    for side in wl.sides:
        region = Region(side=side * kn.wavelength)
        for name, q, kern in schemes:
            with tracer.span("lattice.enumerate") as s:
                pts = enumerate_lattice(q, region)
                s.count = len(pts)
            if isinstance(tracer, Tracer):
                kern = timed_kernel(kern, tracer)
            with tracer.span("analysis.mse"):
                rep = mse_experiment(scenario, q, kern, region, n_realizations=wl.realizations,
                                     seed=seed, n_waves=wl.n_waves, workers=wl.worker_count())
            rows.append([side, name, 10.0 * math.log10(rep.normalized)])
            positions.append(pts.positions)
    return {"rows": rows}, positions


def replay_synthesis(wl, scenario, seed, positions, tracer) -> None:
    """Per-realization synthesis at each cell's samples, on substream ``[seed, i]``.

    ``mse_experiment`` draws the same waves inside its loop; this replays
    that work through ``synthesize`` so the layer can be timed from outside.
    """
    for pos in positions:
        for i in range(wl.realizations):
            with tracer.span("statfield.synth", count=len(pos) * wl.n_waves):
                synthesize(scenario, pos, seed=[seed, i], n_waves=wl.n_waves)


def replay_eigs(wl, scenario, tracer) -> dict:
    """The job's eigen-spectrum table, as ``cmd_eigs`` computes it."""
    kn = scenario.kn
    with tracer.span("lattice.enumerate") as s:
        pts = enumerate_lattice(nyquist_hex(kn), Region(side=wl.side * kn.wavelength))
        s.count = len(pts)
    acf = ClarkeAcf(kn) if wl.acf == "clarke" else NumericAcf(scenario)
    if isinstance(tracer, Tracer):
        acf = TimedAcf(acf, tracer)
    with tracer.span("analysis.autocorr"):
        matrix = build_autocorr_matrix(pts, acf)
    with tracer.span("analysis.eigen", count=len(pts)):
        spectrum = eigen_spectrum(matrix)
    vals = spectrum.values
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(vals / vals[0])
    return {
        "n_points": len(pts),
        "count_997": power_capture_count(spectrum, 0.997),
        "count_999": power_capture_count(spectrum, 0.999),
        "eigenvalues": vals.tolist(),
        "eigenvalue_db": db.tolist(),
        "cumulative_fraction": (np.cumsum(vals) / spectrum.total).tolist(),
    }


def _replay(wl, scenario, seed, tracer):
    if wl.kind == "mse":
        return replay_mse(wl, scenario, seed, tracer)
    return replay_eigs(wl, scenario, tracer), None


def replay_job(wl, scenario_path, seed, traced: bool) -> dict:
    """One replay of the job: its table, its wall time, and its spans if traced.

    The synthesis replay runs after the timed replay, so ``replay_s`` of a
    traced and an untraced replay cover the same calls.
    """
    scenario = _scenario(scenario_path)
    tracer = Tracer() if traced else _Untraced()
    if traced:
        tracemalloc.start()
    try:
        t0 = time.perf_counter()
        table, positions = _replay(wl, scenario, seed, tracer)
        replay_s = time.perf_counter() - t0
        if traced and positions is not None:
            replay_synthesis(wl, scenario, seed, positions, tracer)
    finally:
        if traced:
            tracemalloc.stop()
    return {"table": table, "replay_s": replay_s,
            "spans": [asdict(s) for s in tracer.spans] if traced else []}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Replay one workload's job in this process.")
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scenario", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="JSON file for the result")
    args = parser.parse_args(argv)
    result = replay_job(WORKLOADS[args.workload], args.scenario, args.seed, bool(args.trace))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
