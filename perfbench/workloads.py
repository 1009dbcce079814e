"""The benchmark's workloads: the CLI job each one runs, and its scenario.

Each workload is one ``python -m fieldsamp`` command line.  The traced
replay in ``replay.py`` calls the same computations through the library
API, so both read their parameters from here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

# Scenario files the benchmark writes for its jobs (angles in degrees).
BROADSIDE_40 = {
    "lambda": 1.0,
    "clusters": [{"weight": 1.0, "theta_deg": 0.0, "phi_deg": 0.0, "alpha": 40.0}],
}
TWO_CLUSTER = {
    "lambda": 1.0,
    "clusters": [
        {"weight": 0.5, "theta_deg": 0.0, "phi_deg": 180.0, "alpha": 200.0},
        {"weight": 0.5, "theta_deg": 10.0, "phi_deg": 0.0, "alpha": 100.0},
    ],
}


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class MseWorkload:
    """``mse-sweep`` over the four schemes at the given region sides."""

    name: str
    sides: tuple[float, ...]
    realizations: int
    workers: int | None  # None: one thread per CPU
    scenario: dict
    n_waves: int = 512
    kind = "mse"

    def worker_count(self) -> int:
        return self.workers if self.workers is not None else nproc()

    def argv(self, scenario_path: str, seed: int) -> list[str]:
        return ["mse-sweep", "--scenario", scenario_path,
                "--L-list", ",".join(f"{s:g}" for s in self.sides),
                "--realizations", str(self.realizations),
                "--n-waves", str(self.n_waves),
                "--workers", str(self.worker_count()),
                "--seed", str(seed)]


@dataclass(frozen=True)
class EigsWorkload:
    """``eigs`` on the hexagonal lattice; these jobs take no seed."""

    name: str
    side: float
    acf: str  # "clarke" or "numeric"
    scenario: dict | None = None
    kind = "eigs"

    def argv(self, scenario_path: str | None, seed: int) -> list[str]:
        args = ["eigs", "--scheme", "hex", "--L", f"{self.side:g}", "--acf", self.acf]
        if scenario_path is not None:
            args += ["--scenario", scenario_path]
        return args


# Why each workload exists is set out in README.md next to this file.
WORKLOADS = {
    wl.name: wl for wl in (
        MseWorkload("mse-sweep", sides=(2.0, 4.0, 8.0, 16.0), realizations=100,
                    workers=None, scenario=BROADSIDE_40),
        MseWorkload("mse-oneshot", sides=(20.0,), realizations=4, workers=1,
                    scenario=BROADSIDE_40),
        EigsWorkload("dof-spectrum", side=20.0, acf="clarke"),
        EigsWorkload("directional-eigs", side=12.0, acf="numeric", scenario=TWO_CLUSTER),
    )
}


def write_scenario(wl, directory: str) -> str | None:
    """Write the workload's scenario JSON into ``directory``; None if isotropic."""
    if wl.scenario is None:
        return None
    path = os.path.join(directory, f"{wl.name}-scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(wl.scenario, fh)
    return path
