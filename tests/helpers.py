"""Shared test utilities: brute-force counters, CLI runner, scenario builders."""

import json
import os
import resource
import subprocess
import sys

import numpy as np

import fieldsamp
from fieldsamp import ScatteringScenario, VmfCluster, Wavenumber


def brute_force_lattice_count(qmat, side):
    """Count lattice points in a centered square by scanning an integer box.

    Independent of the production enumeration: the integer range is bounded
    through the rows of Q^-1 rather than by mapping region corners, and the
    membership test is done componentwise on the generated positions.  The
    boundary rule matches production: closed, with 1e-12 relative slack.
    """
    qmat = np.asarray(qmat, dtype=float)
    qinv = np.linalg.inv(qmat)
    half = 0.5 * side * (1.0 + 1e-12)
    bound = int(np.ceil(np.abs(qinv).sum(axis=1).max() * half)) + 2
    n = np.arange(-bound, bound + 1)
    n1, n2 = np.meshgrid(n, n, indexing="ij")
    pts = np.stack([n1.ravel(), n2.ravel()], axis=1) @ qmat.T
    keep = (np.abs(pts[:, 0]) <= half) & (np.abs(pts[:, 1]) <= half)
    return int(np.count_nonzero(keep))


def brute_force_disk_modes(rho):
    """Count integer pairs inside the closed disk of radius rho (pure loops)."""
    bound = int(np.ceil(rho)) + 1
    limit_sq = (rho * (1.0 + 1e-12)) ** 2
    count = 0
    for lx in range(-bound, bound + 1):
        for ly in range(-bound, bound + 1):
            if lx * lx + ly * ly <= limit_sq:
                count += 1
    return count


# a CLI child's address space: ample for a small run, well below the host's memory,
# so a run that slips past a memory guard fails with MemoryError instead
CONTAINED_AS = 3 * 2**30


def run_cli(args, cwd, env=None):
    """Run the CLI of the package these tests imported, in a contained subprocess.

    The directory ``fieldsamp`` was imported from goes first on the child's
    PYTHONPATH as an absolute path, so the child runs the same code whether it
    comes from ``src/`` or an installed copy, and a relative PYTHONPATH such as
    ``src`` cannot stop resolving under ``cwd``.  Empty parts are dropped: a
    trailing separator would put ``cwd`` on the child's ``sys.path``.  The
    variables in ``env``, if given, override the inherited ones; one whose
    override is ``None`` is dropped.

    The child's address space is capped at ``CONTAINED_AS`` bytes, and a run
    longer than 60 s raises ``subprocess.TimeoutExpired``.  A hole in a memory
    guard then shows as a ``resource`` failure or a timeout, not as the OOM
    killer ending processes on the test host.
    """
    cmd, env = _child(["-m", "fieldsamp", *args], env)
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=60.0, preexec_fn=_cap_address_space)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CONTAINED_AS, CONTAINED_AS))


def max_rss(args, cwd):
    """Run the interpreter on ``args`` as ``run_python`` does; its exit code and max RSS in bytes.

    The child's output is discarded.  Max RSS comes from ``os.wait4``.
    """
    cmd, env = _child(args)
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024


def run_python(args, cwd, env=None):
    """Run the interpreter on ``args`` in a subprocess, importing as ``run_cli`` does.

    Warnings are errors in the child (``-W error``), as ``pyproject.toml``'s
    ``filterwarnings`` makes the numpy ones in process.
    """
    cmd, env = _child(args, env)
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def _child(args, env=None):
    """The command line and environment of a child interpreter for ``run_python``."""
    env = {k: v for k, v in {**os.environ, **(env or {})}.items() if v is not None}
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(fieldsamp.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return [sys.executable, "-W", "error", *[str(a) for a in args]], env


def counting_kernel(kern):
    """The kernel with its ``fn`` wrapped to record each call's size.

    Returns the wrapped kernel and the list that each call appends its
    number of displacements to.
    """
    sizes = []

    def fn(r):
        sizes.append(r.size // 2)
        return kern.fn(r)

    return fieldsamp.Kernel(kern.support, kern.peak, fn=fn), sizes


def shuffled_rows(points, seed=0):
    """The same point set with its rows in a random order."""
    order = np.random.default_rng(seed).permutation(len(points))
    return fieldsamp.LatticePointSet(indices=points.indices[order],
                                     positions=points.positions[order],
                                     q=points.q, region=points.region)


def write_scenario(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)


def broadside_cluster(alpha, lam=1.0):
    """Single cluster pointing at the zenith with the given concentration."""
    return ScatteringScenario(
        kn=Wavenumber.from_wavelength(lam),
        clusters=(VmfCluster(weight=1.0, theta_r=0.0, phi_r=0.0, alpha=alpha),),
    )


def two_cluster_scenario(lam=1.0):
    """Two tilted clusters with a strongly directional mixture spectrum."""
    return ScatteringScenario.from_dict({
        "lambda": lam,
        "clusters": [
            {"weight": 0.5, "theta_deg": 0.0, "phi_deg": 180.0, "alpha": 200.0},
            {"weight": 0.5, "theta_deg": 10.0, "phi_deg": 0.0, "alpha": 100.0},
        ],
    })


def broadside_json(alpha, lam=1.0):
    return {
        "lambda": lam,
        "clusters": [
            {"weight": 1.0, "theta_deg": 0.0, "phi_deg": 0.0, "alpha": alpha},
        ],
    }


def two_cluster_json(lam=1.0):
    return {
        "lambda": lam,
        "clusters": [
            {"weight": 0.5, "theta_deg": 0.0, "phi_deg": 180.0, "alpha": 200.0},
            {"weight": 0.5, "theta_deg": 10.0, "phi_deg": 0.0, "alpha": 100.0},
        ],
    }
