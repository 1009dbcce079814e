"""Second-order statistics and Monte Carlo synthesis of scattered fields.

The field is a zero-mean stationary circularly-symmetric Gaussian process
over the plane with unit power per point.  Its spatial autocorrelation is
the hemisphere integral of the squared spectral factor against the plane
wave phase, a plane-wave sum over quadrature nodes; for isotropic scattering
this reduces to the classic ``sinc(2|r|/wavelength)`` profile.  Realizations
are synthesized as finite sums of plane waves with directions drawn from the
scenario's angular density and independent complex Gaussian gains.  Either
sum is evaluated at any positions by ``_plane_wave_sum`` and at lattice
indices by ``_lattice_wave_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from ._quad import hemisphere_rule, refine
from .geometry import TWO_PI, Wavenumber
from .scattering import ScatteringScenario, _factor_sq

__all__ = [
    "Acf",
    "ClarkeAcf",
    "NumericAcf",
    "FieldRealization",
    "EnergyReport",
    "acf_clarke",
    "acf_numeric",
    "synthesize",
    "average_energy",
]

_ACF_LEVELS = ((64, 128), (128, 256), (256, 512), (512, 1024))
_ACF_TOL = 1e-6
_NODE_CHUNK = 32768
_ROW_CHUNK = 512


class Acf:
    """Spatial autocorrelation: displacement -> complex correlation.

    Subclasses provide ``eval_many`` on an (N, 2) displacement array;
    calling with a single displacement returns a complex scalar.
    ``eval_lattice(q, indices)`` evaluates at the lattice displacements
    ``Q n`` for integer index rows ``n``; by default it forms them and calls
    ``eval_many``, and a subclass may override it to exploit the lattice.
    ``c(0) = 1`` by the unit-power convention.
    """

    kn: Wavenumber
    scenario: ScatteringScenario | None = None

    def eval_many(self, disp: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_lattice(self, q: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return self.eval_many(np.asarray(indices, dtype=float) @ q.T)

    def __call__(self, r) -> complex:
        disp = np.asarray(r, dtype=float).reshape(1, 2)
        return complex(self.eval_many(disp)[0])


class ClarkeAcf(Acf):
    """Isotropic-scattering autocorrelation ``sinc(2|r|/wavelength)``."""

    def __init__(self, kn: Wavenumber):
        self.kn = kn
        self.scenario = None

    def eval_many(self, disp: np.ndarray) -> np.ndarray:
        disp = np.asarray(disp, dtype=float)
        rad = np.hypot(disp[..., 0], disp[..., 1])
        return np.sinc(2.0 * rad / self.kn.wavelength).astype(complex)


def acf_clarke(r, kn: Wavenumber) -> float:
    """Isotropic autocorrelation at displacement ``r``: sinc(2|r|/wavelength)."""
    disp = np.asarray(r, dtype=float).reshape(2)
    return float(np.sinc(2.0 * math.hypot(disp[0], disp[1]) / kn.wavelength))


class NumericAcf(Acf):
    """Autocorrelation of an arbitrary scenario by hemisphere quadrature.

    Gauss-Legendre nodes over (theta, phi) are refined by doubling until two
    successive levels agree within ``_ACF_TOL = 1e-6`` on the requested
    displacements; values are normalized by the same-level value at zero
    displacement so that ``c(0) = 1`` exactly.  ``eval_many`` sums each
    node's plane wave at every displacement (``_plane_wave_sum``);
    ``eval_lattice`` factors each node's phase at ``Q n`` as
    ``exp(i n1 b1) exp(i n2 b2)`` with ``b = Q.T k`` and sums over the
    integer index box (``_lattice_wave_sum``), so it needs exponentials only
    along the two axes of the box.  Both run the same level sequence and
    convergence test.
    """

    def __init__(self, scenario: ScatteringScenario):
        self.scenario = scenario
        self.kn = scenario.kn

    def _level_nodes(self, nt: int, nf: int) -> tuple[np.ndarray, np.ndarray]:
        u, w = hemisphere_rule(nt, nf)
        return self.kn.kappa * u[:, :2], _factor_sq(self.scenario, u) * w

    def _refine(self, level_sum) -> np.ndarray:
        """Refine ``level_sum(k, w)``, whose last entry is the origin's sum."""
        def level(nodes):
            cur = level_sum(*self._level_nodes(*nodes))
            return cur / cur[-1].real

        return refine(_ACF_LEVELS, level, _ACF_TOL, "autocorrelation quadrature")[:-1]

    def eval_many(self, disp: np.ndarray) -> np.ndarray:
        disp = np.atleast_2d(np.asarray(disp, dtype=float))
        if disp.shape[-1] != 2:
            raise ValueError("displacements must have two components")
        ext = np.vstack([disp, [[0.0, 0.0]]])
        return self._refine(lambda k, w: _plane_wave_sum(ext, k, w))

    def eval_lattice(self, q: np.ndarray, indices: np.ndarray) -> np.ndarray:
        indices = np.atleast_2d(np.asarray(indices, dtype=np.int64))
        ext = np.vstack([indices, [[0, 0]]])
        return self._refine(lambda k, w: _lattice_wave_sum(q, ext, k, w))


def acf_numeric(s: ScatteringScenario, r) -> complex:
    """Autocorrelation of scenario ``s`` at displacement ``r`` by quadrature."""
    return NumericAcf(s)(r)


@dataclass(frozen=True)
class EnergyReport:
    """Average per-point field energy implied by a scenario."""

    sigma_sq: float


def average_energy(s: ScatteringScenario) -> EnergyReport:
    """Hemisphere integral of the squared spectral factor.

    Equals one under the scenario normalization; computed by quadrature so
    it doubles as a consistency check of the normalization constants.
    """
    def level(nodes):
        u, w = hemisphere_rule(*nodes)
        return float(w @ _factor_sq(s, u))

    return EnergyReport(sigma_sq=refine(_ACF_LEVELS, level, 1e-10, "energy quadrature"))


@dataclass(frozen=True)
class FieldRealization:
    """One synthesized field realization sampled at a set of positions.

    Regenerating with the same scenario, positions, seed and wave count
    reproduces the values bit for bit.
    """

    positions: np.ndarray
    values: np.ndarray
    seed: object
    n_waves: int
    scenario_hash: str

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        val = np.asarray(self.values)
        if pos.ndim != 2 or pos.shape[1] != 2 or val.shape != (len(pos),):
            raise ValueError("positions must be (N, 2) with one value per position")

    def to_csv(self, path) -> None:
        """Write positions and field values as CSV columns x,y,re,im."""
        rows = (
            (p[0], p[1], v.real, v.imag)
            for p, v in zip(self.positions, self.values)
        )
        write_csv(path, ["x", "y", "re", "im"], rows)

    def sidecar(self) -> dict:
        return {
            "seed": list(self.seed) if isinstance(self.seed, (tuple, list)) else self.seed,
            "n_waves": self.n_waves,
            "scenario_hash": self.scenario_hash,
        }

    def to_sidecar_json(self, path) -> None:
        write_json(path, self.sidecar())


def _cluster_directions(cluster, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n unit arrival directions from one cluster's hemisphere density."""
    a = cluster.alpha
    if a == 0.0 or cluster.theta_r == 0.0:
        v = rng.random(n)
        if a == 0.0:
            ct = 1.0 - v
        else:
            ct = 1.0 + np.log1p(-v * (1.0 - math.exp(-a))) / a
        st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
        ph = TWO_PI * rng.random(n)
        return np.column_stack([st * np.cos(ph), st * np.sin(ph), ct])

    # Rotated cluster: draw from the full-sphere density about the modal
    # direction, keep upper-hemisphere draws.
    xi = cluster.modal_direction
    e1 = np.cross([0.0, 0.0, 1.0], xi)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(xi, e1)
    out = np.empty((n, 3))
    filled = 0
    while filled < n:
        batch = max(64, int(1.5 * (n - filled)) + 16)
        v = rng.random(batch)
        w = 1.0 + np.log(v + (1.0 - v) * math.exp(-2.0 * a)) / a
        st = np.sqrt(np.clip(1.0 - w * w, 0.0, None))
        tang = TWO_PI * rng.random(batch)
        dirs = (w[:, None] * xi[None, :]
                + (st * np.cos(tang))[:, None] * e1[None, :]
                + (st * np.sin(tang))[:, None] * e2[None, :])
        dirs = dirs[dirs[:, 2] >= 0.0]
        take = min(len(dirs), n - filled)
        out[filled:filled + take] = dirs[:take]
        filled += take
    return out


def _plane_wave_sum(positions: np.ndarray, k: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """sum_m g_m exp(i r . k_m) evaluated with real trigonometric products.

    Splitting into cos/sin parts keeps every matrix product in real
    arithmetic, which is substantially faster than forming the complex
    phase matrix.  Blocks of at most ``_ROW_CHUNK * _NODE_CHUNK`` phases, at
    most ``_NODE_CHUNK`` waves wide, are summed in a fixed order.
    """
    nodes = min(len(k), _NODE_CHUNK)
    rows = _ROW_CHUNK * _NODE_CHUNK // nodes
    out = np.zeros(len(positions), dtype=complex)
    for r0 in range(0, len(positions), rows):
        acc = out[r0:r0 + rows]
        for c0 in range(0, len(k), nodes):
            g = gains[c0:c0 + nodes]
            phase = positions[r0:r0 + rows] @ k[c0:c0 + nodes].T
            c = np.cos(phase)
            sn = np.sin(phase, out=phase)
            acc.real += c @ g.real - sn @ g.imag
            acc.imag += c @ g.imag + sn @ g.real
    return out


def _exp_table(lo: int, hi: int, b: np.ndarray) -> np.ndarray:
    """exp(i n b_m) for n = lo..hi, as a (hi - lo + 1, len(b)) table.

    Each row is the product of a row of a coarse table (the multiples of a
    stride c) and a row of a fine one (offsets 0..c-1), so only about
    2*sqrt(hi - lo + 1) rows need the costly complex exponential and every
    entry carries a single extra rounding.  Row n = 0 is exactly 1.
    """
    count = hi - lo + 1
    c = math.isqrt(count - 1) + 1
    first = lo // c
    coarse = np.exp(1j * np.outer(c * np.arange(first, hi // c + 1), b))
    fine = np.exp(1j * np.outer(np.arange(c), b))
    table = (coarse[:, None, :] * fine[None, :, :]).reshape(-1, len(b))
    return table[lo - c * first:][:count]


def _lattice_wave_sum(q: np.ndarray, indices: np.ndarray, k: np.ndarray,
                      gains: np.ndarray) -> np.ndarray:
    """sum_m g_m exp(i (Q n) . k_m) at the integer lattice indices n.

    With ``b = Q.T @ k`` each wave factors as ``exp(i n1 b1) exp(i n2 b2)``,
    so the sum over the whole index box is one complex matrix product of two
    small exponential tables per ``_NODE_CHUNK`` waves, from which the
    requested indices are gathered.
    """
    lo = indices.min(axis=0)
    hi = indices.max(axis=0)
    box = 0
    for c0 in range(0, len(k), _NODE_CHUNK):
        b = k[c0:c0 + _NODE_CHUNK] @ q
        e1 = _exp_table(lo[0], hi[0], b[:, 0])
        e2 = _exp_table(lo[1], hi[1], b[:, 1])
        box = box + e1 @ (e2 * gains[c0:c0 + _NODE_CHUNK]).T
    return box[indices[:, 0] - lo[0], indices[:, 1] - lo[1]]


def _scenario_directions(s: ScatteringScenario, rng: np.random.Generator, n: int) -> np.ndarray:
    cum = np.cumsum([c.weight for c in s.clusters])
    cum[-1] = 1.0
    pick = np.searchsorted(cum, rng.random(n), side="right")
    out = np.empty((n, 3))
    for i, cluster in enumerate(s.clusters):
        sel = np.flatnonzero(pick == i)
        if sel.size:
            out[sel] = _cluster_directions(cluster, rng, sel.size)
    return out


def _draw_waves(s: ScatteringScenario, rng: np.random.Generator,
                n_waves: int) -> tuple[np.ndarray, np.ndarray]:
    """In-plane wavevectors and complex Gaussian gains for one realization."""
    dirs = _scenario_directions(s, rng, n_waves)
    k = s.kn.kappa * dirs[:, :2]
    gains = (rng.standard_normal(n_waves) + 1j * rng.standard_normal(n_waves)) / math.sqrt(2.0)
    return k, gains


def synthesize(s: ScatteringScenario, positions, seed, n_waves: int = 1024) -> FieldRealization:
    """Synthesize one field realization as a finite sum of plane waves.

    ``n_waves`` directions are drawn from the scenario's angular density and
    combined with i.i.d. standard complex Gaussian gains, scaled by
    ``1/sqrt(n_waves)`` so the per-point power is one.  Every drawn in-plane
    wavevector lies inside the wavevector disk.

    Parameters
    ----------
    s : ScatteringScenario
    positions : (N, 2) array_like
        Plane positions at which the field is evaluated.
    seed : int or sequence of int
        Feeds ``numpy.random.default_rng``; the full draw is deterministic.
    n_waves : int
        Number of plane waves in the sum (default 1024).
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if positions.shape[-1] != 2:
        raise ValueError("positions must have two columns")
    if n_waves < 1:
        raise ValueError(f"n_waves must be positive, got {n_waves!r}")
    rng = np.random.default_rng(seed)
    k, gains = _draw_waves(s, rng, n_waves)
    values = _plane_wave_sum(positions, k, gains) / math.sqrt(n_waves)
    return FieldRealization(
        positions=positions,
        values=values,
        seed=seed,
        n_waves=n_waves,
        scenario_hash=s.scenario_hash,
    )
