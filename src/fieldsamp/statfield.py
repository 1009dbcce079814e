"""Second-order statistics and Monte Carlo synthesis of scattered fields.

The field is a zero-mean stationary circularly-symmetric Gaussian process
over the plane with unit power per point.  Its spatial autocorrelation is
the hemisphere integral of the squared spectral factor against the plane
wave phase, a plane-wave sum over quadrature nodes; for isotropic scattering
this reduces to the classic ``sinc(2|r|/wavelength)`` profile.  Realizations
are synthesized as finite sums of plane waves with directions drawn from the
scenario's angular density and independent complex Gaussian gains.  Either
sum is evaluated at any positions by ``_plane_wave_sum`` and at lattice
indices by ``_lattice_wave_sum``.  The latter factors each wave over the
index box into two exponential tables whose only trigonometry is
``bit_length`` rows per axis (6 for the indices -32..32); every table
entry is within about 1e-15 of the exact exponential.  On a lattice ``Q n``
the autocorrelation is also the Fourier series of the spectrum periodized
on ``P = 2 pi inv(Q.T)``, so for a spectrum without power near the horizon
one FFT over the reciprocal cell gives the whole table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from ._quad import hemisphere_rule, refine
from .geometry import TWO_PI, Wavenumber
from .lattice import (SamplingMatrix, _ellipse_rows, _lattice_coords, _reduced_basis,
                      periodicity_from_sampling)
from .scattering import ScatteringScenario, _cap_cosine, _factor_sq

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
# NumericAcf.eval_lattice takes its torus route up to this cluster horizon
# weight (a weight w costs it about 1.2e5 * w at K = 256, so at most 1.2e-11)
# and this reciprocal-cell area over the disk area (1.10 hex, 1.27 rect; at
# 5.1 a 480-step 1-D lattice no longer converges by K = 1024)
_RIM_MAX = 1e-16
_CELL_MAX = 2.0
_NODE_CHUNK = 32768
_ROW_CHUNK = 32  # a block of 2^20 phases is 8 MB; 512 rows streamed 134-MB temporaries


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
    node's plane wave at every displacement (``_plane_wave_sum``).

    ``eval_lattice`` takes one of two routes, picked from the scenario and
    ``Q`` alone.  When every cluster's horizon weight
    ``exp(alpha (sin theta_r - 1))`` is at most ``_RIM_MAX = 1e-16`` and the
    reciprocal cell ``P = 2 pi inv(Q.T)`` covers at most ``_CELL_MAX = 2``
    disk areas (every Nyquist lattice), it sums the spectrum's Fourier
    series over a K x K torus grid with one FFT (``_torus_lattice``), within
    about 1e-11 of the quadrature.  The ``1/k_z`` singularity at the horizon
    breaks that trapezoid rule, and an oversampled ``Q`` leaves the disk a
    small share of the grid, so every other case keeps the quadrature: it
    factors each node's phase at ``Q n`` as ``exp(i n1 b1) exp(i n2 b2)``
    with ``b = Q.T k`` and sums over the integer index box
    (``_lattice_wave_sum``), so it needs exponentials only along the two
    axes of the box: a box of side ``2P + 1`` costs ``bit_length(P)`` rows of
    cos/sin per axis, and each factor is within about 1e-15 of the exact
    exponential.  Both routes run the same level sequence and convergence
    test; the torus route's K is each level's azimuth count.
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
        p = periodicity_from_sampling(SamplingMatrix(q)).p
        rim = max(math.exp(c.alpha * (math.sin(c.theta_r) - 1.0))
                  for c in self.scenario.clusters)
        cell = abs(np.linalg.det(p)) / (math.pi * self.kn.kappa ** 2)
        if rim <= _RIM_MAX and cell <= _CELL_MAX:
            return self._torus_lattice(p, indices)
        ext = np.vstack([indices, [[0, 0]]])
        return self._refine(lambda k, w: _lattice_wave_sum(q, ext, k, w))

    def _torus_lattice(self, p: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """The lattice ACF as the Fourier series of the periodized spectrum.

        With ``k = P theta`` and ``P.T Q = 2 pi I``, ``c(Q d)`` is the
        ``d``-th Fourier coefficient of the in-plane density
        ``S(k) = F(u) / k_z`` summed over its replicas ``k - P m`` (Poisson
        summation, exact for any ``Q``).  A K x K trapezoid rule over the
        cell gives every coefficient from one real FFT; it is the coefficient
        plus its aliases ``d + K m``, so a K below the index span aliases
        wherever the ACF has not decayed and fails the test between levels.
        The cell is spanned by the reduced basis ``P U`` and centred on the
        origin, which gathers ``d`` at ``U.T d mod K``.  K is the azimuth
        count of each ``_ACF_LEVELS`` level, refined as the quadrature is.
        """
        kap = self.kn.kappa
        u, v = _reduced_basis(p)
        basis = np.column_stack([u, v])
        gather = indices @ _lattice_coords(p, basis.T)[0].T
        # replicas whose disk reaches the centred cell, whose corners are
        # (+-u +- v)/2; the swap keeps them l1-major, the order dens is summed in
        reach = kap + 0.5 * max(np.linalg.norm(u + v), np.linalg.norm(u - v))
        offsets = _ellipse_rows(basis[:, ::-1], reach)[:, ::-1] @ basis.T
        offsets = offsets[np.hypot(offsets[:, 0], offsets[:, 1]) < reach]

        def level(nodes):
            size = nodes[1]
            theta = np.fft.fftfreq(size)
            dens = np.zeros((size, size))
            for o in offsets:  # one K x K set of temporaries at a time
                kx = np.add.outer(theta * u[0], theta * v[0] - o[0])
                ky = np.add.outer(theta * u[1], theta * v[1] - o[1])
                rad2 = kx * kx + ky * ky
                inside = rad2 < kap * kap
                kz = np.sqrt(kap * kap - rad2[inside])
                dirs = np.column_stack([kx[inside], ky[inside], kz]) / kap
                dens[inside] += _factor_sq(self.scenario, dirs) / kz
            coef = np.fft.rfft2(dens)
            # c(e) is conj(coef[e]) for e2 <= K/2 and coef[-e] beyond
            e = gather % size
            flip = e[:, 1] > size // 2
            e[flip] = -e[flip] % size
            vals = coef[e[:, 0], e[:, 1]]
            vals = np.where(flip, vals, vals.conj())
            # real divisions, so that c(0) = coef[0, 0] / coef[0, 0] is exactly 1
            vals.real /= coef[0, 0].real
            vals.imag /= coef[0, 0].real
            return vals

        return refine(_ACF_LEVELS, level, _ACF_TOL, "autocorrelation torus sum")


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
        ct = _cap_cosine(a, 1.0, rng.random(n))
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
        w = _cap_cosine(a, 2.0, 1.0 - rng.random(batch))  # 1 - v: draws keep their order
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
    phase matrix: each trigonometric block is multiplied once against the
    real ``(M, 2)`` matrix ``[Re g, Im g]``, so real and complex gains take
    the same two products.  Blocks of at most ``_ROW_CHUNK * _NODE_CHUNK``
    phases, at most ``_NODE_CHUNK`` waves wide, are summed in a fixed order.
    """
    nodes = min(len(k), _NODE_CHUNK)
    rows = _ROW_CHUNK * _NODE_CHUNK // nodes
    out = np.zeros(len(positions), dtype=complex)
    for r0 in range(0, len(positions), rows):
        acc = out[r0:r0 + rows]
        for c0 in range(0, len(k), nodes):
            g = gains[c0:c0 + nodes]
            parts = np.column_stack([g.real, g.imag])
            phase = positions[r0:r0 + rows] @ k[c0:c0 + nodes].T
            c = np.cos(phase) @ parts
            sn = np.sin(phase, out=phase) @ parts
            acc.real += c[:, 0] - sn[:, 1]
            acc.imag += c[:, 1] + sn[:, 0]
    return out


def _exp_table(lo: int, hi: int, b: np.ndarray) -> np.ndarray:
    """exp(i n b_m) for n = lo..hi, as a (hi - lo + 1, len(b)) table.

    cos and sin are evaluated only at the arguments ``2^j b`` for
    ``j < bit_length(max(|lo|, |hi|))``, which are exact, so a table over
    ``-1024..1024`` costs 11 rows of trigonometry.  The rows between are
    filled by doubling on one side of zero: rows ``w+1..2w-1`` are rows
    ``1..w-1`` times row ``w``, so row ``n`` is a product of one factor per
    set bit of ``|n|`` and carries one rounding per factor.  Against a
    long-double reference the error stays below 1e-15 for ``|n| <= 1024``
    and ``|b| <= 2 pi``.  The other side of zero is the exact conjugate of
    this one, and row ``n = 0`` is exactly 1.  A range that misses zero is
    built from zero and returned as a slice of rows.
    """
    first, last = min(lo, 0), max(hi, 0)
    table = np.empty((last - first + 1, len(b)), dtype=complex)
    up, down = table[-first:], table[-first::-1]
    filled, mirror, sign = (up, down, 1.0) if last >= -first else (down, up, -1.0)
    filled[0] = 1.0
    w = 1
    while w < len(filled):
        x = (sign * w) * b
        row = filled[w]
        np.cos(x, out=row.real)
        np.sin(x, out=row.imag)
        end = min(2 * w, len(filled))
        np.multiply(filled[1:end - w], row, out=filled[w + 1:end])
        w *= 2
    np.conjugate(filled[1:len(mirror)], out=mirror[1:])
    return table[lo - first:hi - first + 1]


def _lattice_wave_sum(q: np.ndarray, indices: np.ndarray, k: np.ndarray,
                      gains: np.ndarray) -> np.ndarray:
    """sum_m g_m exp(i (Q n) . k_m) at the integer lattice indices n.

    With ``b = Q.T @ k`` each wave factors as ``exp(i n1 b1) exp(i n2 b2)``,
    so the sum over the whole index box is one complex matrix product of two
    small exponential tables per ``_NODE_CHUNK`` waves, from which the
    requested indices are gathered.  A box of side ``2P + 1`` needs only
    ``bit_length(P)`` rows of cos/sin per axis (``_exp_table``), and every
    table entry is within about 1e-15 of the exact exponential.
    """
    n1, n2 = indices[:, 0], indices[:, 1]
    lo1, hi1, lo2, hi2 = n1.min(), n1.max(), n2.min(), n2.max()
    box = 0
    for c0 in range(0, len(k), _NODE_CHUNK):
        b = k[c0:c0 + _NODE_CHUNK] @ q
        e1 = _exp_table(lo1, hi1, b[:, 0])
        e2 = _exp_table(lo2, hi2, b[:, 1])
        e2 *= gains[c0:c0 + _NODE_CHUNK]
        box = box + e1 @ e2.T
        del e1, e2  # before the next chunk's tables are built
    return box[n1 - lo1, n2 - lo2]


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
