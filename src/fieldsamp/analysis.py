"""Degrees of freedom, autocorrelation spectra, and reconstruction error.

A bandlimited field observed on a square region carries a finite number of
effective degrees of freedom, proportional to the product of region area and
spectral support measure.  This module computes that number three ways --
the area formula, Fourier mode counting, and eigenvalue analysis of the
sampled autocorrelation matrix -- and measures the truncation error of
cardinal-series reconstruction from finitely many samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Region, SpectralSupport, TWO_PI, support_measure
from .kernels import Kernel
from .lattice import LatticePointSet, SamplingMatrix, alias_free, enumerate_lattice
from .scattering import ScatteringScenario
from .statfield import Acf, FieldRealization, _draw_waves, _lattice_wave_sum

__all__ = [
    "DofReport",
    "AutocorrMatrix",
    "EigenSpectrum",
    "MseReport",
    "dof",
    "dof_loss_rect_vs_disk",
    "count_wavenumber_modes",
    "build_autocorr_matrix",
    "eigen_spectrum",
    "power_capture_count",
    "reconstruct",
    "mse_experiment",
]


@dataclass(frozen=True)
class DofReport:
    """Degrees of freedom of a support observed on a square region."""

    support_kind: str
    side: float
    dof_real: float
    dof_count: int


def dof(s: SpectralSupport, region: Region) -> DofReport:
    """Area-formula degrees of freedom: ``m(region) * m(support) / (2*pi)^2``.

    Disk support on a side-L region gives ``pi * (L/wavelength)^2``; the
    square support gives ``(2L/wavelength)^2``; an ellipse scales the disk
    value by ``a1*a2``.  The integer count is the ceiling of the real value.
    """
    value = region.area * support_measure(s) / (TWO_PI * TWO_PI)
    return DofReport(
        support_kind=s.kind,
        side=region.side,
        dof_real=value,
        dof_count=int(math.ceil(value)),
    )


def dof_loss_rect_vs_disk() -> float:
    """Fraction of the square support's degrees of freedom that carry no field.

    The disk occupies ``pi/4`` of its bounding square, so half-wavelength
    rectangular analysis overcounts by ``1 - pi/4`` (about 21.5%).
    """
    return 1.0 - math.pi / 4.0


def count_wavenumber_modes(s: SpectralSupport, region: Region) -> int:
    """Number of Fourier modes of the region falling inside the support.

    Counts integer pairs ``l`` with ``(2*pi/L) * l`` in the (closed) support.
    Membership is tested in integer-scaled coordinates so boundary modes are
    decided exactly when the radius ``kappa*L/(2*pi)`` is itself exact.
    """
    radius = s.kn.kappa * region.side / TWO_PI
    # the support fits in the square of half-side radius * |inv(to_base)|_2
    bound = int(math.ceil(radius * np.linalg.norm(np.linalg.inv(s.to_base), 2))) + 1
    axis = np.arange(-bound, bound + 1)
    lx, ly = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([lx.ravel(), ly.ravel()]) @ s.to_base.T
    limit = radius * (1.0 + 1e-12)
    if s.kind == "rect":
        inside = np.all(np.abs(pts) <= limit, axis=1)
    else:
        inside = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= limit * limit
    return int(np.count_nonzero(inside))


@dataclass(frozen=True)
class AutocorrMatrix:
    """Autocorrelation of the field across a lattice point set.

    ``entries[i, j] = c(r_i - r_j)``; Hermitian with a unit diagonal and, up
    to round-off, positive semidefinite.  ``build_autocorr_matrix`` evaluates
    the ACF once per +/- pair of index differences and returns a real
    symmetric ``float64`` matrix when the ACF's values are real, complex
    otherwise.
    """

    entries: np.ndarray
    points: LatticePointSet
    acf: Acf

    def __post_init__(self):
        c = np.asarray(self.entries)
        n = len(self.points)
        if c.shape != (n, n):
            raise ValueError(f"entries must be {n}x{n} to match the point set")
        if np.abs(c - c.conj().T).max() > 1e-12:
            raise ValueError("autocorrelation matrix must be Hermitian within 1e-12")
        if np.abs(np.diagonal(c) - 1.0).max() > 1e-9:
            raise ValueError("autocorrelation diagonal must be 1 within 1e-9")


def build_autocorr_matrix(points: LatticePointSet, acf: Acf) -> AutocorrMatrix:
    """Autocorrelation matrix over all pairs of lattice points.

    Index differences of the point set lie in the box ``|d| <= span`` of its
    index extent, so each pair gets an integer key into that box.  The ACF is
    evaluated once, on the present differences in the upper half of the box
    (``d`` lexicographically at least 0), so each +/- pair costs one
    evaluation; the mirrored half follows from ``c(-r) = conj c(r)``.  One
    gather of the key table builds the matrix, Hermitian by construction.
    The differences reach the ACF as integer indices through
    ``acf.eval_lattice(Q, d)``, so a quadrature ACF can factor its phases
    over the box (``NumericAcf``); other ACFs see the displacements ``Q d``.
    When every evaluated value is real (as for the isotropic sinc ACF) the
    matrix is real symmetric ``float64``.
    """
    idx = points.indices.astype(np.int64)
    span = np.ptp(idx, axis=0)
    width = 2 * span[1] + 1
    size = (2 * span[0] + 1) * width
    centre = (size - 1) // 2
    code = idx[:, 0] * width + idx[:, 1]
    key = code[:, None] - code[None, :] + centre
    present = np.zeros(size, dtype=bool)
    present[key] = True
    half = np.flatnonzero(present[centre:]) + centre
    diffs = np.column_stack([half // width - span[0], half % width - span[1]])
    vals = np.asarray(acf.eval_lattice(points.q.q, diffs))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = points.q.q @ diffs[np.argmax(bad)]
        raise ValueError(f"ACF returned a non-finite value at displacement {tuple(where)}")
    if not np.any(vals.imag):
        vals = vals.real
    table = np.zeros(size, dtype=vals.dtype)
    table[size - 1 - half] = vals.conj()
    table[half] = vals
    return AutocorrMatrix(entries=table[key], points=points, acf=acf)


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues of an autocorrelation matrix, descending, with their sum."""

    values: np.ndarray
    total: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or np.any(np.diff(v) > 0.0):
            raise ValueError("eigenvalues must be a descending 1-D array")


def eigen_spectrum(c: AutocorrMatrix) -> EigenSpectrum:
    """Descending eigenvalue spectrum of the autocorrelation matrix.

    Negative round-off eigenvalues above ``-1e-8`` relative to the trace are
    clamped to zero; anything more negative is treated as a defective ACF.
    """
    entries = np.asarray(c.entries)
    try:
        vals = np.linalg.eigvalsh(entries)
    except np.linalg.LinAlgError as exc:
        diag = float(np.abs(np.diagonal(entries)).max())
        off = float(np.abs(entries).max())
        raise RuntimeError(
            f"eigensolver failed (max |diag| {diag:.3e}, max |entry| {off:.3e}): {exc}"
        ) from exc
    trace = float(np.trace(entries).real)
    floor = -1e-8 * max(trace, 1.0)
    if vals.min() < floor:
        raise ValueError(
            f"autocorrelation matrix is not PSD within tolerance: "
            f"min eigenvalue {vals.min():.3e} < {floor:.3e}"
        )
    vals = np.clip(vals, 0.0, None)[::-1].copy()
    return EigenSpectrum(values=vals, total=float(vals.sum()))


def power_capture_count(e: EigenSpectrum, fraction: float) -> int:
    """Smallest number of leading eigenvalues capturing ``fraction`` of the sum.

    ``fraction=1`` returns the number of nonzero eigenvalues.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must lie in (0, 1], got {fraction!r}")
    if fraction == 1.0:
        return int(np.count_nonzero(e.values > 0.0))
    cum = np.cumsum(e.values)
    idx = int(np.searchsorted(cum, fraction * e.total))
    return min(idx, len(cum) - 1) + 1


def _check_on_lattice(positions: np.ndarray, q: SamplingMatrix) -> None:
    n = positions @ np.linalg.inv(q.q).T
    err = np.abs(n - np.round(n)).max() if len(n) else 0.0
    if err > 1e-9:
        raise ValueError(
            f"sample positions do not lie on the lattice of the sampling matrix "
            f"(max index residual {err:.3e})"
        )


def _check_pairing(kern: Kernel, q: SamplingMatrix, allow_mismatched: bool) -> None:
    if not allow_mismatched and not alias_free(kern.support, q):
        raise ValueError(
            "kernel support replicas overlap on this lattice; pass "
            "allow_mismatched=True to force the mismatched pairing"
        )


def _interp_matrix(kern: Kernel, query: np.ndarray, samples: np.ndarray) -> np.ndarray:
    out = np.empty((len(query), len(samples)))
    for r0 in range(0, len(query), _INTERP_ROWS):
        diff = query[r0:r0 + _INTERP_ROWS, None, :] - samples[None, :, :]
        out[r0:r0 + _INTERP_ROWS] = kern(diff)
    return out


def reconstruct(samples: FieldRealization, q: SamplingMatrix, kern: Kernel,
                query, allow_mismatched: bool = False) -> np.ndarray:
    """Cardinal-series reconstruction of the field at query positions.

    ``e_hat(r) = sum_n e(r_n) f(r - r_n)`` over the available samples.  The
    sample positions must lie on the lattice of ``q``, and the kernel must be
    alias-free on that lattice unless ``allow_mismatched`` is set.
    """
    query = np.atleast_2d(np.asarray(query, dtype=float))
    if query.shape[-1] != 2:
        raise ValueError("query positions must have two columns")
    positions = np.asarray(samples.positions, dtype=float)
    _check_on_lattice(positions, q)
    _check_pairing(kern, q, allow_mismatched)
    f = _interp_matrix(kern, query, positions)
    return f @ samples.values


@dataclass(frozen=True)
class MseReport:
    """Truncation mean squared error of cardinal-series reconstruction.

    ``pointwise[i, j]`` is the Monte Carlo MSE at evaluation grid position
    ``(axis[i], axis[j])``; ``average`` is its spatial mean and
    ``normalized`` the same divided by the unit field power.
    """

    axis: np.ndarray
    pointwise: np.ndarray
    average: float
    normalized: float
    n_realizations: int
    n_samples: int


_INTERP_ROWS = 256
_MSE_BLOCK = 16


def _substream(seed, index: int) -> list:
    if isinstance(seed, (tuple, list, np.ndarray)):
        return [int(v) for v in seed] + [int(index)]
    return [int(seed), int(index)]


def mse_experiment(s: ScatteringScenario, q: SamplingMatrix, kern: Kernel,
                   region: Region, eval_region: Region | None = None,
                   n_realizations: int = 500, seed: int = 42,
                   n_waves: int = 1024, points_per_lambda: int = 8,
                   workers: int = 1, allow_mismatched: bool = False) -> MseReport:
    """Monte Carlo reconstruction MSE over an interior evaluation grid.

    Fields are synthesized from the scenario, sampled on the lattice of
    ``q`` restricted to ``region``, reconstructed with ``kern``, and
    compared on a uniform grid of ``points_per_lambda`` points per
    wavelength covering ``eval_region`` (default: the observation region
    shrunk by a quarter of its side on each side, keeping the comparison
    away from the truncation boundary).

    Realization ``i`` draws from the deterministic substream
    ``default_rng([seed, i])``, so results are reproducible bit for bit; the
    same substream yields the same field across schemes, making scheme
    comparisons common-random-number paired.  Realizations are reconstructed
    in fixed blocks of 16, one matrix product per block, so block boundaries
    depend on ``n_realizations`` alone.  ``workers`` is validated but changes
    neither the results nor the execution: the BLAS library already runs the
    matrix products on every core it uses.

    The grid and the samples are symmetric through the origin (grid row
    ``G-1-r`` is at ``-grid[r]``, sample row ``N-1-n`` at ``-r_n``), and the
    kernel is even, so the interpolation matrix's bottom rows are its top
    rows with the samples reversed.  Only the ``(G+1)//2`` rows up to the
    grid centre are built; each block's product with the samples and the
    reversed samples gives the whole reconstruction.  The centre row is
    checked to equal its own reverse within 1e-12, so a kernel that is not
    even raises ``ValueError``.
    """
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be positive, got {n_realizations!r}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers!r}")
    if eval_region is None:
        eval_region = Region(side=0.5 * region.side)
    if eval_region.side > region.side * (1.0 + 1e-12):
        raise ValueError("evaluation region must lie inside the observation region")

    pts = enumerate_lattice(q, region)
    _check_pairing(kern, q, allow_mismatched)

    # the evaluation grid is the lattice step*I over a square index box
    step = s.kn.wavelength / points_per_lambda
    half = int(math.floor(0.5 * eval_region.side / step + 1e-9))
    grid_axis = np.arange(-half, half + 1)
    gx, gy = np.meshgrid(grid_axis, grid_axis, indexing="ij")
    grid_idx = np.column_stack([gx.ravel(), gy.ravel()])
    grid_q = step * np.eye(2)
    axis = grid_axis * step

    # rows up to the grid centre; the rest mirror them (see the docstring)
    n_grid = len(grid_idx)
    top = (n_grid + 1) // 2
    f = _interp_matrix(kern, grid_idx[:top] * step, pts.positions)
    centre = f[top - 1]
    if np.abs(centre - centre[::-1]).max() > 1e-12:
        raise ValueError("kernel must be even: f(-r) and f(r) differ by more than "
                         "1e-12 at the sample positions")
    n_s = len(pts)
    root_m = math.sqrt(n_waves)
    total = np.zeros(n_grid)
    for b0 in range(0, n_realizations, _MSE_BLOCK):
        width = min(_MSE_BLOCK, n_realizations - b0)
        stacked = np.empty((n_s, 2 * width))
        truth = np.empty((n_grid, width), dtype=complex)
        for j in range(width):
            # same wave draw as synthesize() for this substream
            rng = np.random.default_rng(_substream(seed, b0 + j))
            k, gains = _draw_waves(s, rng, n_waves)
            es = _lattice_wave_sum(q.q, pts.indices, k, gains) / root_m
            stacked[:, j] = es.real
            stacked[:, width + j] = es.imag
            truth[:, j] = _lattice_wave_sum(grid_q, grid_idx, k, gains) / root_m
        both = f @ np.hstack([stacked, stacked[::-1]])
        recon = np.vstack([both[:, :2 * width], both[:n_grid - top, 2 * width:][::-1]])
        total += ((truth.real - recon[:, :width]) ** 2
                  + (truth.imag - recon[:, width:]) ** 2).sum(axis=1)

    pointwise = (total / n_realizations).reshape(len(axis), len(axis))
    average = float(pointwise.mean())
    return MseReport(
        axis=axis,
        pointwise=pointwise,
        average=average,
        normalized=average / 1.0,
        n_realizations=n_realizations,
        n_samples=n_s,
    )
