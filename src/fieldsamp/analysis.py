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
    "mse_experiments",
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


def _check_pairing(kern: Kernel, q: SamplingMatrix) -> None:
    if not alias_free(kern.support, q):
        raise ValueError("kernel support replicas overlap on this lattice: "
                         "the pairing aliases")


def _interp_matrix(kern: Kernel, query: np.ndarray, samples: np.ndarray) -> np.ndarray:
    out = np.empty((len(query), len(samples)))
    # the kernel is elementwise, so any row chunking gives the same matrix;
    # a fixed element budget keeps each chunk's temporaries small
    rows = max(1, _INTERP_ELEMS // max(1, len(samples)))
    for r0 in range(0, len(query), rows):
        diff = query[r0:r0 + rows, None, :] - samples[None, :, :]
        out[r0:r0 + rows] = kern(diff)
    return out


def reconstruct(samples: FieldRealization, q: SamplingMatrix, kern: Kernel, query) -> np.ndarray:
    """Cardinal-series reconstruction of the field at query positions.

    ``e_hat(r) = sum_n e(r_n) f(r - r_n)`` over the available samples.  The
    sample positions must lie on the lattice of ``q``, and the kernel's
    support must be alias-free on that lattice (``alias_free``); otherwise
    ``ValueError`` is raised.
    """
    query = np.atleast_2d(np.asarray(query, dtype=float))
    if query.shape[-1] != 2:
        raise ValueError("query positions must have two columns")
    positions = np.asarray(samples.positions, dtype=float)
    _check_on_lattice(positions, q)
    _check_pairing(kern, q)
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


_INTERP_ELEMS = 32768
_MSE_BLOCK = 16
_MSE_GROUP = 128  # a multiple of _MSE_BLOCK, so blocks never straddle groups


def mse_experiment(s: ScatteringScenario, q: SamplingMatrix, kern: Kernel,
                   region: Region, n_realizations: int = 500, seed: int = 42,
                   n_waves: int = 1024, workers: int = 1) -> MseReport:
    """Monte Carlo reconstruction MSE of one sampling scheme.

    The one-scheme case of ``mse_experiments``, which documents the
    arguments, the evaluation grid and the substreams; the report is the one
    it gives for ``[(q, kern)]``, bit for bit.
    """
    return mse_experiments(s, [(q, kern)], region, n_realizations=n_realizations,
                           seed=seed, n_waves=n_waves, workers=workers)[0]


def mse_experiments(s: ScatteringScenario, schemes: list[tuple[SamplingMatrix, Kernel]],
                    region: Region, n_realizations: int = 500, seed: int = 42,
                    n_waves: int = 1024, workers: int = 1) -> list[MseReport]:
    """Monte Carlo reconstruction MSE of several schemes on the same fields.

    ``schemes`` is a sequence of ``(q, kern)`` pairs; one ``MseReport`` is
    returned per pair, in order.  Fields are synthesized from the scenario,
    sampled on the lattice of each ``q`` restricted to ``region``,
    reconstructed with its ``kern``, and compared on a uniform grid of 8
    points per wavelength covering the central square of half the region's
    side, away from the truncation boundary.  Every argument is checked, and
    every pairing must be alias-free (``alias_free``), before any wave is
    drawn; an aliasing pairing raises ``ValueError``.

    Realization ``i`` draws from the deterministic substream
    ``default_rng([seed, i])``, so results are reproducible bit for bit and
    the schemes are common-random-number paired: all of them see the same
    field.  Each realization's waves are therefore drawn once, and its true
    field on the grid synthesized once, for all schemes.  Realizations run
    in groups of 128; a group's truth is kept as an ``n_grid x group``
    complex table, so at most ``min(R, 128) * n_grid * 16`` bytes of it are
    held whatever ``n_realizations`` (R) is.  Each scheme's interpolation
    matrix is rebuilt per group, once when R <= 128.  Within a group,
    realizations are reconstructed in fixed blocks of 16, one matrix product
    per block; block boundaries depend on R alone, and a scheme's errors are
    summed in the same order whether it runs alone or with others.
    ``workers`` is validated but changes neither the results nor the
    execution: the BLAS library already runs the matrix products on every
    core it uses.

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
    for q, kern in schemes:
        _check_pairing(kern, q)
    lattices = [enumerate_lattice(q, region) for q, _ in schemes]

    # the evaluation grid is the lattice step*I over a square index box
    step = s.kn.wavelength / 8
    half = int(math.floor(0.25 * region.side / step + 1e-9))
    grid_axis = np.arange(-half, half + 1)
    gx, gy = np.meshgrid(grid_axis, grid_axis, indexing="ij")
    grid_idx = np.column_stack([gx.ravel(), gy.ravel()])
    grid_q = step * np.eye(2)
    # rows up to the grid centre; the rest mirror them (see the docstring)
    query = grid_idx[:(len(grid_idx) + 1) // 2] * step

    root_m = math.sqrt(n_waves)
    totals = [np.zeros(len(grid_idx)) for _ in schemes]
    for g0 in range(0, n_realizations, _MSE_GROUP):
        # same wave draws as synthesize() for these substreams
        waves = [_draw_waves(s, np.random.default_rng([seed, i]), n_waves)
                 for i in range(g0, min(g0 + _MSE_GROUP, n_realizations))]
        truth = np.empty((len(grid_idx), len(waves)), dtype=complex)
        for j, (k, gains) in enumerate(waves):
            truth[:, j] = _lattice_wave_sum(grid_q, grid_idx, k, gains) / root_m
        for (q, kern), pts, total in zip(schemes, lattices, totals):
            _add_squared_errors(total, q, kern, pts, query, waves, truth, root_m)

    axis = grid_axis * step
    reports = []
    for pts, total in zip(lattices, totals):
        pointwise = (total / n_realizations).reshape(len(axis), len(axis))
        average = float(pointwise.mean())
        reports.append(MseReport(
            axis=axis,
            pointwise=pointwise,
            average=average,
            normalized=average / 1.0,
            n_realizations=n_realizations,
            n_samples=len(pts),
        ))
    return reports


def _add_squared_errors(total: np.ndarray, q: SamplingMatrix, kern: Kernel,
                        pts: LatticePointSet, query: np.ndarray, waves: list,
                        truth: np.ndarray, root_m: float) -> None:
    """Add one group's squared reconstruction errors of one scheme into ``total``.

    ``query`` holds the grid rows up to the centre, ``waves`` the group's
    draws and ``truth`` their fields on the whole grid, one column each.
    """
    n_grid, top = len(truth), len(query)
    f = _interp_matrix(kern, query, pts.positions)
    centre = f[top - 1]
    if np.abs(centre - centre[::-1]).max() > 1e-12:
        raise ValueError("kernel must be even: f(-r) and f(r) differ by more than "
                         "1e-12 at the sample positions")
    n_s = len(pts)
    for b0 in range(0, len(waves), _MSE_BLOCK):
        width = min(_MSE_BLOCK, len(waves) - b0)
        stacked = np.empty((n_s, 2 * width))
        for j, (k, gains) in enumerate(waves[b0:b0 + width]):
            es = _lattice_wave_sum(q.q, pts.indices, k, gains) / root_m
            stacked[:, j] = es.real
            stacked[:, width + j] = es.imag
        both = f @ np.hstack([stacked, stacked[::-1]])
        recon = np.vstack([both[:, :2 * width], both[:n_grid - top, 2 * width:][::-1]])
        block = truth[:, b0:b0 + width]
        total += ((block.real - recon[:, :width]) ** 2
                  + (block.imag - recon[:, width:]) ** 2).sum(axis=1)
