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
from .lattice import (
    LatticePointSet,
    SamplingMatrix,
    _index_rows,
    _WINDOW_SLACK,
    _ellipse_rows,
    _lattice_coords,
    _lattice_mirrors,
    _mirror_group,
    _window_cut,
    alias_free,
    enumerate_lattice,
)
from .scattering import ScatteringScenario
from .statfield import _NODE_CHUNK, Acf, FieldRealization, _draw_waves, _lattice_wave_sum

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
    "mse_sweep",
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
    value by ``a1*a2``.  The integer count is the ceiling of the real value;
    a value that overflows raises ``ValueError``.
    """
    value = region.area * support_measure(s) / (TWO_PI * TWO_PI)
    if not math.isfinite(value):
        raise ValueError(f"the degrees of freedom of a side-{region.side:g} region overflow")
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
    limit = s.kn.kappa * region.side / TWO_PI * (1.0 + 1e-12)
    if s.kind == "rect":  # to_base is the identity: the modes fill the square |l|_inf <= limit
        return (2 * math.floor(limit) + 1) ** 2
    pts = _ellipse_rows(s.to_base, limit) @ s.to_base.T
    return int(np.count_nonzero(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= limit * limit))


@dataclass(frozen=True)
class AutocorrMatrix:
    """Autocorrelation of the field across a lattice point set, as a difference table.

    The full matrix ``entries[i, j] = c(r_i - r_j)`` is Hermitian with a
    unit diagonal and, up to round-off, positive semidefinite.  Only
    ``table`` is kept: the ACF's values over the box of index differences
    (``_difference_box``), zero outside the doubled window where no pair
    difference lies.  ``blocks()`` gathers from it, one at a time, the real
    mirror blocks whose eigenvalues together are those of the full matrix
    (``build_autocorr_matrix``); ``entries`` gathers the full matrix, for
    checks; nothing on the eigensolve path builds it.

    Checks: the diagonal is 1 within 1e-9 on construction; a complex table's
    set is symmetric through the origin and the block orders sum to N before
    any gather; each block is symmetric within 1e-12 before it is yielded.
    """

    points: LatticePointSet
    acf: Acf
    table: np.ndarray

    def __post_init__(self):
        if abs(self.table[(len(self.table) - 1) // 2] - 1.0) > 1e-9:
            raise ValueError("autocorrelation diagonal must be 1 within 1e-9")

    @property
    def entries(self) -> np.ndarray:
        """The full ``N x N`` matrix, gathered from the table (for checks)."""
        code, _ = _difference_box(self.points)
        return self.table[code[:, None] - code[None, :] + (len(self.table) - 1) // 2]

    def blocks(self):
        """The mirror blocks, each gathered when asked for; none is held here once yielded."""
        points, table = self.points, self.table
        code, shape = _difference_box(points)
        centre = (table.size - 1) // 2
        diffs = np.column_stack(np.divmod(np.arange(table.size), shape[1])) - shape // 2

        def keeps_table(_, m):
            image = diffs @ m.T
            # a difference may map out of the box, but no pair difference does
            inside = np.all(np.abs(image) <= shape // 2, axis=1)
            image = image[inside] @ [shape[1], 1] + centre
            return np.abs(table[image] - table[inside]).max() <= 1e-12

        cx = np.iscomplexobj(table)
        if cx and not np.isin(-code, code).all():
            raise ValueError("a complex table needs a point set symmetric through the origin")
        # a complex table keeps neither r -> -r, which conjugates it, nor both axis flips:
        # then |c(-d) - c(d)| = 2 |Im c(d)| <= 2e-12 and build_autocorr_matrix made it real
        _, group, _, chars, parts = _mirror_group(points, keeps_table)
        if sum(len(reps) for reps, _ in parts) != len(points):
            raise ValueError(f"block orders must sum to the {len(points)} points")

        def gather(reps, stab, chi):
            out = np.zeros((len(reps), len(reps)))
            # row chunks keep the key and value temporaries small
            step = max(1, _INTERP_ELEMS // max(1, len(reps)))
            for g, sign in zip(group, chi):
                col = code[g[reps]]
                for r0 in range(0, len(reps), step):
                    row = code[reps[r0:r0 + step], None]
                    part = table[row - (col - centre)]
                    if cx:  # r_i + r_j is the pair difference n_i - n_{J j}
                        part = part.real + table[row + (col + centre)].imag
                    out[r0:r0 + step] += sign * part
            out *= (1.0 / np.sqrt(stab))[:, None]
            out *= (1.0 / np.sqrt(stab))[None, :]
            return out

        yield from (_hermitian(gather(*p, chi)) for p, chi in zip(parts, chars) if len(p[0]))


def _difference_box(points: LatticePointSet):
    """Each point's code in the box of index differences, and the box's shape.

    Index differences ``d`` lie in the box ``|d| <= span`` of the index
    extent, of shape ``2 * span + 1``, stored row-major, so
    ``code_i - code_j + (size - 1) // 2`` is the position of ``n_i - n_j``.
    """
    idx = points.indices.astype(np.int64)
    shape = 2 * np.ptp(idx, axis=0) + 1
    return idx[:, 0] * shape[1] + idx[:, 1], shape


def build_autocorr_matrix(points: LatticePointSet, acf: Acf) -> AutocorrMatrix:
    """Autocorrelation matrix over all pairs of lattice points, as a difference table.

    The ACF is evaluated once, on the index differences ``d`` in the upper
    half of their box (``d`` lexicographically at least 0) whose
    displacement lies in the doubled window, ``|Q d|_inf <= L``, so each
    +/- pair costs one evaluation; the mirrored half of the box follows
    from ``c(-r) = conj c(r)``.  Every pair difference ``n_i - n_j`` is
    among them, since both points lie in the window, and the ``N^2`` pairs
    are never formed.  The differences reach the ACF as integer indices through
    ``acf.eval_lattice(Q, d)``, so a quadrature ACF can factor its phases
    over the box (``NumericAcf``); other ACFs see the displacements ``Q d``.
    When no imaginary part exceeds 1e-12 (the sinc ACF, or the round-off of
    a radial spectrum's quadrature) the table is real ``float64``.

    ``AutocorrMatrix.blocks``, not this function, gathers the blocks of the
    real symmetric ``M[i, j] = Re c(r_i - r_j) + Im c(r_i + r_j)``.  As
    ``c(-r) = conj c(r)``, ``M = W^H C W`` with the unitary ``W = (I + J)/2 +
    i (I - J)/2``, ``J`` the permutation of ``r -> -r`` (Lee 1980), so a complex
    table needs a set symmetric through the origin; a real one has ``M = C``.
    The mirror group ``G`` is made of the point reflection and the axis flips
    that map the point set onto itself and leave every table value, and so
    ``M``, unchanged within 1e-12 (``lattice._mirror_group``, which also gives
    the characters and orbits below).  Each character ``chi`` of ``G`` (a sign
    per mirror) gives one real symmetric block over the orbit representatives
    ``o`` whose stabiliser ``chi`` keeps: ``B[o, o'] = sum_g chi(g) M[o, g o']
    / sqrt(s_o s_o')``, where ``s`` is the stabiliser's size.  Rect and hex
    lattices under the sinc ACF give four blocks of about ``N/4``; a rotated
    ellipse, a sheared ``Q`` or a complex table that an axis flip keeps gives
    two of about ``N/2``; a set without mirrors, or a complex table that no
    flip keeps, gives ``M`` as its one block.
    """
    _, shape = _difference_box(points)
    size = shape.prod()
    half = np.arange((size - 1) // 2, size)
    diffs = np.column_stack(np.divmod(half, shape[1])) - shape // 2
    # the window test of LatticePointSet, doubled
    inside = np.abs(diffs @ points.q.q.T).max(axis=1) <= points.region.side * _WINDOW_SLACK
    half, diffs = half[inside], diffs[inside]
    vals = np.asarray(acf.eval_lattice(points.q.q, diffs))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = points.q.q @ diffs[np.argmax(bad)]
        raise ValueError(f"ACF returned a non-finite value at displacement {tuple(where)}")
    if np.abs(vals.imag).max() <= 1e-12:
        vals = vals.real
    table = np.zeros(size, dtype=vals.dtype)
    table[size - 1 - half] = vals.conj()
    table[half] = vals
    return AutocorrMatrix(points=points, acf=acf, table=table)


def _hermitian(b: np.ndarray) -> np.ndarray:
    """``b``, once it is checked Hermitian within 1e-12."""
    step = max(1, _INTERP_ELEMS // max(1, len(b)))
    for r0 in range(0, len(b), step):  # row chunks keep the temporaries small
        if np.abs(b[r0:r0 + step] - b[:, r0:r0 + step].T).max() > 1e-12:
            raise ValueError("autocorrelation matrix must be Hermitian within 1e-12")
    return b


def _autocorr_peak_bytes(n_points: float, q: SamplingMatrix, kept) -> float:
    """About the peak bytes of ``eigen_spectrum(build_autocorr_matrix(...))``.

    One block of order ``n`` and ``eigvalsh``'s copy: ``16 n^2``.  ``kept``
    names the mirrors that keep the ACF (``scattering._kept_mirrors``; all of
    them for a radial ACF).  Those that also keep the lattice
    (``lattice._lattice_mirrors``) and the identity, ``g`` in all, split the
    table into ``g`` blocks of about ``N/g`` (``AutocorrMatrix.blocks``): ``N^2``
    bytes for rect and hex under a radial ACF, ``16 N^2`` when no mirror keeps
    both.  The ACF's work is not counted.
    """
    g = 1 + sum(name in kept for name, _ in _lattice_mirrors(q.q))
    return 16.0 * (n_points / g) ** 2


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

    The matrix's mirror blocks are gathered, solved and dropped one at a
    time, so one block and the eigensolver's copy of it are held at once,
    and the spectra are merged; the full matrix is never formed.  Negative
    round-off eigenvalues above ``-1e-8`` relative to the trace (the sum of
    the block traces, taken as each block is solved) are clamped to zero;
    anything more negative is treated as a defective ACF.
    """
    parts, trace = [], 0.0
    for b in c.blocks():
        try:
            parts.append(np.linalg.eigvalsh(b))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigensolver failed on a block of order {len(b)} (max |diag| "
                               f"{np.abs(np.diagonal(b)).max():.3e}, max |entry| "
                               f"{np.abs(b).max():.3e}): {exc}") from exc
        trace += np.trace(b)
        del b  # dropped before the next block is gathered
    vals = np.sort(np.concatenate(parts))
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
    _, on = _lattice_coords(q.q, positions)
    if not on.all():
        raise ValueError(f"{np.count_nonzero(~on)} of {len(on)} sample positions do not "
                         f"lie on the lattice of the sampling matrix")


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
    v = np.asarray(samples.values)
    if not np.iscomplexobj(v):
        return f @ v
    # two real products: a complex one would first copy f to complex, twice its size
    return f @ v.real + 1j * (f @ v.imag)


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


_INTERP_ELEMS = 32768  # elements per row chunk of a kernel build, block gather or check
_MSE_GROUP = 128


def mse_experiment(s: ScatteringScenario, q: SamplingMatrix, kern: Kernel,
                   region: Region, n_realizations: int = 500, seed: int = 42,
                   n_waves: int = 1024, workers: int = 1) -> MseReport:
    """Monte Carlo reconstruction MSE of one sampling scheme on one region.

    The one-cell case of ``mse_sweep``, which documents the arguments, the
    evaluation grid and the substreams; the report is the one it gives for
    ``[(q, kern)]`` and ``[region]``, bit for bit.  Kept for the benchmark's
    replay, which passes ``workers``; it is checked to be at least 1 and
    otherwise unused, since BLAS already threads the matrix products.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers!r}")
    return mse_sweep(s, [(q, kern)], [region], n_realizations=n_realizations, seed=seed,
                     n_waves=n_waves)[0][0]


def _grid_half(s: ScatteringScenario, region: Region) -> int:
    """Half-width ``h`` of the evaluation grid's index box ``|i|, |j| <= h``."""
    return int(math.floor(0.25 * region.side / (s.kn.wavelength / 8) + 1e-9))


def _mse_peak_bytes(s: ScatteringScenario, schemes: list[tuple[SamplingMatrix, Kernel]],
                    region: Region, n_realizations: int, n_waves: int) -> float:
    """Worst-case peak bytes of ``mse_sweep`` whose largest region is ``region``.

    With ``G`` grid points, at most ``N ~ area / |det Q|`` samples per scheme
    and ``n = min(R, 128)`` realizations per group: the group's truth on the
    grid (``16 G n``); one scheme's samples (``16 N n``) and, beside them,
    their character projection (``16 N n``) or the half-row build's samples
    and reversal side by side (``32 N n``), so ``48 N n`` at most; and ``r``
    streamed rows over the samples, half as many again for a chunk's
    character gathers, and ``32 n`` columns more, ``8 r (3 N / 2 + 32 n)``:
    a chunk, its gathers, its products over the mirrors' ``8 n`` columns and
    its gathered truth and errors, a few copies each.  ``r = 2 n + 3 (h + 1)``
    for the grid's half-width ``h``: a chunk has fewer than ``2 n + h + 1``
    rows, and a period line's table holds ``h + 1`` rows over fewer than
    ``2 N`` samples.  Last, one kernel call's temporaries, about 20 arrays
    of ``_INTERP_ELEMS`` values.  The waves: the
    group's ``M`` waves per realization, 34 bytes each (a wavevector and a
    gain, 32), plus one draw's temporaries, ``(34 n + 96) M``; and a
    synthesis chunk's two exponential tables of ``min(M, _NODE_CHUNK)``
    columns over the grid's ``2 h + 1`` indices.
    """
    h = _grid_half(s, region)
    n_points = max(region.area / abs(q.det) for q, _ in schemes)
    group = min(n_realizations, _MSE_GROUP)
    rows = 2 * group + 3 * (h + 1)
    return (16.0 * (2 * h + 1) ** 2 * group + 48.0 * n_points * group
            + 8.0 * rows * (1.5 * n_points + 32 * group) + 160.0 * _INTERP_ELEMS
            + (34.0 * group + 96.0) * n_waves + 32.0 * (2 * h + 1) * min(n_waves, _NODE_CHUNK))


def mse_sweep(s: ScatteringScenario, schemes: list[tuple[SamplingMatrix, Kernel]],
              regions: list[Region], n_realizations: int = 500, seed: int = 42,
              n_waves: int = 1024) -> list[list[MseReport]]:
    """Monte Carlo reconstruction MSE of several schemes over several regions.

    ``schemes`` is a sequence of ``(q, kern)`` pairs and ``regions`` a
    non-empty sequence of centred squares, in any order and possibly
    repeated; one list of ``MseReport`` (one per pair, in order) is returned
    per region, in the order given.  Fields are synthesized from the
    scenario, sampled on the lattice of each ``q`` restricted to the region,
    reconstructed with its ``kern``, and compared on a uniform grid of 8
    points per wavelength covering the central square of half the region's
    side, away from the truncation boundary.  Every argument is checked, and
    every pairing must be alias-free (``alias_free``), before any wave is
    drawn; an aliasing pairing raises ``ValueError``.

    Realization ``i`` draws from the deterministic substream
    ``default_rng([seed, i])``, so results are reproducible bit for bit and
    the cells are common-random-number paired: every scheme and every region
    sees the same field.  The regions are nested, so each ``q``'s lattice is
    enumerated once, over the largest region, and a smaller cell's points are
    the rows its own window keeps (``lattice._window_cut``); its grid is the
    central sub-box ``|i|, |j| <= h`` of the largest grid.  Each realization's
    waves are drawn once, its true field synthesized once on the largest grid,
    and its samples once per scheme, on that lattice; each cell picks its rows
    (the largest takes them whole, uncopied) and its sub-box.  Realizations
    run in groups of 128; a group's truth is kept as an ``n_grid x group``
    complex table, so at most ``min(R, 128) * n_grid * 16`` bytes of it are
    held whatever ``n_realizations`` (R) is, next to one scheme's samples
    (``min(R, 128) * N * 16`` bytes) and, for a cell reconstructed through
    its mirrors, their projection onto the mirror group's characters (as
    large again) or, with two mirrors, the samples and their reversal (twice
    that).  Each cell's
    interpolation rows are rebuilt per group, once when R <= 128, and
    streamed: each chunk of rows is applied to the whole group and dropped,
    so at most one chunk is held, of about ``2 min(R, 128)`` rows (shifts
    of one quadrant grid line, or rows built densely).  Every grid point's
    errors are added to its total one realization after another, in order
    (``_add_squared_errors``), whichever group size, schemes and regions
    run with it; the products' shapes follow the group size, though, and
    BLAS may round different shapes differently.

    The largest region's reports equal a run over that region alone, bit
    for bit.  A smaller region's values come out of a larger exponential
    product, so its figures agree with a run over it alone to round-off
    (about 1e-15 relative), not bit for bit.

    The interpolation matrix is never built whole; each scheme's lattice
    structure decides how much of it is evaluated:

    - A rect support on a diagonal ``Q`` (``rect_matched``,
      ``rect_half_lambda``), whose points fill their index box, reconstructs
      a few grid columns at a time by two small products with the kernel's
      1-D factors, ``f(x, 0)`` and ``f(0, y) / f(0, 0)`` between the grid
      axis and the sample axis; the only 2-D row built checks the
      factorization.
    - Otherwise the grid and the samples are symmetric through the origin,
      and through each axis flip the lattice has (``lattice._mirror_group``).
      A mirror that also maps the kernel's support onto itself leaves the
      kernel unchanged, so the row at a mirrored grid point is the row at
      the point with the samples permuted.  With both axis flips (hex, an
      unrotated ellipse) only the grid quadrant ``x, y <= 0`` is built,
      about a quarter of the rows; otherwise (a rotated ellipse, a sheared
      ``Q``) the ``(G+1)//2`` rows up to the grid centre.  A chunk of rows
      gives the grid points its mirrors reach: with two mirrors by one
      product against the samples and their reversal, with four by one
      product per character of the group against the samples projected
      onto it, a quarter of the flops of a product against four permuted
      copies (``_mirrored_reconstruction``).
    - Within the quadrant, when ``p`` grid steps along a grid axis make a
      lattice vector ``Q m`` (hex: ``(0, wavelength)``, ``p = 8``), the row
      ``p`` steps on is the row over the samples shifted by ``m``, so the
      kernel is evaluated on ``p`` grid lines only and the other rows are
      gathered from them; every other build evaluates its rows densely
      (``_mirror_rows``).

    Summation orders and the reused rows' kernel arguments differ from a
    dense build by round-off, so figures agree with it to round-off, not
    bit for bit.  Every build checks its centre row (for the 1-D factors,
    the rows at the grid centre) against each mirror it uses within 1e-12,
    before any error is added,
    and the separable build checks its factors' product against the kernel
    at one grid point off both axes within 1e-12 relative, so a kernel that
    is not even, not invariant under a flip of its support, or not separable
    on a rect support raises ``ValueError``.  Every kernel value comes from
    ``_interp_matrix``, in row chunks of at most 32768 values.
    """
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be positive, got {n_realizations!r}")
    if n_waves < 1:
        raise ValueError(f"n_waves must be positive, got {n_waves!r}")
    if not regions:
        raise ValueError("regions must not be empty")
    for q, kern in schemes:
        _check_pairing(kern, q)
    # each distinct side is one cell per scheme; the largest comes last
    sides = sorted({region.side for region in regions})
    cells = [Region(side=side) for side in sides]
    lattices = [enumerate_lattice(q, cells[-1]) for q, _ in schemes]
    cuts = [[_window_cut(whole, cell) for cell in cells] for whole in lattices]

    # the evaluation grid is the lattice step*I over a square index box
    step = s.kn.wavelength / 8
    halves = [_grid_half(s, cell) for cell in cells]
    axes = [step * np.arange(-h, h + 1) for h in halves]
    big = halves[-1]
    grid_axis = np.arange(-big, big + 1)
    gx, gy = np.meshgrid(grid_axis, grid_axis, indexing="ij")
    grid_idx = np.column_stack([gx.ravel(), gy.ravel()])
    grid_q = step * np.eye(2)

    root_m = math.sqrt(n_waves)
    totals = [[np.zeros((2 * h + 1) ** 2) for h in halves] for _ in schemes]
    for g0 in range(0, n_realizations, _MSE_GROUP):
        # same wave draws as synthesize() for these substreams
        waves = [_draw_waves(s, np.random.default_rng([seed, i]), n_waves)
                 for i in range(g0, min(g0 + _MSE_GROUP, n_realizations))]
        truth = _synthesize_group(grid_q, grid_idx, waves, root_m)
        box = truth.reshape(2 * big + 1, 2 * big + 1, len(waves))
        for (q, kern), whole, scheme_cuts, cell_totals in zip(schemes, lattices, cuts, totals):
            samples = _synthesize_group(q.q, whole.indices, waves, root_m)
            for (pts, rows), h, axis, total in zip(scheme_cuts, halves, axes, cell_totals):
                sub = slice(big - h, big + h + 1)
                _add_squared_errors(
                    total, kern, pts, axis, samples[rows],
                    truth if h == big else box[sub, sub].reshape(-1, len(waves)))
            del samples  # one scheme's samples alive at a time

    reports = {}
    for j, (side, axis) in enumerate(zip(sides, axes)):
        reports[side] = []
        for scheme_cuts, cell_totals in zip(cuts, totals):
            pointwise = (cell_totals[j] / n_realizations).reshape(len(axis), len(axis))
            average = float(pointwise.mean())
            reports[side].append(MseReport(
                axis=axis,
                pointwise=pointwise,
                average=average,
                normalized=average / 1.0,
                n_realizations=n_realizations,
                n_samples=len(scheme_cuts[j][0]),
            ))
    return [list(reports[region.side]) for region in regions]


def _synthesize_group(q: np.ndarray, indices: np.ndarray, waves: list,
                      root_m: float) -> np.ndarray:
    """Each realization's field at the lattice points ``Q n``, one column each."""
    out = np.empty((len(indices), len(waves)), dtype=complex)
    for j, (k, gains) in enumerate(waves):
        out[:, j] = _lattice_wave_sum(q, indices, k, gains) / root_m
    return out


def _add_squared_errors(total: np.ndarray, kern: Kernel, pts: LatticePointSet,
                        axis: np.ndarray, samples: np.ndarray, truth: np.ndarray) -> None:
    """Add one group's squared reconstruction errors of one cell into ``total``.

    ``axis`` holds the grid's coordinates along x and along y, ``samples``
    the group's fields at ``pts`` and ``truth`` on the whole grid, one column
    per realization.  The build comes in pieces ``(grid points,
    reconstructions)``, the group's real parts beside its imaginary parts;
    each grid point's errors are added to its total one realization after
    another, in order, however the pieces and groups fall.
    """
    if kern.support.kind == "rect" and pts.q.q[0, 1] == 0.0 and pts.q.q[1, 0] == 0.0:
        pieces = _separable_reconstruction(kern, pts, axis, samples)
    else:
        pieces = _mirrored_reconstruction(kern, pts, axis, samples)
    n = samples.shape[1]
    for dest, both in pieces:
        t = truth[dest]
        err = (t.real - both[:, :n]) ** 2 + (t.imag - both[:, n:]) ** 2
        err[:, 0] += total[dest]
        total[dest] = np.cumsum(err, axis=1, out=err)[:, -1]
        del t, both, err  # before the next piece is built


def _check_centre_row(row: np.ndarray, perm: np.ndarray, what: str) -> None:
    if np.abs(row - row[perm]).max() > 1e-12:
        raise ValueError(f"kernel must be {what}: its values differ by more than 1e-12 "
                         f"at mirrored sample positions")


def _separable_reconstruction(kern: Kernel, pts: LatticePointSet, axis: np.ndarray,
                              samples: np.ndarray):
    """Grid reconstruction by a rect kernel's 1-D factors, a few grid columns a piece.

    A diagonal ``Q`` over a centred square fills its index box, and rows run
    over ``n1`` within ``n2`` (``enumerate_lattice``), so the samples form
    an ``n2 x n1`` box.  The kernel must factor as
    ``f(x, y) = f(x, 0) f(0, y) / f(0, 0)``; the product of the factors is
    checked against the kernel at one grid point off both axes within 1e-12
    relative, over all samples, before the first piece.
    """
    box = np.ptp(pts.indices, axis=0) + 1
    pos = pts.positions.reshape(box[1], box[0], 2)
    size = len(axis)
    zeros, centre = np.zeros(size), size // 2
    # f(x, 0) and f(0, y): the grid axes against the samples on the axes
    fx = _interp_matrix(kern, np.column_stack([axis, zeros]), pos[box[1] // 2])
    fy = _interp_matrix(kern, np.column_stack([zeros, axis]), pos[:, box[0] // 2])
    fy /= fx[centre, box[0] // 2]  # f(0, 0)
    for f in (fx, fy):
        _check_centre_row(f[centre], np.s_[::-1], "even")
    row = _interp_matrix(kern, np.array([[axis[0], axis[-1]]]), pts.positions)[0]
    if np.abs(np.outer(fy[-1], fx[0]).ravel() - row).max() > 1e-12 * np.abs(row).max():
        raise ValueError("kernel must be separable on a rect support: f(x, 0) f(0, y) / f(0, 0) "
                         "differs from f(x, y) by more than 1e-12 relative")
    n = samples.shape[1]
    e = samples.reshape(box[1], box[0], n).transpose(1, 0, 2)  # (n1, n2, realization)
    # (x, n2, column): the real parts' columns, then the imaginary parts'
    u = (fx @ np.concatenate([e.real, e.imag], axis=2).reshape(box[0], -1)).reshape(
        size, box[1], 2 * n)
    per = -(-2 * n // size)  # grid columns a piece, for at least 2 n rows
    for x0 in range(0, size, per):  # (x, y, column): rows in the grid's order
        yield (np.arange(x0 * size, min(x0 + per, size) * size),
               (fy @ u[x0:x0 + per]).reshape(-1, 2 * n))


def _mirrored_reconstruction(kern: Kernel, pts: LatticePointSet, axis: np.ndarray,
                             samples: np.ndarray):
    """Grid reconstruction from the interpolation rows left by the mirrors, a chunk a piece.

    A mirror ``F`` of the point set that also maps the kernel's support onto
    itself leaves the kernel unchanged, and the grid is mirror-symmetric
    too, so the row at grid point ``F g`` is the row at ``g`` with the
    samples permuted.  These mirrors form a group (``_mirror_group``); with
    four elements (both axis flips) only the quadrant ``x, y <= 0`` is
    built, otherwise (a rotated ellipse, a sheared ``Q``) the rows up to the
    grid centre; ``_mirror_rows`` makes them.  The rows come in chunks, and
    each chunk is applied to the samples and dropped, so no more than a
    chunk of rows is ever held; the grid points that different rows reach
    are disjoint.  The centre row is built first and checked against each
    mirror within 1e-12, so a kernel the mirrors do not keep raises before
    the first piece.

    Row ``f`` reconstructs ``r_h = sum_j f[j] s[h j]`` at its mirror ``h``.
    Two mirrors take one product against the samples and their reversal
    side by side.  Four go through the group's characters ``chi``, as
    ``AutocorrMatrix.blocks`` does: with ``S_chi[o] = sum_g chi(g) s[g o]``
    and ``F_chi[o] = sum_g chi(g) f[g o] / |stab o|`` over the orbit
    representatives ``o`` that ``chi`` keeps (``N`` in all),
    ``r_h = 1/4 sum_chi chi(h) F_chi . S_chi``: the samples are projected
    once, and each chunk takes four products of about ``N/4`` columns
    instead of one against four permuted copies.
    """
    base = kern.support.to_base

    def keeps_support(flip, _):  # F maps the support onto itself iff this is orthogonal
        b = base @ flip @ np.linalg.inv(base)
        return np.abs(b @ b.T - np.eye(2)).max() < 1e-12

    names, group, signs, chars, parts = _mirror_group(pts, keeps_support)
    size = len(axis)
    h = size // 2
    centre = _interp_matrix(kern, np.array([[axis[h], axis[h]]]), pts.positions)[0]
    for name, perm in zip(names[1:], group[1:]):
        _check_centre_row(centre, perm, "even" if name == "rev"
                          else f"invariant under the {name} flip of its support")
    quadrant = len(group) == 4  # else the rows up to the grid centre
    width = h + 1 if quadrant else size
    ii, jj = np.divmod(np.arange(width ** 2 if quadrant else (size * size + 1) // 2), width)
    dests = np.array([(h + sx * (ii - h)) * size + h + sy * (jj - h) for sx, sy in signs])
    # a grid point that several mirrors of a row reach takes the first one's
    # value: the identity's, on a row that a mirror maps onto itself
    firsts = np.array([(dests[:k] != dests[k]).all(axis=0) for k in range(len(group))])
    # real parts, then imaginary parts, side by side: one product per block
    n = samples.shape[1]
    if quadrant:
        # per character, the gathers g o and a block of the projected samples
        cols = [group[:, reps] for reps, _ in parts]
        proj = np.zeros((len(pts), 2 * n))
        blocks = np.split(proj, np.cumsum([len(reps) for reps, _ in parts])[:-1])
        for chi, c, s_chi in zip(chars, cols, blocks):
            for sign, g in zip(chi, c):
                part = sign * samples[g]
                s_chi[:, :n] += part.real
                s_chi[:, n:] += part.imag
        del part
    else:
        # the samples and their reversal; a mirror is its own inverse, so
        # scattering the samples by it permutes them, with no copy on the way
        stack = np.empty((len(pts), len(group), 2, n))
        for k, perm in enumerate(group):
            stack[perm, k, 0], stack[perm, k, 1] = samples.real, samples.imag
        stack = stack.reshape(len(pts), -1)
    # chunks of at least 2 n rows, as many as the group has real and imaginary
    # columns: on fewer, repacking the samples for every product costs time
    query = np.column_stack([axis[ii], axis[jj]])
    for rows, f in _mirror_rows(kern, pts, axis, query, quadrant, 2 * n):
        if quadrant:
            out = np.zeros((len(group), len(rows), 2 * n))
            for chi, c, (_, stab), s_chi in zip(chars, cols, parts, blocks):
                f_chi = f[:, c[0]]
                for sign, g in zip(chi[1:], c[1:]):
                    (np.add if sign > 0 else np.subtract)(f_chi, f[:, g], out=f_chi)
                f_chi *= 0.25 / stab  # a power of two: no rounding
                r_chi = f_chi @ s_chi
                for k, sign in enumerate(chi):
                    (np.add if sign > 0 else np.subtract)(out[k], r_chi, out=out[k])
                del f_chi, r_chi
        else:
            out = (f @ stack).reshape(len(rows), len(group), 2 * n).transpose(1, 0, 2)
        del f  # before the pieces are consumed
        for k, first in enumerate(firsts[:, rows]):
            yield dests[k, rows][first], out[k] if first.all() else out[k][first]
        del out  # before the next chunk is built


def _mirror_rows(kern: Kernel, pts: LatticePointSet, axis: np.ndarray, query: np.ndarray,
                 quadrant: bool, rows: int):
    """The interpolation rows at ``query``, in chunks ``(rows, f)`` of mostly ``rows`` or more.

    ``query`` is the grid quadrant ``x, y <= 0`` with ``quadrant``, row
    ``i * (h+1) + j`` at ``(axis[i], axis[j])``, and otherwise the grid
    points up to the centre.  A row depends on ``g - Q n`` alone, so when the
    domain is the quadrant and ``p <= h`` grid steps along a grid axis make a
    lattice vector ``t = Q m`` (hex: ``t = (0, wavelength)``, ``p = 8``), the
    row at ``g + c t`` is the row at ``g`` over the samples ``n - c m``.  The
    kernel is then evaluated only on the first ``p`` grid lines across that
    axis (one ``_interp_matrix`` call each), line ``a`` over the part of
    the index set ``E``, the union of ``S - c m``, that its shifts
    ``c <= (h - a) // p`` gather from, and every other row is gathered from
    them: a chunk is the shifts of one grid line, ``h + 1`` rows each, merged
    until it has at least ``rows`` rows, so one line's table and one chunk
    are held at a time.  Otherwise every row is built densely, in chunks of
    ``max(rows, _INTERP_ELEMS // N)`` rows.
    """
    h = len(axis) // 2
    # steps[p - 1, d]: p grid steps along axis d, the smallest p first, then x
    steps = axis[-1] / max(h, 1) * np.arange(1, h + 1)[:, None, None] * np.eye(2)
    coords, on = _lattice_coords(pts.q.q, steps)
    if not (quadrant and on.any()):
        step = max(rows, _INTERP_ELEMS // len(pts))
        for r0 in range(0, len(query), step):
            yield (np.arange(r0, min(r0 + step, len(query))),
                   _interp_matrix(kern, query[r0:r0 + step], pts.positions))
        return
    k, dim = np.argwhere(on)[0]
    p, m = k + 1, coords[k, dim]
    shifted = (pts.indices[None] - np.arange(h // p + 1)[:, None, None] * m).reshape(-1, 2)
    # E in first-appearance order; 1-D codes sort about 20 times faster than np.unique(axis=0)
    span = np.ptp(shifted[:, 1]) + 1
    first = np.sort(np.unique(shifted[:, 0] * span + shifted[:, 1], return_index=True)[1])
    ext = shifted[first]
    ext_pos = ext @ pts.q.q.T  # as enumerate_lattice computes positions
    picks = _index_rows(ext, shifted).reshape(-1, len(pts))
    # line a serves the shifts c <= (h - a) // p, which gather from E[:ends[a]]
    ends = np.searchsorted(first, len(pts) * ((h - np.arange(p)) // p + 1))
    # dest[a, o]: the row at index a along the period axis and o across it
    dest = np.arange((h + 1) ** 2).reshape(h + 1, h + 1).transpose(dim, 1 - dim)
    per = -(-rows // (h + 1))  # shifts per chunk, for at least ``rows`` rows
    for a in range(p):
        table = _interp_matrix(kern, query[dest[a]], ext_pos[:ends[a]])
        for c0 in range(0, (h - a) // p + 1, per):
            shifts = np.arange(c0, min(c0 + per, (h - a) // p + 1))
            # rows (o, c): grid point o across the period axis at shift c
            yield (dest[a + shifts * p].T.ravel(),
                   table[:, picks[shifts]].reshape(-1, len(pts)))
        del table  # before the next line's is built
