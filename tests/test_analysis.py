"""Degrees of freedom, eigenvalue spectra, reconstruction, and MSE runs."""

import math

import numpy as np
import pytest

from fieldsamp import (
    Acf,
    ClarkeAcf,
    EigenSpectrum,
    EllipseShape,
    FieldRealization,
    Kernel,
    LatticePointSet,
    NumericAcf,
    Region,
    SamplingMatrix,
    SpectralSupport,
    Wavenumber,
    acf_clarke,
    build_autocorr_matrix,
    count_wavenumber_modes,
    dof,
    dof_loss_rect_vs_disk,
    eigen_spectrum,
    enumerate_lattice,
    kernel_disk,
    kernel_ellipse,
    kernel_rect,
    mse_experiment,
    mse_experiments,
    nyquist_ellipse,
    nyquist_hex,
    nyquist_rect,
    power_capture_count,
    reconstruct,
    rotation_matrix,
)
from fieldsamp import analysis
from fieldsamp.analysis import AutocorrMatrix, _interp_matrix
from fieldsamp.scattering import ScatteringScenario
from fieldsamp.statfield import _draw_waves, _plane_wave_sum
from helpers import brute_force_disk_modes, broadside_cluster

LAM = 1.0
KN = Wavenumber.from_wavelength(LAM)
ISO = ScatteringScenario.isotropic(KN)
# lattices on which the disk kernel's replicas overlap: an ellipse lattice,
# and a hex lattice 10% too coarse written in a sheared basis, whose
# overlapping replica offsets have large indices in that basis
ALIASING_FOR_DISK = [
    nyquist_ellipse(KN, EllipseShape(a1=0.7, a2=0.4, phi=0.0)),
    SamplingMatrix(1.1 * nyquist_hex(KN).q @ np.array([[1, 7], [7, 50]])),
]


class TestDof:
    def test_disk_ten_wavelengths(self):
        rep = dof(SpectralSupport.disk(KN), Region(side=10.0 * LAM))
        assert rep.dof_real == pytest.approx(100.0 * math.pi, rel=1e-12)
        assert rep.dof_count == 315
        assert rep.support_kind == "disk"

    def test_rect_is_exact_square_count(self):
        rep = dof(SpectralSupport.rect(KN), Region(side=10.0 * LAM))
        assert rep.dof_real == pytest.approx(400.0, rel=1e-12)
        assert rep.dof_count == 400

    def test_ellipse_scales_by_axes(self):
        shape = EllipseShape(a1=0.8, a2=0.5, phi=0.3)
        rep = dof(SpectralSupport.ellipse(KN, shape), Region(side=10.0 * LAM))
        assert rep.dof_real == pytest.approx(40.0 * math.pi, rel=1e-12)

    def test_loss_fraction(self):
        assert dof_loss_rect_vs_disk() == pytest.approx(1.0 - math.pi / 4.0,
                                                        abs=1e-15)


class TestModeCounting:
    def test_disk_ten_wavelengths_reference(self):
        n = count_wavenumber_modes(SpectralSupport.disk(KN),
                                   Region(side=10.0 * LAM))
        assert n == 317
        assert n == brute_force_disk_modes(10.0)

    @pytest.mark.parametrize("side", [3.0, 7.3, 12.5])
    def test_disk_matches_brute_force(self, side):
        n = count_wavenumber_modes(SpectralSupport.disk(KN), Region(side=side))
        assert n == brute_force_disk_modes(side)

    def test_rect_count(self):
        # integer pairs with both coordinates within +/-10: a 21 x 21 block
        n = count_wavenumber_modes(SpectralSupport.rect(KN),
                                   Region(side=10.0 * LAM))
        assert n == 441

    def test_ellipse_matches_inline_scan(self):
        shape = EllipseShape(a1=0.8, a2=0.5, phi=0.6)
        side = 9.0
        n = count_wavenumber_modes(SpectralSupport.ellipse(KN, shape),
                                   Region(side=side))
        rho = side  # kappa * side / (2*pi) at unit wavelength
        inv = shape.inverse_shape_matrix
        count = 0
        bound = int(math.ceil(rho / shape.a2)) + 1
        for lx in range(-bound, bound + 1):
            for ly in range(-bound, bound + 1):
                u = inv @ (lx, ly)
                if u[0] ** 2 + u[1] ** 2 <= (rho * (1.0 + 1e-12)) ** 2:
                    count += 1
        assert n == count

    @pytest.mark.parametrize("a1, a2, phi, side", [
        (1.0, 0.05, 0.7, 60.0),
        (0.6, 0.1, 2.5, 25.0),
    ])
    def test_thin_rotated_ellipse_matches_generous_box(self, a1, a2, phi, side):
        shape = EllipseShape(a1=a1, a2=a2, phi=phi)
        n = count_wavenumber_modes(SpectralSupport.ellipse(KN, shape),
                                   Region(side=side))
        rho = side  # kappa * side / (2*pi) at unit wavelength
        # every ellipse with a1 <= 1 lies inside the disk of radius rho
        bound = int(math.ceil(rho)) + 2
        axis = np.arange(-bound, bound + 1)
        lx, ly = np.meshgrid(axis, axis, indexing="ij")
        u = np.column_stack([lx.ravel(), ly.ravel()]) @ shape.inverse_shape_matrix.T
        limit = rho * (1.0 + 1e-12)
        assert n == int(np.count_nonzero(u[:, 0] ** 2 + u[:, 1] ** 2 <= limit * limit))


def _reference_autocorr(points, acf):
    """Distinct differences by np.unique, scattered back, then symmetrized."""
    n = len(points)
    idx = points.indices
    diffs = (idx[:, None, :] - idx[None, :, :]).reshape(-1, 2)
    uniq, inverse = np.unique(diffs, axis=0, return_inverse=True)
    vals = np.asarray(acf.eval_many(uniq.astype(float) @ points.q.q.T))
    entries = vals[inverse].reshape(n, n)
    return 0.5 * (entries + entries.conj().T), len(uniq)


class _CountingAcf(Acf):
    def __init__(self, inner):
        self.inner = inner
        self.kn = inner.kn
        self.calls = []

    def eval_many(self, disp):
        self.calls.append(len(disp))
        return self.inner.eval_many(disp)


def _oracle_point_sets():
    side = Region(side=6.0 * LAM)
    shape = EllipseShape(a1=0.8, a2=0.5, phi=0.6)
    return {
        "rect": enumerate_lattice(nyquist_rect(KN), side),
        "hex": enumerate_lattice(nyquist_hex(KN), side),
        "ellipse": enumerate_lattice(nyquist_ellipse(KN, shape), side),
        "two-point": _two_point_set(),
    }


class TestAutocorrMatrix:
    @pytest.mark.parametrize("name", ["rect", "hex", "ellipse", "two-point"])
    def test_clarke_equals_unique_reference(self, name):
        pts = _oracle_point_sets()[name]
        acf = _CountingAcf(ClarkeAcf(KN))
        mat = build_autocorr_matrix(pts, acf)
        ref, n_unique = _reference_autocorr(pts, ClarkeAcf(KN))
        assert mat.entries.dtype == np.float64
        assert not ref.imag.any()
        assert np.array_equal(mat.entries, ref.real)
        # one call covering each +/- pair once, plus the zero difference
        assert acf.calls == [(n_unique + 1) // 2]

    def test_numeric_equals_unique_reference(self):
        from helpers import two_cluster_scenario
        acf = NumericAcf(two_cluster_scenario())
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=2.0 * LAM))
        mat = build_autocorr_matrix(pts, acf)
        ref, _ = _reference_autocorr(pts, acf)
        assert mat.entries.dtype == np.complex128
        assert np.abs(mat.entries - ref).max() <= 1e-14

    def test_entries_match_pairwise_acf(self):
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=2.0 * LAM))
        mat = build_autocorr_matrix(pts, ClarkeAcf(KN))
        n = len(pts)
        for i in range(n):
            for j in range(n):
                ref = acf_clarke(pts.positions[i] - pts.positions[j], KN)
                assert mat.entries[i, j] == pytest.approx(ref, abs=1e-12)

    def test_numeric_acf_gives_hermitian_complex_matrix(self):
        from helpers import two_cluster_scenario
        s = two_cluster_scenario()
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=2.0 * LAM))
        mat = build_autocorr_matrix(pts, NumericAcf(s))
        assert np.abs(mat.entries - mat.entries.conj().T).max() < 1e-12
        assert np.abs(np.diagonal(mat.entries) - 1.0).max() < 1e-9
        assert np.abs(mat.entries.imag).max() > 1e-3

    def test_non_finite_acf_rejected(self):
        class BrokenAcf(Acf):
            def eval_many(self, disp):
                out = np.ones(len(disp))
                out[np.hypot(disp[:, 0], disp[:, 1]) > 0.6] = np.nan
                return out

        pts = enumerate_lattice(nyquist_rect(KN), Region(side=2.0 * LAM))
        with pytest.raises(ValueError, match="non-finite"):
            build_autocorr_matrix(pts, BrokenAcf())


def _two_point_set():
    q = nyquist_rect(KN)
    return LatticePointSet(
        indices=np.array([[0, 0], [1, 0]]),
        positions=np.array([[0.0, 0.0], [0.5, 0.0]]),
        q=q, region=Region(side=1.0),
    )


class TestEigenSpectrum:
    def test_descending_and_sums_to_trace(self):
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=3.0 * LAM))
        spectrum = eigen_spectrum(build_autocorr_matrix(pts, ClarkeAcf(KN)))
        assert np.all(np.diff(spectrum.values) <= 0.0)
        assert spectrum.values.min() >= 0.0
        assert spectrum.total == pytest.approx(len(pts), rel=1e-9)

    def test_small_hex_regression(self):
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=4.0 * LAM))
        spectrum = eigen_spectrum(build_autocorr_matrix(pts, ClarkeAcf(KN)))
        assert len(pts) == 59
        assert power_capture_count(spectrum, 0.997) == 59

    def test_indefinite_matrix_rejected(self):
        mat = AutocorrMatrix(
            entries=np.array([[1.0, 2.0], [2.0, 1.0]]),
            points=_two_point_set(), acf=ClarkeAcf(KN),
        )
        with pytest.raises(ValueError, match="not PSD"):
            eigen_spectrum(mat)

    def test_validation_of_order(self):
        with pytest.raises(ValueError):
            EigenSpectrum(values=np.array([1.0, 2.0]), total=3.0)


class TestPowerCaptureCount:
    def test_toy_spectrum(self):
        # dyadic values keep the cumulative sums exact in binary
        spectrum = EigenSpectrum(values=np.array([0.5, 0.25, 0.125, 0.125]), total=1.0)
        assert power_capture_count(spectrum, 0.5) == 1
        assert power_capture_count(spectrum, 0.6) == 2
        assert power_capture_count(spectrum, 0.75) == 2
        assert power_capture_count(spectrum, 0.8) == 3
        assert power_capture_count(spectrum, 0.9) == 4

    def test_full_fraction_counts_nonzero(self):
        spectrum = EigenSpectrum(values=np.array([1.0, 0.0, 0.0]), total=1.0)
        assert power_capture_count(spectrum, 1.0) == 1

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.1])
    def test_fraction_validation(self, fraction):
        spectrum = EigenSpectrum(values=np.array([1.0]), total=1.0)
        with pytest.raises(ValueError):
            power_capture_count(spectrum, fraction)


def _plane_wave_field(pts, k):
    vals = np.exp(1j * pts.positions @ np.asarray(k))
    return FieldRealization(pts.positions, vals, 0, 1, "plane-wave")


class TestReconstruct:
    def test_plane_wave_interior_error_small(self):
        q = nyquist_hex(KN)
        pts = enumerate_lattice(q, Region(side=10.0 * LAM))
        k = np.array([0.6 * KN.kappa, 0.0])
        field = _plane_wave_field(pts, k)
        query = np.array([[0.0, 0.0], [0.13, -0.4], [0.9, 0.7]])
        hat = reconstruct(field, q, kernel_disk(KN), query)
        true = np.exp(1j * query @ k)
        assert np.abs(hat - true).max() < 0.1

    def test_off_lattice_positions_rejected(self):
        q = nyquist_hex(KN)
        field = FieldRealization(np.array([[0.013, 0.2]]), np.array([1.0 + 0j]),
                                 0, 1, "h")
        with pytest.raises(ValueError, match="lattice"):
            reconstruct(field, q, kernel_disk(KN), [(0.0, 0.0)])

    def test_aliasing_pairing_rejected(self):
        for q in ALIASING_FOR_DISK:
            pts = enumerate_lattice(q, Region(side=4.0 * LAM))
            field = _plane_wave_field(pts, [0.0, 0.0])
            with pytest.raises(ValueError, match="replicas overlap"):
                reconstruct(field, q, kernel_disk(KN), [(0.0, 0.0)])

    def test_rotated_frame_equivariance(self):
        # reconstructing in a rotated ellipse frame must equal the unrotated
        # problem expressed in rotated coordinates
        phi = 0.9
        rot = rotation_matrix(phi)
        base_shape = EllipseShape(a1=0.8, a2=0.5, phi=0.0)
        rot_shape = EllipseShape(a1=0.8, a2=0.5, phi=phi)
        q0, qr = nyquist_ellipse(KN, base_shape), nyquist_ellipse(KN, rot_shape)
        region = Region(side=8.0 * LAM)
        pts0 = enumerate_lattice(q0, region)

        k0 = np.array([0.5 * 0.8 * KN.kappa, 0.25 * 0.5 * KN.kappa])
        query0 = np.array([[0.3, -0.2], [1.1, 0.6]])
        f0 = _plane_wave_field(pts0, k0)
        ref = reconstruct(f0, q0, kernel_ellipse(KN, base_shape), query0)

        # same configuration rotated rigidly by phi; lattice indices may
        # enumerate in any order, so rebuild the field on the rotated points
        posr = pts0.positions @ rot.T
        fr = FieldRealization(posr, f0.values, 0, 1, "plane-wave")
        out = reconstruct(fr, qr, kernel_ellipse(KN, rot_shape), query0 @ rot.T)
        assert np.allclose(out, ref, atol=1e-10)

    def test_query_shape_validation(self):
        q = nyquist_hex(KN)
        pts = enumerate_lattice(q, Region(side=2.0 * LAM))
        field = _plane_wave_field(pts, [0.0, 0.0])
        with pytest.raises(ValueError):
            reconstruct(field, q, kernel_disk(KN), [(0.0, 0.0, 0.0)])

    def test_interp_matrix_chunking_is_bitwise_neutral(self, monkeypatch):
        # the kernel is elementwise, so a one-row-per-chunk build equals one chunk
        kern = kernel_disk(KN)
        samples = enumerate_lattice(nyquist_hex(KN), Region(side=3.0 * LAM)).positions
        query = np.random.default_rng(0).uniform(-1.0, 1.0, (50, 2))
        whole = kern(query[:, None, :] - samples[None, :, :])
        monkeypatch.setattr(analysis, "_INTERP_ELEMS", 7)
        assert np.array_equal(_interp_matrix(kern, query, samples), whole)

    def test_interp_matrix_calls_stay_within_element_budget(self):
        kern = kernel_disk(KN)
        sizes = []

        def counting(r):
            sizes.append(r.size // 2)
            return kern.fn(r)

        samples = enumerate_lattice(nyquist_hex(KN), Region(side=8.0 * LAM)).positions
        query = np.random.default_rng(1).uniform(-1.0, 1.0, (400, 2))
        _interp_matrix(Kernel(kern.support, kern.peak, fn=counting), query, samples)
        assert sum(sizes) == len(query) * len(samples)
        assert max(sizes) <= analysis._INTERP_ELEMS


class TestMseExperiment:
    def test_deterministic_across_workers(self):
        q = nyquist_hex(KN)
        kern = kernel_disk(KN)
        # 37 is not a multiple of the realization block
        for n_realizations in (6, 37):
            kwargs = dict(n_realizations=n_realizations, seed=7, n_waves=48)
            a = mse_experiment(ISO, q, kern, Region(side=2.0 * LAM), **kwargs)
            b = mse_experiment(ISO, q, kern, Region(side=2.0 * LAM), workers=3,
                               **kwargs)
            assert np.array_equal(a.pointwise, b.pointwise)
            assert a.average == b.average

    @pytest.mark.parametrize("q, kern", [
        (nyquist_hex(KN), kernel_disk(KN)),
        (nyquist_rect(KN), kernel_rect(KN)),
        (nyquist_ellipse(KN, EllipseShape(a1=0.8, a2=0.5, phi=0.6)),
         kernel_ellipse(KN, EllipseShape(a1=0.8, a2=0.5, phi=0.6))),
    ], ids=["hex-disk", "rect", "rotated-ellipse"])
    def test_matches_per_realization_reference(self, q, kern):
        # one direct plane-wave sum and one matrix-vector product per
        # realization, on the same substreams as mse_experiment
        s = broadside_cluster(40.0)
        region = Region(side=4.0 * LAM)
        n_real, n_waves, seed = 37, 64, 11
        rep = mse_experiment(s, q, kern, region, n_realizations=n_real,
                             seed=seed, n_waves=n_waves)
        pts = enumerate_lattice(q, region)
        gx, gy = np.meshgrid(rep.axis, rep.axis, indexing="ij")
        eval_pos = np.column_stack([gx.ravel(), gy.ravel()])
        f = _interp_matrix(kern, eval_pos, pts.positions)
        errors = np.zeros(len(eval_pos))
        for i in range(n_real):
            k, gains = _draw_waves(s, np.random.default_rng([seed, i]), n_waves)
            es = _plane_wave_sum(pts.positions, k, gains) / math.sqrt(n_waves)
            truth = _plane_wave_sum(eval_pos, k, gains) / math.sqrt(n_waves)
            errors += np.abs(truth - f @ es) ** 2
        ref = (errors / n_real).reshape(rep.pointwise.shape)
        # the sinc kernel reproduces each sample, so where a grid point is a
        # sample both MSEs are round-off (about 1e-31) and only their size
        # can be compared
        exact = ref < 1e-24
        assert np.all(rep.pointwise[exact] < 1e-24)
        np.testing.assert_allclose(rep.pointwise[~exact], ref[~exact], rtol=1e-12, atol=0.0)

    def test_shared_schemes_match_separate_runs(self, monkeypatch):
        # one draw and one grid truth per realization for all schemes gives
        # each scheme's separate result bit for bit, whatever the group size
        shape = EllipseShape(a1=0.8, a2=0.5, phi=0.6)
        schemes = [(nyquist_rect(KN), kernel_rect(KN)), (nyquist_hex(KN), kernel_disk(KN)),
                   (nyquist_ellipse(KN, shape), kernel_ellipse(KN, shape))]
        s, region = broadside_cluster(40.0), Region(side=3.0 * LAM)
        kwargs = dict(n_realizations=37, seed=13, n_waves=48)
        separate = [mse_experiment(s, q, kern, region, **kwargs) for q, kern in schemes]
        # 32 gives two groups, the second a partial block
        for group in (analysis._MSE_GROUP, 32):
            monkeypatch.setattr(analysis, "_MSE_GROUP", group)
            shared = mse_experiments(s, schemes, region, **kwargs)
            assert len(shared) == len(schemes)
            for a, b in zip(shared, separate):
                assert np.array_equal(a.pointwise, b.pointwise)
                assert a.n_samples == b.n_samples

    def test_waves_drawn_once_per_realization(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return _draw_waves(*args)

        monkeypatch.setattr(analysis, "_draw_waves", counting)
        schemes = [(nyquist_rect(KN), kernel_rect(KN)), (nyquist_hex(KN), kernel_disk(KN))]
        mse_experiments(ISO, schemes, Region(side=2.0 * LAM), n_realizations=19,
                        seed=2, n_waves=16)
        assert len(calls) == 19

    def test_mismatched_last_scheme_fails_before_drawing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "_draw_waves", lambda *args: calls.append(1))
        for q in ALIASING_FOR_DISK:
            schemes = [(nyquist_hex(KN), kernel_disk(KN)), (q, kernel_disk(KN))]
            with pytest.raises(ValueError, match="replicas overlap"):
                mse_experiments(ISO, schemes, Region(side=2.0), n_realizations=2,
                                n_waves=16)
        assert not calls

    def test_builds_half_the_interpolation_matrix(self):
        # grid and samples mirror through the origin, so one cell evaluates
        # the kernel on the grid rows up to the centre only
        kern = kernel_disk(KN)
        evaluated = []

        def counting(r):
            evaluated.append(r.size // 2)
            return kern.fn(r)

        q, region = nyquist_hex(KN), Region(side=3.0 * LAM)
        rep = mse_experiment(ISO, q, Kernel(kern.support, kern.peak, fn=counting),
                             region, n_realizations=3, seed=5, n_waves=32)
        n_grid = len(rep.axis) ** 2
        assert sum(evaluated) == (n_grid + 1) // 2 * len(enumerate_lattice(q, region))

    def test_odd_kernel_rejected(self):
        kern = kernel_disk(KN)
        shifted = Kernel(kern.support, kern.peak,
                         fn=lambda r: kern.fn(r - np.array([0.1 * LAM, 0.0])))
        with pytest.raises(ValueError, match="kernel must be even"):
            mse_experiment(ISO, nyquist_hex(KN), shifted, Region(side=2.0 * LAM),
                           n_realizations=2, n_waves=16)

    def test_report_consistency(self):
        q = nyquist_hex(KN)
        region = Region(side=2.0 * LAM)
        rep = mse_experiment(ISO, q, kernel_disk(KN), region,
                             n_realizations=5, seed=3, n_waves=32)
        assert rep.average == pytest.approx(float(rep.pointwise.mean()), rel=1e-12)
        assert rep.normalized == pytest.approx(rep.average, rel=1e-12)
        assert rep.n_realizations == 5
        assert rep.n_samples == len(enumerate_lattice(q, region))
        # the evaluation grid spans half the region at 8 points/lambda
        assert rep.axis.max() == pytest.approx(0.5, abs=1e-12)
        assert rep.axis[1] - rep.axis[0] == pytest.approx(LAM / 8.0, rel=1e-12)
        assert rep.pointwise.shape == (len(rep.axis), len(rep.axis))

    def test_mismatched_pairing_rejected(self):
        shape = EllipseShape(a1=0.7, a2=0.4, phi=0.0)
        q = nyquist_ellipse(KN, shape)
        with pytest.raises(ValueError, match="replicas overlap"):
            mse_experiment(ISO, q, kernel_disk(KN), Region(side=2.0),
                           n_realizations=2, n_waves=16)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            mse_experiment(ISO, nyquist_hex(KN), kernel_disk(KN),
                           Region(side=2.0), n_realizations=0)
        with pytest.raises(ValueError):
            mse_experiment(ISO, nyquist_hex(KN), kernel_disk(KN),
                           Region(side=2.0), n_realizations=2, workers=0)
