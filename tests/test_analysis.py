"""Degrees of freedom, eigenvalue spectra, reconstruction, and MSE runs."""

import math
import tracemalloc

import numpy as np
import pytest

from fieldsamp import (
    Acf,
    AutocorrMatrix,
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
    mse_sweep,
    nyquist_ellipse,
    nyquist_hex,
    nyquist_rect,
    power_capture_count,
    reconstruct,
    rotation_matrix,
)
from fieldsamp import analysis
from fieldsamp.analysis import (
    _autocorr_peak_bytes,
    _grid_half,
    _interp_matrix,
    _mirror_rows,
)
from fieldsamp.lattice import MIRRORS, _mirror_group
from fieldsamp.scattering import ScatteringScenario, VmfCluster, _kept_mirrors
from fieldsamp.statfield import _draw_waves, _lattice_wave_sum, _plane_wave_sum
from helpers import brute_force_disk_modes, broadside_cluster, counting_kernel, shuffled_rows

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
ELLIPSE = EllipseShape(a1=0.8, a2=0.5, phi=0.0)
ROTATED = EllipseShape(a1=0.8, a2=0.5, phi=0.6)
# a denser hex lattice under a random real shear: alias-free for the disk,
# with the point reflection as its only mirror
SHEARED = SamplingMatrix(0.8 * nyquist_hex(KN).q
                         @ (np.eye(2) + 0.3 * np.random.default_rng(0).standard_normal((2, 2))))
# a lattice whose x flip is the index map (n1, n2) -> (-n1 - n2, n2): at 6
# lambda some window differences map out of the points' index box
SKEWED = SamplingMatrix(0.41 * np.array([[1.0, 0.5], [0.0, 1.0]]))
# each scheme with the interpolation build it takes in mse_sweep
STRUCTURED = [
    pytest.param(nyquist_rect(KN), kernel_rect(KN), "separable", id="rect_half_lambda"),
    pytest.param(nyquist_rect(Wavenumber.from_wavelength(LAM / 0.8)),
                 kernel_rect(KN, scale=0.8), "separable", id="rect_matched"),
    pytest.param(nyquist_hex(KN), kernel_disk(KN), "quadrant", id="hex"),
    pytest.param(nyquist_ellipse(KN, ELLIPSE), kernel_ellipse(KN, ELLIPSE), "quadrant",
                 id="ellipse"),
    pytest.param(nyquist_ellipse(KN, ROTATED), kernel_ellipse(KN, ROTATED), "half",
                 id="rotated-ellipse"),
    pytest.param(SHEARED, kernel_disk(KN), "half", id="sheared"),
    # hex has both flips, but the rotated ellipse support has neither
    pytest.param(nyquist_hex(KN), kernel_ellipse(KN, ROTATED), "half",
                 id="rotated-ellipse-on-hex"),
]


def _dense_half_squared_errors(total, kern, pts, axis, samples, truth):
    """Oracle for ``analysis._add_squared_errors``: the dense half-row build.

    The kernel is evaluated on every grid row up to the centre, whatever the
    scheme; the other rows are the same product against the reversed samples.
    """
    n_grid = len(truth)
    top = (n_grid + 1) // 2
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    f = _interp_matrix(kern, np.column_stack([gx.ravel(), gy.ravel()])[:top], pts.positions)
    n = samples.shape[1]
    stacked = np.hstack([samples.real, samples.imag])
    both = f @ np.hstack([stacked, stacked[::-1]])
    recon = np.vstack([both[:, :2 * n], both[:n_grid - top, 2 * n:][::-1]])
    # realization by realization, in order
    for j in range(n):
        total += (truth[:, j].real - recon[:, j]) ** 2 + (truth[:, j].imag - recon[:, n + j]) ** 2


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
    return 0.5 * (entries + entries.conj().T)


class _CountingAcf(Acf):
    def __init__(self, inner):
        self.inner = inner
        self.kn = inner.kn
        self.calls = []
        self.indices = []

    def eval_many(self, disp):
        self.calls.append(len(disp))
        return self.inner.eval_many(disp)

    def eval_lattice(self, q, indices):
        self.indices.append(np.asarray(indices))
        return super().eval_lattice(q, indices)


def _window_count(points):
    """Brute-force count of the index-difference box's vectors in the doubled window.

    The box is ``|d_k| <= ptp_k`` of the points' indices; the window
    ``|Q d|_inf <= L`` within ``LatticePointSet``'s relative 1e-9.
    """
    span = np.ptp(points.indices, axis=0)
    count = 0
    for d1 in range(-span[0], span[0] + 1):
        for d2 in range(-span[1], span[1] + 1):
            disp = points.q.q @ np.array([d1, d2])
            count += np.abs(disp).max() <= points.region.side * (1.0 + 1e-9)
    return count


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
        ref = _reference_autocorr(pts, ClarkeAcf(KN))
        assert mat.entries.dtype == np.float64
        assert not ref.imag.any()
        assert np.array_equal(mat.entries, ref.real)
        # one call covering each +/- pair of the window's differences once,
        # plus the zero difference
        assert acf.calls == [(_window_count(pts) + 1) // 2]

    @pytest.mark.parametrize("name", ["rect", "hex", "ellipse", "sheared", "shuffled",
                                      "two-point"])
    def test_every_pair_difference_is_evaluated(self, name):
        side = Region(side=6.0 * LAM)
        pts = {**_oracle_point_sets(),
               "sheared": enumerate_lattice(SHEARED, side),
               "shuffled": shuffled_rows(enumerate_lattice(nyquist_hex(KN), side))}[name]
        acf = _CountingAcf(ClarkeAcf(KN))
        build_autocorr_matrix(pts, acf)
        (evaluated,) = acf.indices
        assert len(evaluated) == (_window_count(pts) + 1) // 2
        # each +/- pair once
        seen = {tuple(d) for d in evaluated} | {tuple(-d) for d in evaluated}
        assert len(seen) == 2 * len(evaluated) - 1
        idx = pts.indices
        pairs = {tuple(d) for d in (idx[:, None, :] - idx[None, :, :]).reshape(-1, 2)}
        assert pairs <= seen

    def test_numeric_equals_unique_reference(self):
        from helpers import two_cluster_scenario
        acf = NumericAcf(two_cluster_scenario())
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=2.0 * LAM))
        mat = build_autocorr_matrix(pts, acf)
        ref = _reference_autocorr(pts, acf)
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


def _tilted_cluster(phi_deg):
    """One cluster at 30 degrees from the zenith: the x flip keeps it at phi 90 degrees."""
    return ScatteringScenario(kn=KN, clusters=(
        VmfCluster(weight=1.0, theta_r=math.radians(30.0), phi_r=math.radians(phi_deg),
                   alpha=20.0),))


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
        class TooStrongAcf(Acf):  # c = 2 off the origin: 2*ones - I has eigenvalue -1
            kn = KN

            def eval_many(self, disp):
                return np.where(np.hypot(disp[:, 0], disp[:, 1]) > 0.0, 2.0, 1.0)

        # the two-point set is one block; the rect set splits into four
        for pts in (_two_point_set(),
                    enumerate_lattice(nyquist_rect(KN), Region(side=2.0 * LAM))):
            mat = build_autocorr_matrix(pts, TooStrongAcf())
            with pytest.raises(ValueError, match="not PSD"):
                eigen_spectrum(mat)

    @pytest.mark.parametrize("name, acf, n_blocks", [
        ("rect", "clarke", 4),
        ("hex", "clarke", 4),
        ("shuffled", "clarke", 4),  # the hex set with its rows in a random order
        ("rotated", "clarke", 2),  # the point reflection only
        ("sheared", "clarke", 2),
        ("skewed", "clarke", 4),
        ("two-point", "clarke", 1),  # the y flip alone, which fixes both points
        ("hex", "stretched", 2),  # a real table that no axis flip keeps
        ("hex", "two-cluster", 2),  # a complex table that the y flip keeps
        ("hex", "tilted-90", 2),  # a complex table that the x flip keeps: 72 + 65
        ("hex", "tilted-30", 1),  # a complex table that no flip keeps
        ("hex", "zenith", 4),  # a radial numeric table, real within round-off
    ])
    def test_blocks_match_full_eigensolve(self, name, acf, n_blocks):
        from helpers import two_cluster_scenario

        class StretchedAcf(Acf):  # the sinc ACF of a rotated, stretched field
            kn = KN

            def eval_many(self, disp):
                u = disp @ (np.diag([1.0, 0.5]) @ rotation_matrix(0.6)).T
                return np.sinc(2.0 * np.hypot(u[:, 0], u[:, 1]) / LAM)

        side = Region(side=6.0 * LAM)
        pts = {
            "rect": lambda: enumerate_lattice(nyquist_rect(KN), side),
            "hex": lambda: enumerate_lattice(nyquist_hex(KN), side),
            "shuffled": lambda: shuffled_rows(enumerate_lattice(nyquist_hex(KN), side)),
            "rotated": lambda: enumerate_lattice(nyquist_ellipse(KN, ROTATED), side),
            "sheared": lambda: enumerate_lattice(SHEARED, side),
            "skewed": lambda: enumerate_lattice(SKEWED, side),
            "two-point": _two_point_set,
        }[name]()
        complex_table = acf in ("two-cluster", "tilted-90", "tilted-30")
        acf = {"clarke": ClarkeAcf(KN), "stretched": StretchedAcf(),
               "two-cluster": NumericAcf(two_cluster_scenario()),
               "tilted-90": NumericAcf(_tilted_cluster(90.0)),
               "tilted-30": NumericAcf(_tilted_cluster(30.0)),
               "zenith": NumericAcf(broadside_cluster(40.0))}[acf]
        mat = build_autocorr_matrix(pts, acf)
        n = len(pts)
        blocks = list(mat.blocks())
        assert len(blocks) == n_blocks
        assert sum(len(b) for b in blocks) == n
        assert all(b.dtype == np.float64 for b in blocks)
        assert (mat.table.dtype == np.complex128) == complex_table
        full = np.linalg.eigvalsh(mat.entries)[::-1]
        spectrum = eigen_spectrum(mat)
        assert np.abs(spectrum.values - np.clip(full, 0.0, None)).max() <= 1e-12 * n

    def test_eigensolve_holds_no_full_matrix(self):
        import tracemalloc
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=20.0 * LAM))
        tracemalloc.start()
        try:
            eigen_spectrum(build_autocorr_matrix(pts, ClarkeAcf(KN)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pts) == 1415
        assert peak < 8 * len(pts) ** 2  # one N x N float64, 16 MB

    def test_eigensolve_holds_one_block_at_a_time(self):
        import tracemalloc
        mat = build_autocorr_matrix(enumerate_lattice(nyquist_hex(KN), Region(side=40.0 * LAM)),
                                    ClarkeAcf(KN))
        largest = max(b.nbytes for b in mat.blocks())  # 1435^2 float64, 16.5 MB
        tracemalloc.start()
        try:
            eigen_spectrum(build_autocorr_matrix(mat.points, mat.acf))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(mat.points) == 5629
        assert peak < 2.5 * largest

    def test_complex_table_is_solved_in_real_blocks_below_n(self):
        import tracemalloc
        from helpers import two_cluster_scenario
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=20.0 * LAM))
        acf = NumericAcf(two_cluster_scenario())
        mat = build_autocorr_matrix(pts, acf)
        assert mat.table.dtype == np.complex128
        assert all(len(b) < len(pts) for b in mat.blocks())  # the y flip splits it
        tracemalloc.start()
        try:
            eigen_spectrum(build_autocorr_matrix(pts, acf))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pts) == 1415
        assert peak < 8 * len(pts) ** 2  # one N x N float64, 16 MB

    def test_complex_table_needs_a_set_symmetric_through_the_origin(self):
        from helpers import two_cluster_scenario
        mat = build_autocorr_matrix(_two_point_set(), NumericAcf(two_cluster_scenario()))
        assert mat.table.dtype == np.complex128
        with pytest.raises(ValueError, match="symmetric through the origin"):
            eigen_spectrum(mat)

    @pytest.mark.parametrize("q, g", [
        (nyquist_rect(KN), 4), (nyquist_hex(KN), 4), (SKEWED, 4),
        (nyquist_ellipse(KN, ROTATED), 2), (SHEARED, 2),  # the point reflection only
    ])
    def test_peak_estimate_is_one_block_of_the_lattice_group(self, q, g):
        n = 34873.0  # hex at L=100: 1.2 GB, where two blocks of N/2 gave 7.3 GB
        assert _autocorr_peak_bytes(n, q, set(MIRRORS)) == pytest.approx(16.0 * (n / g) ** 2)
        assert _autocorr_peak_bytes(n, q, set()) == pytest.approx(16.0 * n ** 2)

    @pytest.mark.parametrize("lattice", ["hex", "rect"])
    @pytest.mark.parametrize("scenario, kept", [
        ("isotropic", {"rev", "x", "y"}),
        ("zenith", {"rev", "x", "y"}),
        ("two-cluster", {"y"}),
        ("tilted-90", {"x"}),
        ("tilted-30", set()),
        ("pair-30-210", {"rev"}),  # a real table that neither axis flip keeps
    ])
    def test_peak_estimate_counts_the_blocks_the_scenario_keeps(self, lattice, scenario, kept):
        from helpers import two_cluster_scenario
        s = {"isotropic": lambda: ISO,
             "zenith": lambda: broadside_cluster(40.0),
             "two-cluster": two_cluster_scenario,
             "tilted-90": lambda: _tilted_cluster(90.0),
             "tilted-30": lambda: _tilted_cluster(30.0),
             "pair-30-210": lambda: ScatteringScenario(kn=KN, clusters=tuple(
                 VmfCluster(0.5, math.radians(30.0), math.radians(phi), 20.0)
                 for phi in (30.0, 210.0)))}[scenario]()
        q = {"hex": nyquist_hex, "rect": nyquist_rect}[lattice](KN)
        pts = enumerate_lattice(q, Region(side=6.0 * LAM))
        n = len(pts)
        assert _kept_mirrors(s) == kept
        g = math.sqrt(16.0 * n ** 2 / _autocorr_peak_bytes(n, q, _kept_mirrors(s)))
        assert g == pytest.approx(len(list(build_autocorr_matrix(pts, NumericAcf(s)).blocks())))

    def test_each_block_is_dropped_before_the_next_is_gathered(self, monkeypatch):
        import weakref
        refs = []

        def spy(b):  # runs on each block once it is gathered
            assert all(r() is None for r in refs)
            refs.append(weakref.ref(b))
            return hermitian(b)

        hermitian = analysis._hermitian
        monkeypatch.setattr(analysis, "_hermitian", spy)
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=6.0 * LAM))
        eigen_spectrum(build_autocorr_matrix(pts, ClarkeAcf(KN)))
        assert len(refs) == 4

    def test_non_hermitian_table_rejected_at_its_first_block(self):
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=4.0 * LAM))
        table = build_autocorr_matrix(pts, ClarkeAcf(KN)).table.copy()
        table[len(table) // 2 + 1] += 1e-6  # c(d) no longer equals c(-d)
        blocks = AutocorrMatrix(points=pts, acf=ClarkeAcf(KN), table=table).blocks()
        with pytest.raises(ValueError, match="Hermitian"):
            next(blocks)

    def test_block_orders_checked_before_any_gather(self, monkeypatch):
        def short(points, keeps):
            names, perms, signs, chars, parts = _mirror_group(points, keeps)
            (reps, stab), *rest = parts
            return names, perms, signs, chars, [(reps[1:], stab[1:]), *rest]

        monkeypatch.setattr(analysis, "_mirror_group", short)
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=4.0 * LAM))
        with pytest.raises(ValueError, match=f"sum to the {len(pts)} points"):
            eigen_spectrum(build_autocorr_matrix(pts, ClarkeAcf(KN)))

    def test_non_unit_diagonal_rejected(self):
        class DoubledAcf(Acf):  # c(0) = 2
            kn = KN

            def eval_many(self, disp):
                return 2.0 * ClarkeAcf(KN).eval_many(disp)

        pts = enumerate_lattice(nyquist_hex(KN), Region(side=4.0 * LAM))
        with pytest.raises(ValueError, match="diagonal must be 1"):
            build_autocorr_matrix(pts, DoubledAcf())

    def test_eigensolver_failure_names_the_block(self, monkeypatch):
        def fail(b):
            raise np.linalg.LinAlgError("no convergence")

        pts = enumerate_lattice(nyquist_hex(KN), Region(side=4.0 * LAM))
        mat = build_autocorr_matrix(pts, ClarkeAcf(KN))
        order = len(next(mat.blocks()))
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(RuntimeError, match=f"block of order {order} .*no convergence"):
            eigen_spectrum(mat)

    def test_isotropic_counts_approach_the_szego_limit(self):
        # For the sinc ACF the symbol's highest-power set holding p of the
        # power is the disk of area share p^2, so count_997 tends to
        # 0.997^2 * dof_formula_disk; the excess (the plunge region) grows
        # like L ln L.  The ratio is not monotone at every step (L=40 reads
        # 1.0473, above L=30's 1.0457), so only widely spaced L are chained.
        ratios, excess = {}, {}
        for side in (10, 20, 30, 40):
            region = Region(side=side * LAM)
            pts = enumerate_lattice(nyquist_hex(KN), region)
            count = power_capture_count(
                eigen_spectrum(build_autocorr_matrix(pts, ClarkeAcf(KN))), 0.997)
            limit = 0.997 ** 2 * dof(SpectralSupport.disk(KN), region).dof_real
            ratios[side] = count / limit
            excess[side] = (count - limit) / (side * math.log(side))
        assert ratios[10] > ratios[20] > ratios[30] > 1.0
        assert max(excess.values()) < 2.2, excess

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
        # one sample of a lattice point set moved 1e-6 wavelengths
        pts = enumerate_lattice(q, Region(side=4.0 * LAM))
        moved = pts.positions.copy()
        moved[7, 0] += 1e-6 * LAM
        field = FieldRealization(moved, np.ones(len(pts), dtype=complex), 0, 1, "h")
        with pytest.raises(ValueError, match="1 of .* not lie on the lattice"):
            reconstruct(field, q, kernel_disk(KN), [(0.0, 0.0)])
        # a non-finite position is off the lattice too, without a cast warning
        moved[7, 0] = np.nan
        field = FieldRealization(moved, np.ones(len(pts), dtype=complex), 0, 1, "h")
        with pytest.raises(ValueError, match="1 of .* not lie on the lattice"):
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
        kern, sizes = counting_kernel(kernel_disk(KN))
        samples = enumerate_lattice(nyquist_hex(KN), Region(side=8.0 * LAM)).positions
        query = np.random.default_rng(1).uniform(-1.0, 1.0, (400, 2))
        _interp_matrix(kern, query, samples)
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
        # 32 gives two groups, of 32 and 5 realizations
        for group in (analysis._MSE_GROUP, 32):
            monkeypatch.setattr(analysis, "_MSE_GROUP", group)
            shared = mse_sweep(s, schemes, [region], **kwargs)[0]
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
        mse_sweep(ISO, schemes, [Region(side=2.0 * LAM)], n_realizations=19,
                  seed=2, n_waves=16)
        assert len(calls) == 19

    def test_mismatched_last_scheme_fails_before_drawing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "_draw_waves", lambda *args: calls.append(1))
        for q in ALIASING_FOR_DISK:
            schemes = [(nyquist_hex(KN), kernel_disk(KN)), (q, kernel_disk(KN))]
            with pytest.raises(ValueError, match="replicas overlap"):
                mse_sweep(ISO, schemes, [Region(side=2.0)], n_realizations=2,
                          n_waves=16)
        assert not calls

    @pytest.mark.parametrize("q, kern, path", STRUCTURED)
    def test_structured_build_matches_dense_half_rows(self, monkeypatch, q, kern, path):
        s, region = broadside_cluster(40.0), Region(side=3.0 * LAM)
        kwargs = dict(n_realizations=37, seed=17, n_waves=48)
        # 32 gives two groups, of 32 and 5 realizations
        for group in (analysis._MSE_GROUP, 32):
            monkeypatch.setattr(analysis, "_MSE_GROUP", group)
            got = mse_experiment(s, q, kern, region, **kwargs).pointwise
            with monkeypatch.context() as m:
                m.setattr(analysis, "_add_squared_errors", _dense_half_squared_errors)
                ref = mse_experiment(s, q, kern, region, **kwargs).pointwise
            if path == "half":
                assert np.array_equal(got, ref)
                continue
            # where a grid point is a sample the sinc kernel reproduces it, and
            # both MSEs are round-off that only compares in size
            exact = ref < 1e-24
            assert np.all(got[exact] < 1e-24)
            np.testing.assert_allclose(got[~exact], ref[~exact], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("q, kern, path", STRUCTURED)
    def test_kernel_work_follows_lattice_structure(self, q, kern, path):
        # rect kernels on a full index box need their two 1-D factor tables;
        # with both axis flips the grid quadrant x, y <= 0; else half the grid
        counted, evaluated = counting_kernel(kern)
        region = Region(side=3.0 * LAM)
        rep = mse_experiment(ISO, q, counted, region, n_realizations=3, seed=5, n_waves=32)
        pts = enumerate_lattice(q, region)
        size = len(rep.axis)
        rows = {"quadrant": (size // 2 + 1) ** 2, "half": (size * size + 1) // 2}
        if path == "separable":  # plus one row that checks the factorization
            assert sum(evaluated) == size * (np.ptp(pts.indices, axis=0) + 1).sum() + len(pts)
        else:  # plus the centre row, built first to check the mirrors
            assert sum(evaluated) == (rows[path] + 1) * len(pts)
        assert max(evaluated) <= analysis._INTERP_ELEMS

    def test_odd_kernel_rejected(self):
        kern = kernel_disk(KN)
        shifted = Kernel(kern.support, kern.peak,
                         fn=lambda r: kern.fn(r - np.array([0.1 * LAM, 0.0])))
        with pytest.raises(ValueError, match="kernel must be even"):
            mse_experiment(ISO, nyquist_hex(KN), shifted, Region(side=2.0 * LAM),
                           n_realizations=2, n_waves=16)

    def test_odd_rect_factor_rejected(self):
        # the separable build checks evenness on its 1-D factor tables
        kern = kernel_rect(KN)
        shifted = Kernel(kern.support, kern.peak,
                         fn=lambda r: kern.fn(r - np.array([0.0, 0.1 * LAM])))
        with pytest.raises(ValueError, match="kernel must be even"):
            mse_experiment(ISO, nyquist_rect(KN), shifted, Region(side=2.0 * LAM),
                           n_realizations=2, n_waves=16)

    def test_separable_build_ignores_the_declared_peak(self):
        # the 1-D factors are divided by the kernel's own f(0, 0), not by peak
        kern = kernel_rect(KN)
        wrong = Kernel(kern.support, 2.0, kern.fn)
        kwargs = dict(n_realizations=8, seed=3, n_waves=64)
        a = mse_experiment(ISO, nyquist_rect(KN), kern, Region(side=4.0 * LAM), **kwargs)
        b = mse_experiment(ISO, nyquist_rect(KN), wrong, Region(side=4.0 * LAM), **kwargs)
        assert np.array_equal(a.pointwise, b.pointwise)
        assert a.average == b.average

    def test_non_separable_rect_kernel_rejected(self):
        # a jinc profile on a rect support: even and flip-invariant, not separable
        jinc_on_rect = Kernel(kernel_rect(KN).support, 1.0, kernel_disk(KN).fn)
        with pytest.raises(ValueError, match="kernel must be separable"):
            mse_experiment(ISO, nyquist_rect(KN), jinc_on_rect, Region(side=4.0 * LAM),
                           n_realizations=2, n_waves=16)

    def test_flip_asymmetric_kernel_rejected(self):
        # even, but sheared: it disagrees with the disk support's axis flips
        kern = kernel_disk(KN)
        shear = np.array([[1.0, 0.0], [0.3, 1.0]])
        sheared = Kernel(kern.support, kern.peak, fn=lambda r: kern.fn(r @ shear))
        with pytest.raises(ValueError, match="invariant under the x flip"):
            mse_experiment(ISO, nyquist_hex(KN), sheared, Region(side=2.0 * LAM),
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
        with pytest.raises(ValueError, match="n_waves"):
            mse_experiment(ISO, nyquist_hex(KN), kernel_disk(KN),
                           Region(side=2.0), n_realizations=2, n_waves=-3)
        with pytest.raises(ValueError, match="n_waves"):
            mse_sweep(ISO, [(nyquist_hex(KN), kernel_disk(KN))], [Region(side=2.0)],
                      n_realizations=2, n_waves=0)


def _quadrant_query(side):
    """The MSE grid's axis at ``side`` and its quadrant points x, y <= 0, row by row."""
    h = _grid_half(ISO, Region(side=side))
    axis = LAM / 8 * np.arange(-h, h + 1)
    ii, jj = np.divmod(np.arange((h + 1) ** 2), h + 1)
    return axis, np.column_stack([axis[ii], axis[jj]])


def _assembled(chunks, n_rows):
    """The matrix that row chunks ``(rows, f)`` make up; each row must come exactly once."""
    rows, fs = zip(*chunks)
    order = np.concatenate(rows)
    assert np.array_equal(np.sort(order), np.arange(n_rows))
    out = np.empty((n_rows, fs[0].shape[1]))
    out[order] = np.vstack(fs)
    return out


# the hex lattice turned by 90 degrees (whose period runs along x), and the
# fitted support of criterion 08 and the benchmark, which has both flips but
# no lattice vector a multiple of lambda/8 along a grid axis
TURNED = EllipseShape(a1=1.0, a2=1.0, phi=0.5 * math.pi)
FITTED = EllipseShape(a1=0.4658, a2=0.4658, phi=0.5 * math.pi)


class TestQuadrantRows:
    # hex repeats every 8 grid steps along y, lattice vector (0, lambda);
    # ELLIPSE every 16, (0, 2 lambda); at 8 lambda the ELLIPSE quadrant has 17
    # grid lines and reusing one would evaluate more than the dense build
    @pytest.mark.parametrize("q, kern, side", [
        (nyquist_hex(KN), kernel_disk(KN), 4.0),
        (nyquist_hex(KN), kernel_disk(KN), 8.0),
        (nyquist_hex(KN), kernel_disk(KN), 20.0),
        (nyquist_ellipse(KN, ELLIPSE), kernel_ellipse(KN, ELLIPSE), 16.0),
        (nyquist_ellipse(KN, ELLIPSE), kernel_ellipse(KN, ELLIPSE), 20.0),
        (nyquist_ellipse(KN, TURNED), kernel_ellipse(KN, TURNED), 8.0),
    ], ids=["hex-4", "hex-8", "hex-20", "ellipse-16", "ellipse-20", "hex-turned-8"])
    def test_period_rows_match_dense(self, q, kern, side):
        pts = enumerate_lattice(q, Region(side=side * LAM))
        axis, query = _quadrant_query(side * LAM)
        want = _interp_matrix(kern, query, pts.positions)
        # one shift of a line per chunk, or several
        for rows in (1, 100):
            counted, sizes = counting_kernel(kern)
            got = _assembled(_mirror_rows(counted, pts, axis, query, True, rows), len(query))
            # rows were reused, and no kernel call exceeds the element budget
            assert sum(sizes) < want.size
            assert max(sizes) <= analysis._INTERP_ELEMS
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("q, kern, side", [
        (nyquist_ellipse(KN, FITTED), kernel_ellipse(KN, FITTED), 20.0),
    ], ids=["fitted-ellipse-no-period"])
    def test_without_reuse_rows_are_dense(self, q, kern, side):
        pts = enumerate_lattice(q, Region(side=side * LAM))
        axis, query = _quadrant_query(side * LAM)
        # the quadrant rows that the reconstruction streams are built densely:
        # one kernel value per row entry, none gathered from a period line
        counted, sizes = counting_kernel(kern)
        rows = _assembled(_mirror_rows(counted, pts, axis, query, True, 64), len(query))
        assert sum(sizes) == rows.size
        assert np.array_equal(rows, _interp_matrix(kern, query, pts.positions))

    def test_hex_kernel_work_is_one_period(self):
        # p = 8 grid lines of 41 points, against 1681 dense rows of 1415
        # samples: line 0 serves the shifts c = 0..5 over all 1760 indices
        # n - c (1, -1), lines 1..7 serve c = 0..4 over the first 1691
        kern, sizes = counting_kernel(kernel_disk(KN))
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=20.0 * LAM))
        axis, query = _quadrant_query(20.0 * LAM)
        for _ in _mirror_rows(kern, pts, axis, query, True, 1):
            pass
        assert len(pts) == 1415 and len(axis) == 81
        assert sum(sizes) == 41 * (1760 + 7 * 1691) == 557477

    def test_hex_rows_are_streamed(self):
        # one hex L=20 cell holds a grid line of rows at a time, not the
        # 41^2 x 1415 quadrant matrix (19 MB), and no kernel call exceeds the
        # budget; one kernel call's own temporaries (about 4.6 MB at the
        # budget) do not depend on the cell, so they are measured and set aside
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=20.0 * LAM))
        axis, query = _quadrant_query(20.0 * LAM)
        kern, sizes = counting_kernel(kernel_disk(KN))
        rng = np.random.default_rng(0)
        n, n_grid = 16, len(axis) ** 2
        samples = rng.standard_normal((len(pts), n)) + 1j * rng.standard_normal((len(pts), n))
        truth = rng.standard_normal((n_grid, n)) + 1j * rng.standard_normal((n_grid, n))
        total = np.zeros(n_grid)
        diff = query[:analysis._INTERP_ELEMS // len(pts), None] - pts.positions[None]
        tracemalloc.start()
        try:
            kern(diff)
            one_call = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            analysis._add_squared_errors(total, kern, pts, axis, samples, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        quadrant_bytes = 8 * len(query) * len(pts)
        assert quadrant_bytes > 19e6
        assert peak - one_call < quadrant_bytes / 4, (peak, one_call)
        assert max(sizes) <= analysis._INTERP_ELEMS

    def test_hex_mse_matches_dense_half_rows(self, monkeypatch):
        s, region = broadside_cluster(40.0), Region(side=8.0 * LAM)
        kwargs = dict(n_realizations=37, seed=17, n_waves=48)
        got = mse_experiment(s, nyquist_hex(KN), kernel_disk(KN), region, **kwargs).pointwise
        monkeypatch.setattr(analysis, "_add_squared_errors", _dense_half_squared_errors)
        ref = mse_experiment(s, nyquist_hex(KN), kernel_disk(KN), region, **kwargs).pointwise
        # where a grid point is a sample the sinc kernel reproduces it, and
        # both MSEs are round-off that only compares in size
        exact = ref < 1e-24
        assert np.all(got[exact] < 1e-24)
        np.testing.assert_allclose(got[~exact], ref[~exact], rtol=1e-12, atol=0.0)


class TestMseSweep:
    SHAPE = EllipseShape(a1=0.8, a2=0.5, phi=0.6)
    # the separable, quadrant and half-row builds
    SCHEMES = [(nyquist_rect(KN), kernel_rect(KN)), (nyquist_hex(KN), kernel_disk(KN)),
               (nyquist_ellipse(KN, SHAPE), kernel_ellipse(KN, SHAPE))]
    SIDES = (2.0, 3.0, 4.0)

    def test_draws_and_syntheses_once_per_realization(self, monkeypatch):
        # one draw and one grid truth per realization, and per scheme one
        # synthesis at its largest lattice, for all three sides
        calls = {"draw": 0, "sum": 0}

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(analysis, "_draw_waves", counting("draw", _draw_waves))
        monkeypatch.setattr(analysis, "_lattice_wave_sum", counting("sum", _lattice_wave_sum))
        n_real = 19
        mse_sweep(ISO, self.SCHEMES, [Region(side=v * LAM) for v in self.SIDES],
                  n_realizations=n_real, seed=2, n_waves=16)
        assert calls == {"draw": n_real, "sum": (1 + len(self.SCHEMES)) * n_real}

    def test_cells_match_separate_runs(self, monkeypatch):
        # the largest side is its separate run bit for bit; a smaller side's
        # values come out of a larger exponential product, so it agrees to
        # round-off, whatever the group size
        s = broadside_cluster(40.0)
        kwargs = dict(n_realizations=37, seed=13, n_waves=48)
        regions = [Region(side=v * LAM) for v in self.SIDES]
        separate = [mse_sweep(s, self.SCHEMES, [r], **kwargs)[0] for r in regions]
        # 32 gives two groups, of 32 and 5 realizations
        for group in (analysis._MSE_GROUP, 32):
            monkeypatch.setattr(analysis, "_MSE_GROUP", group)
            swept = mse_sweep(s, self.SCHEMES, regions, **kwargs)
            assert len(swept) == len(regions)
            for cells, refs in zip(swept[:-1], separate[:-1]):
                for a, b in zip(cells, refs, strict=True):
                    assert np.array_equal(a.axis, b.axis)
                    assert a.n_samples == b.n_samples
                    # where a grid point is a sample the sinc kernel reproduces
                    # it, and both MSEs are round-off that only compares in size
                    exact = b.pointwise < 1e-24
                    assert np.all(a.pointwise[exact] < 1e-24)
                    np.testing.assert_allclose(a.pointwise[~exact], b.pointwise[~exact],
                                               rtol=1e-12, atol=0.0)
            for a, b in zip(swept[-1], separate[-1], strict=True):
                assert np.array_equal(a.pointwise, b.pointwise)
                assert a.average == b.average
                assert a.n_samples == b.n_samples

    def test_unsorted_and_repeated_sides(self):
        kwargs = dict(n_realizations=5, seed=3, n_waves=32)
        ordered = mse_sweep(ISO, self.SCHEMES, [Region(side=v * LAM) for v in self.SIDES],
                            **kwargs)
        mixed = mse_sweep(ISO, self.SCHEMES,
                          [Region(side=v * LAM) for v in (3.0, 2.0, 4.0, 3.0)], **kwargs)
        for got, want in zip(mixed, [ordered[1], ordered[0], ordered[2], ordered[1]],
                             strict=True):
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a.pointwise, b.pointwise)
                assert a.n_samples == b.n_samples

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="regions"):
            mse_sweep(ISO, self.SCHEMES, [], n_realizations=2, n_waves=16)


def _exact_and_floor(q, kern, region):
    """Exact expected squared error of the cardinal series, and the Wiener floor, per grid point.

    The reconstruction is linear in the samples, so at grid point ``r`` the
    isotropic field's expected squared error is ``1 - 2 f.x + f.C f`` with
    ``f`` the interpolation row, ``x_n = c(r - r_n)`` and ``C`` the samples'
    autocorrelation matrix; no linear estimator from the same samples beats
    the Wiener (LMMSE) error ``1 - x.C+ x``, with eigenvalues below 1e-10 of
    the largest cut from the pseudo-inverse.
    """
    pts = enumerate_lattice(q, region)
    h = _grid_half(ISO, region)
    axis = LAM / 8 * np.arange(-h, h + 1)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    f = _interp_matrix(kern, grid, pts.positions)
    x = ClarkeAcf(KN).eval_many(grid[:, None] - pts.positions[None]).real
    c = build_autocorr_matrix(pts, ClarkeAcf(KN)).entries.real
    exact = 1.0 - 2.0 * np.sum(f * x, axis=1) + np.sum((f @ c) * f, axis=1)
    w, v = np.linalg.eigh(c)
    keep = w > 1e-10 * w.max()
    floor = 1.0 - np.sum((x @ v[:, keep]) ** 2 / w[keep], axis=1)
    return exact, floor


class TestMseOracle:
    # every build of mse_sweep: separable, quadrant with a period, quadrant
    # without one, half rows
    SCHEMES = [
        (nyquist_rect(KN), kernel_rect(KN)),
        (nyquist_rect(Wavenumber.from_wavelength(LAM / 0.8)), kernel_rect(KN, scale=0.8)),
        (nyquist_hex(KN), kernel_disk(KN)),
        (nyquist_ellipse(KN, ELLIPSE), kernel_ellipse(KN, ELLIPSE)),
        (nyquist_ellipse(KN, ROTATED), kernel_ellipse(KN, ROTATED)),
    ]
    SIDES = (2.0, 4.0)

    def test_monte_carlo_mse_matches_exact(self):
        # 128 one-realization sweeps give each cell's mean and standard error
        regions = [Region(side=v * LAM) for v in self.SIDES]
        runs = np.array([[[rep.average for rep in cells] for cells in
                          mse_sweep(ISO, self.SCHEMES, regions, n_realizations=1,
                                    seed=seed, n_waves=1024)]
                         for seed in range(5000, 5128)])
        mean, stderr = runs.mean(axis=0), runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
        for i, region in enumerate(regions):
            for j, (q, kern) in enumerate(self.SCHEMES):
                exact, floor = _exact_and_floor(q, kern, region)
                assert abs(mean[i, j] - exact.mean()) < 4.0 * stderr[i, j], (i, j)
                assert (exact - floor).min() >= -1e-9, (i, j)

    @pytest.mark.parametrize("side, hex_db, rect_db", [(2.0, -8.432, -11.285),
                                                        (4.0, -10.063, -13.452)])
    def test_exact_mse_reproduces_table(self, side, hex_db, rect_db):
        # the isotropic table of exact averages, in dB
        region = Region(side=side * LAM)
        for (q, kern), want in [(self.SCHEMES[2], hex_db), (self.SCHEMES[0], rect_db)]:
            exact, _ = _exact_and_floor(q, kern, region)
            assert 10.0 * math.log10(exact.mean()) == pytest.approx(want, abs=5e-4)
