"""Bessel evaluation, interpolating kernels, and the quadrature cross-check."""

import math

import numpy as np
import pytest

from fieldsamp import (
    ConvergenceError,
    EllipseShape,
    SpectralSupport,
    Wavenumber,
    bessel_j1,
    jinc,
    kernel_disk,
    kernel_ellipse,
    kernel_oracle,
    kernel_rect,
    rotation_matrix,
)
from fieldsamp import kernels

LAM = 1.0
KN = Wavenumber.from_wavelength(LAM)

# Reference values computed once with 40-digit arbitrary-precision arithmetic
# and frozen here; the two entries near 3.83171 and 7.01559 are the first two
# positive roots, where absolute error is the meaningful measure.
J1_TABLE = [
    (0.001, 4.99999937500002645e-04),
    (0.1, 4.99375260362419984e-02),
    (0.5, 2.42268457674873899e-01),
    (1.0, 4.40050585744933498e-01),
    (2.0, 5.76724807756873403e-01),
    (3.0, 3.39058958525936482e-01),
    (3.8317059702075125, 0.0),
    (4.9, -3.14694671015190608e-01),
    (5.0, -3.27579137591465230e-01),
    (6.5, -1.53841301409971848e-01),
    (7.015586669815619, 0.0),
    (10.0, 4.34727461688614383e-02),
    (13.3, -5.17748055467095927e-03),
    (17.5, -1.63419969425754902e-01),
    (25.0, -1.25350249580289896e-01),
    (36.0, -8.23298094864489266e-02),
    (50.0, -9.75118281251751429e-02),
]


class TestBesselJ1:
    @pytest.mark.parametrize("x,ref", J1_TABLE)
    def test_against_frozen_high_precision_values(self, x, ref):
        assert bessel_j1(x) == pytest.approx(ref, abs=5e-15)

    def test_odd_symmetry(self):
        xs = np.array([0.3, 1.7, 4.2, 9.9, 31.0])
        assert np.allclose(bessel_j1(-xs), -bessel_j1(xs), atol=1e-16)

    def test_zero(self):
        assert bessel_j1(0.0) == 0.0

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-20.0, 20.0, 101)
        vec = bessel_j1(xs)
        assert vec.shape == xs.shape
        assert np.array_equal(vec, np.array([bessel_j1(float(x)) for x in xs]))


class TestJinc:
    def test_value_at_zero(self):
        assert jinc(0.0) == 0.5

    def test_definition_away_from_zero(self):
        xs = np.array([0.5, 2.0, 7.7])
        assert np.allclose(jinc(xs), bessel_j1(xs) / xs, atol=1e-16)

    def test_series_matches_ratio_at_switchover(self):
        # the small-argument series hands over to J1(x)/x near 1e-4; both
        # branches must agree there to full precision
        for x in (9.9e-5, 1.01e-4):
            assert jinc(x) == pytest.approx(0.5 - x * x / 16.0, abs=1e-15)

    def test_even_symmetry(self):
        xs = np.array([1e-6, 0.3, 4.0])
        assert np.allclose(jinc(-xs), jinc(xs), atol=1e-16)


class TestRectKernel:
    def test_peak_and_center(self):
        kern = kernel_rect(KN)
        assert kern((0.0, 0.0)) == pytest.approx(1.0, rel=1e-15)
        assert kern.peak == pytest.approx(1.0, rel=1e-15)

    def test_separable_sinc_values(self):
        kern = kernel_rect(KN)
        x, y = 0.37, 1.21
        ref = (math.sin(2.0 * math.pi * x / LAM) / (2.0 * math.pi * x / LAM)
               * math.sin(2.0 * math.pi * y / LAM) / (2.0 * math.pi * y / LAM))
        assert kern((x, y)) == pytest.approx(ref, rel=1e-12)

    def test_cardinal_property_on_own_lattice(self):
        # exactly one at the origin, exactly zero at every other grid node
        kern = kernel_rect(KN)
        ii, jj = np.meshgrid(np.arange(-4, 5), np.arange(-4, 5), indexing="ij")
        pts = np.stack([ii, jj], axis=-1) * (LAM / 2.0)
        vals = kern(pts.reshape(-1, 2))
        center = (ii.ravel() == 0) & (jj.ravel() == 0)
        assert vals[center] == pytest.approx(1.0, rel=1e-15)
        assert np.abs(vals[~center]).max() < 1e-15

    def test_scaled_variant_stretches(self):
        scale = 0.5
        kern = kernel_rect(KN, scale=scale)
        ref = kernel_rect(Wavenumber.from_wavelength(LAM / scale))
        for r in [(0.3, -0.7), (1.9, 0.2)]:
            assert kern(r) == pytest.approx(ref(r), rel=1e-12)
        assert kern.support.kind == "rect"
        assert kern.support.kn.kappa == pytest.approx(scale * KN.kappa, rel=1e-15)


class TestDiskKernel:
    def test_peak_value(self):
        kern = kernel_disk(KN)
        assert kern((0.0, 0.0)) == pytest.approx(math.pi / (2.0 * math.sqrt(3.0)),
                                                 rel=1e-15)
        assert kern.peak == pytest.approx(0.9068996821171089, rel=1e-14)

    def test_radial_symmetry(self):
        kern = kernel_disk(KN)
        r = 0.83
        vals = [kern((r * math.cos(t), r * math.sin(t)))
                for t in np.linspace(0.0, 2.0 * math.pi, 9)]
        assert np.ptp(vals) < 1e-14

    def test_first_zero_radius(self):
        # frozen root of J1(2*pi*r): r = 0.6098349456332522 wavelengths
        kern = kernel_disk(KN)
        assert kern((0.6098349456332522 * LAM, 0.0)) == pytest.approx(0.0, abs=1e-12)


class TestEllipseKernel:
    def test_reduces_to_disk_at_unit_axes(self):
        shape = EllipseShape(a1=1.0, a2=1.0, phi=0.0)
        ek, dk = kernel_ellipse(KN, shape), kernel_disk(KN)
        for r in [(0.0, 0.0), (0.4, 0.1), (1.3, -2.2)]:
            assert ek(r) == pytest.approx(dk(r), rel=1e-14)

    def test_axis_scaling(self):
        # exact relation: f_E(x, y) = f_disk(a1*x, a2*y); the axis Jacobian
        # cancels against the larger cell of the stretched lattice
        shape = EllipseShape(a1=0.8, a2=0.5, phi=0.0)
        kern = kernel_ellipse(KN, shape)
        dk = kernel_disk(KN)
        for x, y in [(0.7, 0.0), (0.0, 1.1), (0.6, -0.9), (0.0, 0.0)]:
            assert kern((x, y)) == pytest.approx(dk((0.8 * x, 0.5 * y)),
                                                 rel=1e-12, abs=1e-15)

    def test_kernel_turns_with_its_support(self):
        # the kernel is expressed in the lab frame; rotating the shape by phi
        # rotates the kernel profile by phi
        base = kernel_ellipse(KN, EllipseShape(a1=0.8, a2=0.5, phi=0.0))
        rot = kernel_ellipse(KN, EllipseShape(a1=0.8, a2=0.5, phi=1.1))
        for r in [(0.4, 0.3), (-1.0, 0.8)]:
            assert rot(rotation_matrix(1.1) @ r) == pytest.approx(base(r), rel=1e-14)
        assert rot.support.shape.phi == pytest.approx(1.1, rel=1e-15)


class TestKernelCallValidation:
    def test_trailing_dimension_checked(self):
        kern = kernel_disk(KN)
        with pytest.raises(ValueError):
            kern(np.zeros(3))

    def test_grid_broadcasting(self):
        kern = kernel_disk(KN)
        grid = np.zeros((4, 5, 2))
        grid[..., 0] = np.linspace(-1, 1, 4)[:, None]
        grid[..., 1] = np.linspace(-1, 1, 5)[None, :]
        vals = kern(grid)
        assert vals.shape == (4, 5)
        flat = kern(grid.reshape(-1, 2))
        assert np.array_equal(vals.ravel(), flat)


class TestKernelOracle:
    def test_rect_closed_form(self):
        s = SpectralSupport.rect(KN)
        kern = kernel_rect(KN)
        q = np.diag([LAM / 2.0, LAM / 2.0])
        for r in [(0.0, 0.0), (0.31, 0.17), (1.4, -0.6), (2.3, 2.3)]:
            assert kernel_oracle(s, q, r) == pytest.approx(kern(r), abs=1e-8)

    def test_disk_closed_form(self):
        from fieldsamp import nyquist_hex
        s = SpectralSupport.disk(KN)
        kern = kernel_disk(KN)
        q = nyquist_hex(KN).q
        for r in [(0.0, 0.0), (0.2, 0.5), (1.7, -0.8)]:
            assert kernel_oracle(s, q, r) == pytest.approx(kern(r), abs=1e-8)

    def test_rotated_ellipse_matches_frame_mapped_closed_form(self):
        from fieldsamp import nyquist_ellipse
        shape = EllipseShape(a1=0.8, a2=0.5, phi=0.9)
        s = SpectralSupport.ellipse(KN, shape)
        kern = kernel_ellipse(KN, shape)
        q = nyquist_ellipse(KN, shape).q
        for r in [(0.4, 0.2), (-1.1, 0.7)]:
            assert kernel_oracle(s, q, r) == pytest.approx(kern(r), abs=1e-8)

    def test_exhausted_levels_raise_with_estimate(self, monkeypatch):
        from fieldsamp import nyquist_hex
        s = SpectralSupport.disk(KN)
        r = (0.6, -0.3)
        monkeypatch.setattr(kernels, "_ORACLE_TOL", 1e-300)
        with pytest.raises(ConvergenceError) as err:
            kernel_oracle(s, nyquist_hex(KN).q, r)
        assert abs(err.value.estimate - kernel_disk(KN)(r)) < 1e-8
        assert math.isfinite(err.value.achieved)
