"""Wavenumber bookkeeping, supports, dispersion, and the migration filter."""

import math

import numpy as np
import pytest

from fieldsamp import (
    EllipseShape,
    Region,
    SpectralSupport,
    WaveVector,
    Wavenumber,
    kz,
    migration_filter,
    rotation_matrix,
    support_contains,
    support_measure,
    wavevector_from_angles,
)

LAM = 1.0
KN = Wavenumber.from_wavelength(LAM)


class TestWavenumber:
    def test_kappa_lambda_identity(self):
        assert KN.kappa * KN.wavelength == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_roundtrip(self):
        kn = Wavenumber.from_kappa(5.0)
        assert Wavenumber.from_wavelength(kn.wavelength).kappa == pytest.approx(5.0, rel=1e-15)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_wavelength(self, lam):
        with pytest.raises(ValueError):
            Wavenumber.from_wavelength(lam)


class TestRotation:
    def test_orthonormal_unit_determinant(self):
        r = rotation_matrix(0.7)
        assert np.allclose(r.T @ r, np.eye(2), atol=1e-15)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-15)

    def test_action_on_x_axis(self):
        r = rotation_matrix(math.pi / 2.0)
        assert np.allclose(r @ [1.0, 0.0], [0.0, 1.0], atol=1e-15)


class TestEllipseShape:
    def test_shape_matrix_inverse(self):
        shape = EllipseShape(a1=0.8, a2=0.3, phi=0.4)
        assert np.allclose(shape.shape_matrix @ shape.inverse_shape_matrix,
                           np.eye(2), atol=1e-14)

    def test_angle_normalized(self):
        shape = EllipseShape(a1=0.8, a2=0.3, phi=-0.5)
        assert 0.0 <= shape.phi < 2.0 * math.pi

    @pytest.mark.parametrize("phi", [-1e-17, -1e-300, -0.0])
    def test_tiny_negative_angle_folds_to_zero(self, phi):
        # phi % 2pi rounds -1e-17 to 2pi itself
        assert EllipseShape(a1=0.8, a2=0.3, phi=phi).phi == 0.0

    @pytest.mark.parametrize("phi", [-0.5, -1e-9, 7.0, 2.0 * math.pi])
    def test_angles_keep_their_remainder(self, phi):
        assert EllipseShape(a1=0.8, a2=0.3, phi=phi).phi == phi % (2.0 * math.pi)

    @pytest.mark.parametrize("a1,a2", [(0.5, 0.8), (1.2, 0.5), (0.5, 0.0), (0.0, 0.0)])
    def test_axis_ordering_and_bounds(self, a1, a2):
        with pytest.raises(ValueError):
            EllipseShape(a1=a1, a2=a2, phi=0.0)


class TestSupports:
    def test_measures(self):
        kap = KN.kappa
        assert support_measure(SpectralSupport.disk(KN)) == pytest.approx(
            math.pi * kap ** 2, rel=1e-15)
        assert support_measure(SpectralSupport.rect(KN)) == pytest.approx(
            (2.0 * kap) ** 2, rel=1e-15)
        shape = EllipseShape(a1=0.8, a2=0.5, phi=0.3)
        assert support_measure(SpectralSupport.ellipse(KN, shape)) == pytest.approx(
            math.pi * kap ** 2 * 0.4, rel=1e-15)

    def test_disk_membership_closed_boundary(self):
        s = SpectralSupport.disk(KN)
        assert support_contains(s, (KN.kappa, 0.0))
        assert support_contains(s, (0.0, 0.0))
        assert not support_contains(s, (KN.kappa * 1.000001, 0.0))

    def test_rect_membership(self):
        s = SpectralSupport.rect(KN)
        kap = KN.kappa
        assert support_contains(s, (kap, kap))
        assert not support_contains(s, (kap * 1.000001, 0.0))

    def test_ellipse_membership_rotates_with_shape(self):
        kap = KN.kappa
        shape = EllipseShape(a1=1.0, a2=0.5, phi=math.pi / 2.0)
        s = SpectralSupport.ellipse(KN, shape)
        # major axis now along y: the x axis only reaches a2*kappa
        assert support_contains(s, (0.0, kap))
        assert support_contains(s, (0.5 * kap, 0.0))
        assert not support_contains(s, (0.51 * kap, 0.0))

    def test_to_base_maps_support_onto_base_shape(self):
        kap = KN.kappa
        shape = EllipseShape(a1=0.8, a2=0.3, phi=1.2)
        s = SpectralSupport.ellipse(KN, shape)
        psi = np.linspace(0.0, 2.0 * math.pi, 17)
        rim = kap * np.column_stack([np.cos(psi), np.sin(psi)]) @ shape.shape_matrix.T
        mapped = rim @ s.to_base.T
        assert np.allclose(np.hypot(mapped[:, 0], mapped[:, 1]), kap, rtol=1e-14, atol=0.0)
        assert np.array_equal(SpectralSupport.disk(KN).to_base, np.eye(2))
        assert np.array_equal(SpectralSupport.rect(KN).to_base, np.eye(2))

    def test_region_area_and_validation(self):
        assert Region(side=3.0).area == pytest.approx(9.0, rel=1e-15)
        with pytest.raises(ValueError):
            Region(side=0.0)


class TestDispersion:
    def test_inside_real_nonnegative(self):
        val = kz((0.6 * KN.kappa, 0.0), KN)
        assert val.imag == 0.0
        assert val.real == pytest.approx(0.8 * KN.kappa, rel=1e-12)

    def test_at_origin_equals_kappa(self):
        assert kz((0.0, 0.0), KN) == pytest.approx(KN.kappa, rel=1e-15)

    def test_outside_positive_imaginary(self):
        val = kz((1.25 * KN.kappa, 0.0), KN)
        assert val.real == 0.0
        assert val.imag == pytest.approx(0.75 * KN.kappa, rel=1e-12)

    def test_boundary_zero(self):
        assert abs(kz((KN.kappa, 0.0), KN)) == pytest.approx(0.0, abs=1e-9)


class TestMigrationFilter:
    def test_all_pass_inside(self):
        for frac in (0.0, 0.3, 0.9, 0.999):
            h = migration_filter((frac * KN.kappa, 0.0), z=7.0 * LAM, kn=KN)
            assert abs(h) == pytest.approx(1.0, rel=1e-12)

    def test_evanescent_attenuation_value(self):
        # frozen oracle: 20*log10(exp(-z*sqrt(k^2-kappa^2))) at k=1.05*kappa,
        # z=10*lambda, computed at 40 digits -> -174.72542600529903 dB
        h = migration_filter((1.05 * KN.kappa, 0.0), z=10.0 * LAM, kn=KN)
        db = 20.0 * math.log10(abs(h))
        assert db == pytest.approx(-174.72542600529903, abs=1e-6)

    def test_zero_depth_is_identity(self):
        h = migration_filter((1.3 * KN.kappa, 0.0), z=0.0, kn=KN)
        assert h == pytest.approx(1.0, rel=1e-15)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            migration_filter((0.0, 0.0), z=-1.0, kn=KN)


class TestWaveVectorFromAngles:
    def test_norm_and_dispersion(self):
        theta, phi = 0.7, 1.9
        wv, kzv = wavevector_from_angles(theta, phi, KN)
        assert wv.norm == pytest.approx(KN.kappa * math.sin(theta), rel=1e-12)
        assert kzv == pytest.approx(KN.kappa * math.cos(theta), rel=1e-12)
        assert math.atan2(wv.ky, wv.kx) == pytest.approx(phi, rel=1e-12)

    def test_horizon_lies_on_disk_boundary(self):
        wv, kzv = wavevector_from_angles(math.pi / 2.0, 0.0, KN)
        assert wv.norm == pytest.approx(KN.kappa, rel=1e-12)
        assert kzv == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta,phi", [(-0.1, 0.0), (2.0, 0.0), (0.3, -0.1),
                                           (0.3, 7.0)])
    def test_angle_validation(self, theta, phi):
        with pytest.raises(ValueError):
            wavevector_from_angles(theta, phi, KN)


class TestWaveVector:
    def test_array_and_norm(self):
        wv = WaveVector(kx=3.0, ky=4.0)
        assert np.allclose(wv.array, [3.0, 4.0])
        assert wv.norm == pytest.approx(5.0, rel=1e-15)
