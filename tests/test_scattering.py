"""Angular power profiles, spectral densities, and threshold support fits."""

import json
import math

import numpy as np
import pytest

from fieldsamp import (
    ScatteringScenario,
    VmfCluster,
    Wavenumber,
    kz,
    psd,
    spectral_factor_sq,
    support_area_at_threshold,
    support_at_threshold,
)
from fieldsamp._quad import hemisphere_rule
from fieldsamp.lattice import _ALIAS_RTOL
from fieldsamp.scattering import _hemisphere_exp_integral, _threshold_mask
from helpers import broadside_cluster, two_cluster_scenario

LAM = 1.0
KN = Wavenumber.from_wavelength(LAM)
INV_TWO_PI = 1.0 / (2.0 * math.pi)


class TestClusterValidation:
    @pytest.mark.parametrize("kw", [
        dict(weight=0.0), dict(weight=1.5), dict(weight=-0.2),
        dict(theta_r=-0.1), dict(theta_r=2.0),
        dict(phi_r=-0.1), dict(phi_r=7.0),
        dict(alpha=-1.0), dict(alpha=math.nan),
    ])
    def test_rejects_bad_fields(self, kw):
        base = dict(weight=1.0, theta_r=0.3, phi_r=0.4, alpha=5.0)
        base.update(kw)
        with pytest.raises(ValueError):
            VmfCluster(**base)

    def test_modal_direction_unit_norm(self):
        c = VmfCluster(weight=1.0, theta_r=0.7, phi_r=2.2, alpha=3.0)
        assert np.linalg.norm(c.modal_direction) == pytest.approx(1.0, rel=1e-14)
        assert c.modal_direction[2] == pytest.approx(math.cos(0.7), rel=1e-14)


class TestScenarioConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ScatteringScenario(kn=KN, clusters=(
                VmfCluster(0.5, 0.0, 0.0, 1.0),
                VmfCluster(0.4, 0.1, 0.0, 1.0),
            ))

    def test_needs_at_least_one_cluster(self):
        with pytest.raises(ValueError):
            ScatteringScenario(kn=KN, clusters=())

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ScatteringScenario.from_dict({"lambda": 1.0, "clusters": [], "x": 1})

    def test_from_dict_rejects_unknown_cluster_keys(self):
        doc = {"lambda": 1.0, "clusters": [
            {"weight": 1.0, "theta_deg": 0.0, "phi_deg": 0.0, "alpha": 1.0,
             "spread": 2.0}]}
        with pytest.raises(ValueError, match="unknown keys"):
            ScatteringScenario.from_dict(doc)

    def test_from_dict_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            ScatteringScenario.from_dict({"clusters": []})

    @pytest.mark.parametrize("doc, field", [
        ({"lambda": 1.0, "clusters": 5}, "clusters"),
        ({"lambda": 1.0, "clusters": [7]}, "cluster 0"),
        ({"lambda": None, "clusters": []}, "lambda"),
        ({"lambda": 1.0, "clusters": [
            {"weight": None, "theta_deg": 0.0, "phi_deg": 0.0, "alpha": 1.0}]}, "weight"),
    ], ids=["clusters-number", "cluster-number", "lambda-null", "weight-null"])
    def test_from_dict_names_a_field_of_the_wrong_type(self, doc, field):
        with pytest.raises(ValueError, match=field):
            ScatteringScenario.from_dict(doc)

    @pytest.mark.parametrize("phi_deg", [-1e-14, -1e-300, -0.0, 0.0])
    def test_tiny_negative_azimuth_folds_to_zero(self, phi_deg):
        # -1e-14 % 360 rounds to 360, which the cluster would reject as 2*pi
        s = ScatteringScenario.from_dict({"lambda": 1.0, "clusters": [
            {"weight": 1.0, "theta_deg": 10.0, "phi_deg": phi_deg, "alpha": 3.0}]})
        assert s.clusters[0].phi_r == 0.0
        assert s.scenario_hash == ScatteringScenario.from_dict({"lambda": 1.0, "clusters": [
            {"weight": 1.0, "theta_deg": 10.0, "phi_deg": 0.0, "alpha": 3.0}]}).scenario_hash

    @pytest.mark.parametrize("phi_deg", [-30.0, -1e-9, 359.99999999999994, 720.5, 0.1])
    def test_accepted_azimuths_keep_their_value(self, phi_deg):
        s = ScatteringScenario.from_dict({"lambda": 1.0, "clusters": [
            {"weight": 1.0, "theta_deg": 10.0, "phi_deg": phi_deg, "alpha": 3.0}]})
        assert s.clusters[0].phi_r == math.radians(phi_deg % 360.0)

    def test_degrees_converted_and_azimuth_wrapped(self):
        s = ScatteringScenario.from_dict({"lambda": 2.0, "clusters": [
            {"weight": 1.0, "theta_deg": 10.0, "phi_deg": 540.0, "alpha": 3.0}]})
        assert s.kn.wavelength == pytest.approx(2.0, rel=1e-15)
        assert s.clusters[0].theta_r == pytest.approx(math.radians(10.0), rel=1e-14)
        assert s.clusters[0].phi_r == pytest.approx(math.pi, rel=1e-14)

    def test_dict_roundtrip_and_hash(self, tmp_path):
        s = two_cluster_scenario()
        back = ScatteringScenario.from_dict(s.to_dict())
        assert back == s
        assert back.scenario_hash == s.scenario_hash
        assert broadside_cluster(40.0).scenario_hash != s.scenario_hash
        path = tmp_path / "scen.json"
        s.to_json(path)
        assert ScatteringScenario.from_json(path) == s
        # file is plain JSON with only the documented keys
        doc = json.loads(path.read_text())
        assert set(doc) == {"lambda", "clusters"}


class TestHemisphereRule:
    @pytest.mark.parametrize("nt, nf", [(8, 16), (64, 128)])
    def test_closed_form_moments(self, nt, nf):
        # sin(theta) dtheta dphi over the hemisphere: total 2*pi, first
        # moment pi along z and zero across it
        u, w = hemisphere_rule(nt, nf)
        assert u.shape == (nt * nf, 3) and w.shape == (nt * nf,)
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() < 1e-15
        assert w.sum() == pytest.approx(2.0 * math.pi, abs=1e-12)
        assert w @ u[:, 2] == pytest.approx(math.pi, abs=1e-12)
        assert abs(w @ u[:, 0]) < 1e-12 and abs(w @ u[:, 1]) < 1e-12


class TestSpectralFactor:
    def test_isotropic_is_uniform(self):
        s = ScatteringScenario.isotropic(KN)
        for theta, phi in [(0.0, 0.0), (0.7, 1.0), (1.5, 4.0)]:
            assert spectral_factor_sq(s, theta, phi) == pytest.approx(
                INV_TWO_PI, rel=1e-12)

    def test_broadside_peak_matches_closed_normalizer(self):
        # frozen oracle: alpha/(2*pi*(1 - exp(-alpha))) at alpha = 40
        s = broadside_cluster(40.0)
        assert spectral_factor_sq(s, 0.0, 0.0) == pytest.approx(
            6.366197723675813, rel=1e-12)

    def test_near_broadside_cluster_matches_closed_form(self):
        # a cluster tilted by 1e-9 rad exercises the quadrature normalizer,
        # which must agree with the broadside closed form
        tilted = ScatteringScenario(kn=KN, clusters=(
            VmfCluster(1.0, 1e-9, 0.0, 7.0),))
        flat = broadside_cluster(7.0)
        assert spectral_factor_sq(tilted, 0.3, 0.1) == pytest.approx(
            spectral_factor_sq(flat, 0.3, 0.1), rel=1e-6)

    @pytest.mark.parametrize("alpha", [1.0, 40.0, 200.0])
    def test_horizon_cluster_is_half_the_sphere(self, alpha):
        # a mode on the horizon makes the density mirror-symmetric in z, so
        # the hemisphere holds exactly half the full-sphere integral
        cluster = VmfCluster(1.0, math.pi / 2.0, 0.7, alpha)
        half = math.pi * (1.0 - math.exp(-2.0 * alpha)) / alpha
        assert _hemisphere_exp_integral(cluster) == pytest.approx(half, rel=1e-11)

    def test_mixture_is_weighted_sum(self):
        a = VmfCluster(0.3, 0.2, 1.0, 15.0)
        b = VmfCluster(0.7, 0.9, 4.0, 3.0)
        mix = ScatteringScenario(kn=KN, clusters=(a, b))
        sa = ScatteringScenario(kn=KN, clusters=(VmfCluster(1.0, 0.2, 1.0, 15.0),))
        sb = ScatteringScenario(kn=KN, clusters=(VmfCluster(1.0, 0.9, 4.0, 3.0),))
        theta, phi = 0.5, 2.0
        ref = (0.3 * spectral_factor_sq(sa, theta, phi)
               + 0.7 * spectral_factor_sq(sb, theta, phi))
        assert spectral_factor_sq(mix, theta, phi) == pytest.approx(ref, rel=1e-10)

    def test_extreme_concentration_stays_finite(self):
        s = ScatteringScenario(kn=KN, clusters=(VmfCluster(1.0, 0.5, 1.0, 5000.0),))
        on_peak = spectral_factor_sq(s, 0.5, 1.0)
        off_peak = spectral_factor_sq(s, 1.2, 4.0)
        assert math.isfinite(on_peak) and on_peak > 0.0
        assert math.isfinite(off_peak) and 0.0 <= off_peak < on_peak


class TestPsd:
    def test_zero_on_and_outside_boundary(self):
        s = ScatteringScenario.isotropic(KN)
        assert psd(s, (KN.kappa, 0.0)) == 0.0
        assert psd(s, (1.3 * KN.kappa, 0.4 * KN.kappa)) == 0.0

    def test_factor_over_kz_inside(self):
        s = broadside_cluster(40.0)
        k = (0.3 * KN.kappa, 0.2 * KN.kappa)
        knorm = math.hypot(*k)
        theta = math.asin(knorm / KN.kappa)
        phi = math.atan2(k[1], k[0]) % (2.0 * math.pi)
        ref = spectral_factor_sq(s, theta, phi) / kz(k, KN).real
        assert psd(s, k) == pytest.approx(ref, rel=1e-12)

    def test_isotropic_radial_growth_toward_rim(self):
        s = ScatteringScenario.isotropic(KN)
        vals = [psd(s, (f * KN.kappa, 0.0)) for f in (0.0, 0.5, 0.9, 0.99)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSupportFit:
    def test_isotropic_fills_the_disk(self):
        shape = support_at_threshold(ScatteringScenario.isotropic(KN))
        assert shape.a1 == 1.0 and shape.a2 == 1.0

    def test_broadside_forty_frozen_fit(self):
        shape = support_at_threshold(broadside_cluster(40.0))
        assert shape.a1 == pytest.approx(0.46575207997388485, rel=1e-12)
        assert shape.a2 == pytest.approx(shape.a1, rel=1e-12)

    def test_broadside_forty_psd_convention(self):
        factor = support_at_threshold(broadside_cluster(40.0))
        on_psd = support_at_threshold(broadside_cluster(40.0), on_psd=True)
        assert on_psd.a1 == pytest.approx(0.47169905660283024, rel=1e-12)
        # dividing by kz boosts near-rim wavevectors, widening the fit
        assert on_psd.a1 > factor.a1

    def test_two_cluster_frozen_fit(self):
        shape = support_at_threshold(two_cluster_scenario())
        assert shape.a1 == pytest.approx(0.4877037402682134, rel=1e-12)
        assert shape.a2 == pytest.approx(0.30271266637337385, rel=1e-12)
        assert shape.phi == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_threshold(self):
        s = broadside_cluster(40.0)
        strict = support_at_threshold(s, -30.0)
        loose = support_at_threshold(s, -20.0)
        assert strict.a1 >= loose.a1 and strict.a2 >= loose.a2
        assert strict.a1 == pytest.approx(0.5616493568054717, rel=1e-12)

    def test_area_consistent_with_fitted_ellipse(self):
        s = broadside_cluster(40.0)
        shape = support_at_threshold(s)
        area = support_area_at_threshold(s)
        ell = math.pi * KN.kappa ** 2 * shape.a1 * shape.a2
        # the grid-counted set is covered by (and nearly fills) the ellipse
        assert area == pytest.approx(ell, rel=0.02)

    @pytest.mark.parametrize("theta, phi, alpha, threshold", [
        (1.5, 0.3, 5.0, -3.0),
        (1.5, 0.3, 5.0, -20.0),
        (0.9, 0.0, 3.0, -3.0),
    ], ids=["theta1.5-3dB", "theta1.5-20dB", "theta0.9-3dB"])
    def test_capped_fit_covers_near_horizon_clusters(self, theta, phi, alpha, threshold):
        # the major axis reaches the disk, so the minor axis has to widen
        s = ScatteringScenario(kn=KN, clusters=(
            VmfCluster(weight=1.0, theta_r=theta, phi_r=phi, alpha=alpha),))
        shape = support_at_threshold(s, threshold)
        assert shape.a1 == 1.0
        pts, _ = _threshold_mask(s, threshold, on_psd=False)
        base = pts @ shape.inverse_shape_matrix.T
        assert np.hypot(base[:, 0], base[:, 1]).max() <= KN.kappa * (1.0 + _ALIAS_RTOL)

    @pytest.mark.parametrize("threshold", [0.0, 3.0, math.nan, math.inf])
    def test_threshold_must_be_negative(self, threshold):
        with pytest.raises(ValueError):
            support_at_threshold(broadside_cluster(40.0), threshold)
