"""Autocorrelation models, field energy, and plane-wave synthesis."""

import math
import tracemalloc

import numpy as np
import pytest

from fieldsamp import (
    ClarkeAcf,
    ConvergenceError,
    EllipseShape,
    FieldRealization,
    NumericAcf,
    Region,
    ScatteringScenario,
    VmfCluster,
    Wavenumber,
    acf_clarke,
    acf_numeric,
    average_energy,
    enumerate_lattice,
    nyquist_ellipse,
    nyquist_hex,
    nyquist_rect,
    synthesize,
)
from fieldsamp import cli, statfield
from fieldsamp.analysis import _difference_box
from fieldsamp.statfield import (
    _ACF_TOL,
    _draw_waves,
    _exp_table,
    _lattice_wave_sum,
    _plane_wave_sum,
)
from helpers import broadside_cluster, two_cluster_json, two_cluster_scenario, write_scenario

LAM = 1.0
KN = Wavenumber.from_wavelength(LAM)
ISO = ScatteringScenario.isotropic(KN)
HEX = nyquist_hex(KN).q


def hex_differences(side):
    """The index differences ``build_autocorr_matrix`` evaluates for a hex window.

    The upper half of the box of index differences (row-major, from the
    zero difference on), within the doubled window ``|Q d|_inf <= side``.
    """
    pts = enumerate_lattice(nyquist_hex(KN), Region(side=side * LAM))
    _, shape = _difference_box(pts)
    box = np.stack(np.meshgrid(*(np.arange(n) - n // 2 for n in shape), indexing="ij"), -1)
    half = box.reshape(-1, 2)[(shape.prod() - 1) // 2:]
    return half[np.abs(half @ HEX.T).max(axis=1) <= side * LAM * (1.0 + 1e-9)]


def quadrature_lattice(acf, q, indices):
    """The hemisphere quadrature over the index box, as rim spectra take it."""
    ext = np.vstack([indices, [[0, 0]]])
    return acf._refine(lambda k, w: _lattice_wave_sum(q, ext, k, w))


@pytest.fixture
def torus_calls(monkeypatch):
    """Records the index count of every call that takes the torus FFT route."""
    calls = []
    real = NumericAcf._torus_lattice

    def counting(self, p, indices):
        calls.append(len(indices))
        return real(self, p, indices)

    monkeypatch.setattr(NumericAcf, "_torus_lattice", counting)
    return calls


class TestClarke:
    def test_unit_at_origin(self):
        assert acf_clarke((0.0, 0.0), KN) == pytest.approx(1.0, rel=1e-15)

    def test_sinc_profile(self):
        # c(r) = sin(2*pi*|r|/lambda) / (2*pi*|r|/lambda)
        r = (0.25 * LAM, 0.0)
        assert acf_clarke(r, KN) == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert acf_clarke((0.3, 0.4), KN) == pytest.approx(
            math.sin(math.pi) / math.pi, abs=1e-12)

    def test_zeros_at_half_wavelength_multiples(self):
        for m in (1, 2, 3):
            assert acf_clarke((m * LAM / 2.0, 0.0), KN) == pytest.approx(0.0, abs=1e-12)

    def test_radial_symmetry(self):
        vals = [acf_clarke((0.31 * math.cos(t), 0.31 * math.sin(t)), KN)
                for t in np.linspace(0.0, 2.0 * math.pi, 7)]
        assert np.ptp(vals) < 1e-14

    def test_eval_many_matches_scalar(self):
        disp = np.array([[0.0, 0.0], [0.2, 0.1], [0.5, -0.4], [1.7, 0.0]])
        many = ClarkeAcf(KN).eval_many(disp)
        assert np.allclose(many, [acf_clarke(r, KN) for r in disp], atol=1e-15)


class TestNumericAcf:
    def test_matches_clarke_for_isotropic(self):
        for r in [(0.1, 0.0), (0.33, 0.21), (1.0, -0.5), (2.5, 0.0)]:
            val = acf_numeric(ISO, r)
            assert val.real == pytest.approx(acf_clarke(r, KN), abs=1e-7)
            assert abs(val.imag) < 1e-9

    def test_unit_at_origin_for_any_scenario(self):
        for s in (ISO, broadside_cluster(40.0), two_cluster_scenario()):
            assert acf_numeric(s, (0.0, 0.0)) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_hermitian_symmetry(self):
        s = two_cluster_scenario()
        val = acf_numeric(s, (0.5, 0.25))
        assert acf_numeric(s, (-0.5, -0.25)) == pytest.approx(val.conjugate(),
                                                              rel=1e-10)

    def test_anisotropic_has_complex_part(self):
        # tilted clusters carry a nonzero mean in-plane wavevector
        assert abs(acf_numeric(two_cluster_scenario(), (0.5, 0.25)).imag) > 0.1

    def test_eval_many_matches_scalar(self):
        s = broadside_cluster(40.0)
        disp = np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.9], [1.2, -0.3]])
        many = NumericAcf(s).eval_many(disp)
        single = np.array([acf_numeric(s, r) for r in disp])
        assert np.allclose(many, single, atol=1e-9)

    def test_eval_many_phase_blocks_stay_small(self):
        # 600 displacements against up to 512 x 1024 quadrature nodes: each
        # cos/sin block holds at most _ROW_CHUNK x _NODE_CHUNK phases (8 MB),
        # where 512-row blocks peaked at about 257 MB
        disp = np.random.default_rng(0).uniform(-4.0, 4.0, (600, 2))
        tracemalloc.start()
        try:
            NumericAcf(broadside_cluster(40.0)).eval_many(disp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_eval_lattice_torus_stays_small(self, torus_calls):
        # the directional-eigs table (two-cluster, hex L=12): the hemisphere
        # quadrature's exponential tables over 32768-node chunks peaked at
        # 47 MB, the torus route's K x K temporaries at about 6 MB
        diffs = hex_differences(12.0)
        acf = NumericAcf(two_cluster_scenario())
        tracemalloc.start()
        try:
            acf.eval_lattice(HEX, diffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert torus_calls == [len(diffs)]
        assert peak < 16 * 2**20

    # at L=20, eval_many sees every 8th difference: all 2815 take it 20 s
    @pytest.mark.parametrize("side, stride", [(8.0, 1), (20.0, 8)], ids=["L8", "L20"])
    @pytest.mark.parametrize("s", [broadside_cluster(40.0), two_cluster_scenario()],
                             ids=["zenith-40", "two-cluster"])
    def test_torus_route_matches_eval_many(self, s, side, stride, torus_calls):
        diffs = hex_differences(side)
        acf = NumericAcf(s)
        vals = acf.eval_lattice(HEX, diffs)
        assert torus_calls == [len(diffs)]
        check = slice(None, None, stride)
        assert np.abs(vals[check] - acf.eval_many(diffs[check] @ HEX.T)).max() <= 1e-10

    @pytest.mark.parametrize("s", [
        ISO,
        broadside_cluster(5.0),
        ScatteringScenario(kn=KN, clusters=(VmfCluster(1.0, math.radians(60.0), 0.0, 20.0),)),
    ], ids=["isotropic", "zenith-5", "tilted-60-alpha-20"])
    def test_rim_spectra_keep_the_quadrature(self, s, torus_calls):
        # power near the horizon: the 1/k_z rim singularity breaks the torus
        # trapezoid rule (errors of order 1), so these stay on the quadrature;
        # the isotropic case is the eigs --acf numeric table of that scenario
        diffs = hex_differences(4.0)
        acf = NumericAcf(s)
        vals = acf.eval_lattice(HEX, diffs)
        assert torus_calls == []
        assert vals.tobytes() == quadrature_lattice(acf, HEX, diffs).tobytes()

    def test_acf_command_lattice_keeps_the_quadrature(self, tmp_path, torus_calls):
        # the lambda/16 lattice's reciprocal cell is 81 disk areas; a spectrum
        # without rim power still stays on the quadrature there
        scen = write_scenario(tmp_path / "s.json", two_cluster_json())
        out = tmp_path / "out"
        assert cli.main(["acf", "--scenario", scen, "--out", str(out)]) == 0
        assert torus_calls == []
        rows = np.loadtxt(out / "acf.csv", delimiter=",", skiprows=1)
        step = 0.0625 * LAM
        index = np.column_stack([np.arange(len(rows)), np.zeros(len(rows), dtype=int)])
        ref = quadrature_lattice(NumericAcf(two_cluster_scenario()), step * np.eye(2), index)
        assert np.array_equal(rows[:, 1], ref.real) and np.array_equal(rows[:, 2], ref.imag)

    def test_zenith_table_at_paper_scale(self, torus_calls):
        # hex L=60: the hemisphere quadrature stops at 6.5e-6 > _ACF_TOL and
        # raises ConvergenceError; the torus route converges at K=512
        diffs = hex_differences(60.0)
        acf = NumericAcf(broadside_cluster(40.0))
        vals = acf.eval_lattice(HEX, diffs)
        assert torus_calls == [len(diffs)]
        origin = np.flatnonzero(np.all(diffs == 0, axis=1))
        assert len(origin) == 1 and vals[origin[0]] == 1.0 + 0.0j
        near = np.abs(diffs).max(axis=1) <= 8
        assert np.abs(vals[near] - acf.eval_many(diffs[near] @ HEX.T)).max() <= 1e-10

    def test_correlation_never_exceeds_unity(self):
        s = two_cluster_scenario()
        rng = np.random.default_rng(3)
        disp = rng.uniform(-2.0, 2.0, size=(20, 2))
        assert np.abs(NumericAcf(s).eval_many(disp)).max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("q", [
        nyquist_rect(KN),
        nyquist_hex(KN),
        nyquist_ellipse(KN, EllipseShape(a1=0.8, a2=0.5, phi=0.6)),
    ], ids=["rect", "hex", "ellipse"])
    def test_eval_lattice_matches_eval_many(self, q):
        # the whole box of index differences of a 6-wavelength window
        span = np.ptp(enumerate_lattice(q, Region(side=6.0 * LAM)).indices, axis=0)
        d1, d2 = np.meshgrid(np.arange(-span[0], span[0] + 1),
                             np.arange(-span[1], span[1] + 1), indexing="ij")
        diffs = np.column_stack([d1.ravel(), d2.ravel()])
        acf = NumericAcf(two_cluster_scenario())
        lattice = acf.eval_lattice(q.q, diffs)
        direct = acf.eval_many(diffs.astype(float) @ q.q.T)
        assert np.abs(lattice - direct).max() <= 1e-13

    def test_eval_lattice_exactly_unit_at_origin(self):
        acf = NumericAcf(two_cluster_scenario())
        vals = acf.eval_lattice(nyquist_hex(KN).q, np.array([[3, -2], [0, 0], [1, 4]]))
        assert vals[1].real == 1.0 and vals[1].imag == 0.0

    def test_coarse_levels_raise_convergence_error(self, monkeypatch):
        monkeypatch.setattr(statfield, "_ACF_LEVELS", ((4, 8), (8, 16)))
        acf = NumericAcf(two_cluster_scenario())
        q = nyquist_hex(KN).q
        diffs = np.array([[0, 0], [2, 1], [5, -3]])
        for call in (lambda: acf.eval_many(diffs.astype(float) @ q.T),
                     lambda: acf.eval_lattice(q, diffs)):
            with pytest.raises(ConvergenceError) as err:
                call()
            assert math.isfinite(err.value.achieved)
            assert err.value.achieved >= _ACF_TOL
        with pytest.raises(ConvergenceError) as err:
            average_energy(two_cluster_scenario())
        assert math.isfinite(err.value.achieved)


class TestAverageEnergy:
    @pytest.mark.parametrize("s", [
        ISO,
        broadside_cluster(40.0),
        two_cluster_scenario(),
        ScatteringScenario(kn=KN, clusters=(VmfCluster(1.0, 0.9, 2.0, 300.0),)),
    ])
    def test_normalized_to_one(self, s):
        assert average_energy(s).sigma_sq == pytest.approx(1.0, abs=1e-8)


class TestSynthesize:
    def test_deterministic_given_seed(self):
        pos = [(0.0, 0.0), (0.3, -0.4), (1.0, 2.0)]
        a = synthesize(two_cluster_scenario(), pos, seed=42, n_waves=64)
        b = synthesize(two_cluster_scenario(), pos, seed=42, n_waves=64)
        assert np.array_equal(a.values, b.values)
        c = synthesize(two_cluster_scenario(), pos, seed=43, n_waves=64)
        assert not np.array_equal(a.values, c.values)

    def test_seed_sequences_accepted(self):
        a = synthesize(ISO, [(0.0, 0.0)], seed=[42, 7], n_waves=16)
        b = synthesize(ISO, [(0.0, 0.0)], seed=[42, 7], n_waves=16)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("s", [ISO, broadside_cluster(40.0),
                                   two_cluster_scenario()])
    def test_wavevectors_stay_inside_disk(self, s):
        rng = np.random.default_rng(5)
        k, gains = _draw_waves(s, rng, 4096)
        assert np.hypot(k[:, 0], k[:, 1]).max() < KN.kappa
        assert gains.shape == (4096,)

    @pytest.mark.parametrize("theta_deg, alpha", [
        (10.0, 1e-17), (0.0, 1e-300), (10.0, 5e-324), (0.0, 5e-324),
    ], ids=["tilted", "zenith", "tilted-subnormal", "zenith-subnormal"])
    def test_tiny_concentration_draws_as_isotropic(self, theta_deg, alpha):
        # a near-isotropic cluster's cosines to the zenith are uniform on [0, 1]:
        # mean 1/2, variance 1/12, whose draws' standard errors are sqrt(1/12 n)
        # and sqrt(1/180 n) (the fourth central moment is 1/80)
        s = ScatteringScenario.from_dict({"lambda": LAM, "clusters": [
            {"weight": 1.0, "theta_deg": theta_deg, "phi_deg": 0.0, "alpha": alpha}]})
        n = 20000
        k, _ = _draw_waves(s, np.random.default_rng(8), n)
        ct = np.sqrt(1.0 - np.minimum((k[:, 0] ** 2 + k[:, 1] ** 2) / KN.kappa ** 2, 1.0))
        assert abs(ct.mean() - 0.5) < 5.0 * math.sqrt(1.0 / 12.0 / n)
        assert abs(ct.var() - 1.0 / 12.0) < 5.0 * math.sqrt(1.0 / 180.0 / n)

    def test_values_match_direct_plane_wave_sum(self):
        # independent evaluation of the same draw through a plain complex
        # exponential sum
        s = two_cluster_scenario()
        pos = np.array([[0.0, 0.0], [0.4, -0.2], [1.3, 0.9]])
        k, gains = _draw_waves(s, np.random.default_rng([9, 0]), 32)
        ref = (np.exp(1j * pos @ k.T) @ gains) / math.sqrt(32)
        out = synthesize(s, pos, seed=[9, 0], n_waves=32)
        assert np.allclose(out.values, ref, atol=1e-12)

    def test_mean_power_near_unity(self):
        # 400 independent realizations, 128 waves each; mean |e|^2 has a
        # standard error near 0.05, so a +/-0.2 band is a loose 4-sigma check
        vals = np.array([
            synthesize(ISO, [(0.0, 0.0)], seed=[11, i], n_waves=128).values[0]
            for i in range(400)
        ])
        assert np.mean(np.abs(vals) ** 2) == pytest.approx(1.0, abs=0.2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            synthesize(ISO, [(0.0, 0.0, 0.0)], seed=1)
        with pytest.raises(ValueError):
            synthesize(ISO, [(0.0, 0.0)], seed=1, n_waves=0)


class TestLatticeWaveSum:
    @pytest.mark.parametrize("q, chunks", [
        (nyquist_rect(KN), None),
        (nyquist_hex(KN), None),
        (nyquist_ellipse(KN, EllipseShape(a1=0.8, a2=0.5, phi=0.6)), None),
        # blocks of 7 positions by 100 waves: 512 waves leave a partial chunk
        (nyquist_hex(KN), (7, 100)),
        (nyquist_ellipse(KN, EllipseShape(a1=0.8, a2=0.5, phi=0.6)), (7, 100)),
    ], ids=["rect", "hex", "rotated-ellipse", "hex-small-chunks",
            "rotated-ellipse-small-chunks"])
    def test_matches_direct_sum_on_lattice(self, q, chunks, monkeypatch):
        if chunks is not None:
            monkeypatch.setattr(statfield, "_ROW_CHUNK", chunks[0])
            monkeypatch.setattr(statfield, "_NODE_CHUNK", chunks[1])
        pts = enumerate_lattice(q, Region(side=16.0 * LAM))
        k, gains = _draw_waves(broadside_cluster(40.0),
                               np.random.default_rng([3, 1]), 512)
        ref = np.exp(1j * (pts.positions @ k.T)) @ gains
        out = _lattice_wave_sum(q.q, pts.indices, k, gains)
        assert np.abs(out - ref).max() < 1e-10
        assert np.abs(_plane_wave_sum(pts.positions, k, gains) - ref).max() < 1e-10

    def test_matches_direct_sum_on_eval_grid(self):
        # the MSE evaluation grid: lattice step*I over a square index box
        step = LAM / 8.0
        axis = np.arange(-64, 65)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        idx = np.column_stack([g1.ravel(), g2.ravel()])
        k, gains = _draw_waves(two_cluster_scenario(),
                               np.random.default_rng([3, 2]), 512)
        out = _lattice_wave_sum(step * np.eye(2), idx, k, gains)
        ref = _plane_wave_sum(idx * step, k, gains)
        assert np.abs(out - ref).max() < 1e-10

    @pytest.mark.parametrize("chunks", [None, (7, 100)], ids=["default", "small-chunks"])
    @pytest.mark.parametrize("kind", ["upper-half-differences", "shifted-box"])
    def test_matches_direct_sum_off_centre(self, kind, chunks, monkeypatch):
        # index sets not symmetric through the origin: the upper half of the
        # index differences plus the origin, as build_autocorr_matrix passes
        # them (lo = 0 on axis 0), and a box shifted off the origin
        if chunks is not None:
            monkeypatch.setattr(statfield, "_ROW_CHUNK", chunks[0])
            monkeypatch.setattr(statfield, "_NODE_CHUNK", chunks[1])
        q = nyquist_hex(KN)
        if kind == "upper-half-differences":
            span = np.ptp(enumerate_lattice(q, Region(side=8.0 * LAM)).indices, axis=0)
            d1, d2 = np.meshgrid(np.arange(0, span[0] + 1),
                                 np.arange(-span[1], span[1] + 1), indexing="ij")
            idx = np.column_stack([d1.ravel(), d2.ravel()])
            idx = np.vstack([idx[(idx[:, 0] > 0) | (idx[:, 1] > 0)], [[0, 0]]])
        else:
            d1, d2 = np.meshgrid(np.arange(3, 21), np.arange(-9, -1), indexing="ij")
            idx = np.column_stack([d1.ravel(), d2.ravel()])
        k, gains = _draw_waves(two_cluster_scenario(),
                               np.random.default_rng([3, 3]), 512)
        ref = np.exp(1j * ((idx @ q.q.T) @ k.T)) @ gains
        out = _lattice_wave_sum(q.q, idx, k, gains)
        assert np.abs(out - ref).max() < 1e-10


class TestExpTable:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than float64")
    @pytest.mark.parametrize("lo, hi", [(-1024, 1024), (0, 1023), (-3, 700)])
    def test_accurate_against_long_double(self, lo, hi):
        b = np.random.default_rng([5, hi]).uniform(-math.tau, math.tau, 256)
        phase = np.multiply.outer(np.arange(lo, hi + 1, dtype=np.longdouble),
                                  b.astype(np.longdouble))
        table = _exp_table(lo, hi, b)
        err = np.hypot(table.real - np.cos(phase), table.imag - np.sin(phase))
        assert err.max() <= 2e-15

    @pytest.mark.parametrize("lo, hi", [(-40, 40), (-3, 700), (-700, 3), (-5, 0)])
    def test_exact_identities(self, lo, hi):
        b = np.random.default_rng(7).uniform(-math.tau, math.tau, 64)
        table = _exp_table(lo, hi, b)
        zero = -lo
        assert np.all(table[zero].real == 1.0) and np.all(table[zero].imag == 0.0)
        m = min(-lo, hi)
        plus = table[zero + 1:zero + m + 1]
        minus = table[zero - m:zero][::-1]
        assert minus.tobytes() == np.conj(plus).tobytes()

    @pytest.mark.parametrize("lo, hi", [(0, 0), (3, 3), (0, 37), (-3, 5), (2, 9)],
                             ids=["origin", "single-row", "acf-span", "asymmetric",
                                  "positive-offset"])
    def test_shapes(self, lo, hi):
        b = np.random.default_rng(11).uniform(-math.tau, math.tau, 33)
        table = _exp_table(lo, hi, b)
        assert table.shape == (hi - lo + 1, 33)
        ref = np.exp(1j * np.multiply.outer(np.arange(lo, hi + 1), b))
        assert np.abs(table - ref).max() < 1e-13


class TestFieldRealization:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FieldRealization(np.zeros((3, 2)), np.zeros(2), 0, 4, "h")

    def test_csv_and_sidecar(self, tmp_path):
        field = synthesize(ISO, [(0.0, 0.0), (0.5, 0.25)], seed=[3, 1], n_waves=8)
        csv = tmp_path / "field.csv"
        field.to_csv(csv)
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "x,y,re,im"
        assert len(lines) == 3
        cells = lines[2].split(",")
        assert float(cells[0]) == 0.5 and float(cells[1]) == 0.25
        assert complex(float(cells[2]), float(cells[3])) == field.values[1]
        side = field.sidecar()
        assert side == {"seed": [3, 1], "n_waves": 8,
                        "scenario_hash": ISO.scenario_hash}
