"""Sampling matrices, lattice enumeration, densities, and alias-freedom."""

import math

import numpy as np
import pytest

from fieldsamp import (
    MIRRORS,
    EllipseShape,
    Region,
    SamplingMatrix,
    SpectralSupport,
    Wavenumber,
    alias_free,
    density,
    efficiency_gain,
    enumerate_lattice,
    mirror_permutations,
    nyquist_density,
    nyquist_ellipse,
    nyquist_hex,
    nyquist_rect,
    periodicity_from_sampling,
    sampling_from_periodicity,
)
from fieldsamp.lattice import _index_rows, _lattice_coords
from helpers import brute_force_lattice_count, shuffled_rows

LAM = 1.0
KN = Wavenumber.from_wavelength(LAM)
SQ3 = math.sqrt(3.0)
# a unimodular shear: Q @ SHEAR generates the same lattice as Q
SHEAR = np.array([[1, 7], [7, 50]])


class TestNyquistMatrices:
    def test_rect_entries(self):
        q = nyquist_rect(KN)
        assert np.allclose(q.q, np.diag([LAM / 2.0, LAM / 2.0]), atol=1e-15)

    def test_hex_entries(self):
        q = nyquist_hex(KN)
        ref = np.array([[LAM / (2.0 * SQ3), LAM / (2.0 * SQ3)],
                        [LAM / 2.0, -LAM / 2.0]])
        assert np.allclose(q.q, ref, atol=1e-15)

    def test_ellipse_stretches_hex_inverse(self):
        shape = EllipseShape(a1=0.8, a2=0.5, phi=0.3)
        q = nyquist_ellipse(KN, shape)
        rot = np.array([[math.cos(0.3), -math.sin(0.3)],
                        [math.sin(0.3), math.cos(0.3)]])
        ref = rot @ np.diag([1.0 / 0.8, 1.0 / 0.5]) @ nyquist_hex(KN).q
        assert np.allclose(q.q, ref, atol=1e-14)

    def test_ellipse_unit_axes_is_hex(self):
        shape = EllipseShape(a1=1.0, a2=1.0, phi=0.0)
        assert np.allclose(nyquist_ellipse(KN, shape).q, nyquist_hex(KN).q, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            SamplingMatrix(np.ones((3, 2)))


class TestPeriodicityDuality:
    @pytest.mark.parametrize("q", [
        nyquist_rect(KN),
        nyquist_hex(KN),
        nyquist_ellipse(KN, EllipseShape(a1=0.7, a2=0.4, phi=1.1)),
    ])
    def test_transpose_product(self, q):
        p = periodicity_from_sampling(q)
        assert np.allclose(p.p.T @ q.q, 2.0 * math.pi * np.eye(2), atol=1e-12)

    def test_roundtrip(self):
        q = nyquist_hex(KN)
        back = sampling_from_periodicity(periodicity_from_sampling(q))
        assert np.allclose(back.q, q.q, atol=1e-14)


class TestDensity:
    def test_rect_density(self):
        assert density(nyquist_rect(KN)) == pytest.approx(4.0 / LAM ** 2, rel=1e-12)

    def test_hex_density(self):
        assert density(nyquist_hex(KN)) == pytest.approx(2.0 * SQ3 / LAM ** 2, rel=1e-12)

    def test_ellipse_density_scales(self):
        shape = EllipseShape(a1=0.8, a2=0.5, phi=0.0)
        assert density(nyquist_ellipse(KN, shape)) == pytest.approx(
            2.0 * SQ3 * 0.4 / LAM ** 2, rel=1e-12)

    def test_nyquist_density_matches_nyquist_matrices(self):
        # the minimal achievable density equals the density of the matching
        # Nyquist sampling matrix for every support kind
        assert nyquist_density(SpectralSupport.disk(KN)) == pytest.approx(
            density(nyquist_hex(KN)), rel=1e-12)
        assert nyquist_density(SpectralSupport.rect(KN)) == pytest.approx(
            density(nyquist_rect(KN)), rel=1e-12)
        shape = EllipseShape(a1=0.8, a2=0.5, phi=0.7)
        assert nyquist_density(SpectralSupport.ellipse(KN, shape)) == pytest.approx(
            density(nyquist_ellipse(KN, shape)), rel=1e-12)

    def test_efficiency_gain_examples(self):
        hex_mu = density(nyquist_hex(KN))
        rect_mu = density(nyquist_rect(KN))
        assert efficiency_gain(hex_mu, rect_mu) == pytest.approx(1.0 - SQ3 / 2.0,
                                                                 abs=1e-12)
        shape = EllipseShape(a1=1.0, a2=1.0 / math.sqrt(2.0), phi=0.0)
        ell_mu = density(nyquist_ellipse(KN, shape))
        assert efficiency_gain(ell_mu, hex_mu) == pytest.approx(
            1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)
        assert efficiency_gain(ell_mu, rect_mu) == pytest.approx(
            1.0 - SQ3 / (2.0 * math.sqrt(2.0)), abs=1e-12)


class TestEnumerate:
    @pytest.mark.parametrize("q,side", [
        (nyquist_rect(KN), 10.0 * LAM),
        (nyquist_hex(KN), 10.0 * LAM),
        (nyquist_hex(KN), 7.3 * LAM),
        (nyquist_ellipse(KN, EllipseShape(a1=0.7, a2=0.4, phi=0.9)), 12.0 * LAM),
    ])
    def test_count_matches_brute_force(self, q, side):
        pts = enumerate_lattice(q, Region(side=side))
        assert len(pts) == brute_force_lattice_count(q.q, side)

    def test_rect_half_lambda_exact_count(self):
        # 21 x 21 grid: positions i*lambda/2 for i in -10..10, boundary included
        pts = enumerate_lattice(nyquist_rect(KN), Region(side=10.0 * LAM))
        assert len(pts) == 441

    def test_hex_reference_count(self):
        # boundary-inclusive count for the L = 10*lambda square, cross-checked
        # against the independent integer-box scan above
        pts = enumerate_lattice(nyquist_hex(KN), Region(side=10.0 * LAM))
        assert len(pts) == 367

    def test_positions_lie_on_lattice_and_in_region(self):
        q = nyquist_hex(KN)
        side = 6.0 * LAM
        pts = enumerate_lattice(q, Region(side=side))
        n = pts.positions @ np.linalg.inv(q.q).T
        assert np.abs(n - np.round(n)).max() < 1e-9
        assert np.abs(pts.positions).max() <= 0.5 * side * (1.0 + 1e-12)

    def test_includes_origin_and_boundary(self):
        q = SamplingMatrix(np.eye(2))
        pts = enumerate_lattice(q, Region(side=4.0))
        assert len(pts) == 25  # -2..2 in both axes, closed boundary
        assert any(np.allclose(p, [0.0, 0.0]) for p in pts.positions)
        assert any(np.allclose(p, [2.0, 2.0]) for p in pts.positions)

    @pytest.mark.parametrize("q,side", [
        (nyquist_rect(KN), 10.0 * LAM),  # points exactly on the window boundary
        (nyquist_hex(KN), 7.3 * LAM),
        (nyquist_ellipse(KN, EllipseShape(a1=0.8, a2=0.5, phi=0.6)), 9.0 * LAM),
        (SamplingMatrix(np.diag([0.5, 0.4])
                        + np.random.default_rng(3).normal(scale=0.2, size=(2, 2))),
         6.0 * LAM),
    ], ids=["rect-boundary", "hex", "rotated-ellipse", "random-sheared"])
    def test_rows_mirror_through_origin(self, q, side):
        # the MSE experiment builds half its interpolation matrix on this:
        # row N-1-i is exactly the negative of row i
        pts = enumerate_lattice(q, Region(side=side))
        assert len(pts) % 2 == 1
        assert np.array_equal(pts.indices[::-1], -pts.indices)
        assert np.array_equal(pts.positions[::-1], -pts.positions)

    def test_deterministic_ordering(self):
        q = nyquist_hex(KN)
        a = enumerate_lattice(q, Region(side=5.0 * LAM))
        b = enumerate_lattice(q, Region(side=5.0 * LAM))
        assert np.array_equal(a.indices, b.indices)
        order = np.lexsort((a.indices[:, 0], a.indices[:, 1]))
        assert np.array_equal(order, np.arange(len(a)))


class TestMirrorPermutations:
    @pytest.mark.parametrize("q, flips, shuffle", [
        (nyquist_rect(KN), True, False),
        (nyquist_hex(KN), True, False),
        # the mirrors do not depend on the order of the rows
        (nyquist_hex(KN), True, True),
        # the same hex lattice in another basis keeps its flips
        (SamplingMatrix(nyquist_hex(KN).q @ SHEAR), True, False),
        (nyquist_ellipse(KN, EllipseShape(a1=0.8, a2=0.5, phi=0.0)), True, False),
        (nyquist_ellipse(KN, EllipseShape(a1=0.8, a2=0.5, phi=0.6)), False, False),
        (SamplingMatrix(np.diag([0.5, 0.4])
                        + np.random.default_rng(3).normal(scale=0.2, size=(2, 2))), False,
         False),
    ], ids=["rect", "hex", "hex-shuffled", "hex-sheared-basis", "ellipse", "rotated-ellipse",
            "random-sheared"])
    def test_rows_map_onto_mirrored_points(self, q, flips, shuffle):
        # side 7 puts rect points on the window's boundary
        ordered = enumerate_lattice(q, Region(side=7.0 * LAM))
        pts = shuffled_rows(ordered) if shuffle else ordered
        perms = mirror_permutations(pts)
        assert sorted(perms) == (["rev", "x", "y"] if flips else ["rev"])
        # ordered row i mirrors through the origin onto row N-1-i
        row = _index_rows(pts.indices, ordered.indices)
        assert np.array_equal(perms["rev"][row], row[::-1])
        for name, perm in perms.items():
            assert np.array_equal(np.sort(perm), np.arange(len(pts)))
            np.testing.assert_allclose(pts.positions[perm], pts.positions @ MIRRORS[name].T,
                                       rtol=0.0, atol=1e-12)


class TestLatticeCoords:
    def test_rows_of_vectors(self):
        # 1e-10 off in index coordinates is a lattice vector, 1e-8 off is not
        q = nyquist_hex(KN).q
        n = np.array([[0, 0], [-5, 7], [2, -1], [2, -1], [2, -1], [2, -1]])
        dn = np.zeros((6, 2))
        dn[2:] = [[1e-10, 0.0], [0.0, -1e-10], [1e-8, 0.0], [1e-10, -1e-8]]
        got, on = _lattice_coords(q, (n + dn) @ q.T)
        assert got.dtype == np.int64 and np.array_equal(got, n)
        assert on.tolist() == [True, True, True, True, False, False]

    def test_stacked_vectors(self):
        # p grid steps of lambda/8 along each axis, one flag per vector: on
        # hex only 8 steps along y, (0, lambda) = Q (1, -1), is a lattice vector
        q = nyquist_hex(KN).q
        steps = np.arange(1, 9)[:, None, None] * (LAM / 8 * np.eye(2))
        got, on = _lattice_coords(q, steps)
        assert got.shape == (8, 2, 2) and on.shape == (8, 2)
        assert np.argwhere(on).tolist() == [[7, 1]]
        assert np.array_equal(got[7, 1], [1, -1])


class TestAliasFree:
    def test_nyquist_lattices_are_alias_free(self):
        assert alias_free(SpectralSupport.disk(KN), nyquist_hex(KN))
        assert alias_free(SpectralSupport.rect(KN), nyquist_rect(KN))
        shape = EllipseShape(a1=0.7, a2=0.4, phi=1.2)
        assert alias_free(SpectralSupport.ellipse(KN, shape),
                          nyquist_ellipse(KN, shape))
        assert alias_free(SpectralSupport.disk(KN), SamplingMatrix(nyquist_hex(KN).q @ SHEAR))

    def test_disk_on_rect_half_lambda(self):
        # the disk fits inside the square support replicated by the lambda/2 grid
        assert alias_free(SpectralSupport.disk(KN), nyquist_rect(KN))

    def test_sparser_lattice_aliases(self):
        q = SamplingMatrix(nyquist_hex(KN).q * 1.01)
        assert not alias_free(SpectralSupport.disk(KN), q)
        # the overlapping replicas have indices ±(1, 7), ±(6, 43) and ±(7, 50) here
        q = SamplingMatrix(1.1 * nyquist_hex(KN).q @ SHEAR)
        assert not alias_free(SpectralSupport.disk(KN), q)

    def test_denser_lattice_stays_alias_free(self):
        q = SamplingMatrix(nyquist_hex(KN).q * 0.99)
        assert alias_free(SpectralSupport.disk(KN), q)

    def test_disk_on_ellipse_lattice_aliases(self):
        shape = EllipseShape(a1=0.7, a2=0.4, phi=0.0)
        assert not alias_free(SpectralSupport.disk(KN), nyquist_ellipse(KN, shape))

    def test_rect_support_on_hex_lattice_aliases(self):
        assert not alias_free(SpectralSupport.rect(KN), nyquist_hex(KN))

    def test_matches_brute_force_on_sheared_bases(self):
        # only the shortest replica offset decides the answer; for the shears
        # below (entries of magnitude up to 4) its sheared indices are at most
        # |1 + a b| + |b| <= 21, so searching |l|_inf <= 40 in the sheared
        # basis itself is exhaustive
        shape = EllipseShape(a1=0.8, a2=0.5, phi=0.6)
        supports = [SpectralSupport.disk(KN), SpectralSupport.rect(KN),
                    SpectralSupport.ellipse(KN, shape)]
        bases = [nyquist_rect(KN).q, nyquist_hex(KN).q, nyquist_ellipse(KN, shape).q]
        axis = np.arange(-40, 41)
        l1, l2 = np.meshgrid(axis, axis, indexing="ij")
        ls = np.column_stack([l1.ravel(), l2.ravel()])
        ls = ls[np.any(ls != 0, axis=1)]
        rng = np.random.default_rng(2024)
        answers = []
        for trial in range(200):
            a, b = rng.integers(-4, 5, size=2)
            shear = np.array([[1, a], [0, 1]]) @ np.array([[1, 0], [b, 1]])
            if rng.random() < 0.5:
                shear = shear[:, ::-1]
            scale = rng.choice([0.9, 0.97, 1.0, 1.03, 1.1])
            q = SamplingMatrix(scale * bases[trial % 3] @ shear)
            p = periodicity_from_sampling(q).p
            for s in supports:
                off = ls @ (s.to_base @ p).T
                sep = 2.0 * KN.kappa * (1.0 - 1e-9)
                if s.kind == "rect":
                    brute = bool(np.all(np.abs(off).max(axis=1) >= sep))
                else:
                    brute = bool(np.all(np.hypot(off[:, 0], off[:, 1]) >= sep))
                assert alias_free(s, q) == brute, (trial, s.kind)
                answers.append(brute)
        assert 0 < sum(answers) < len(answers)
