"""Sampling lattices at the Nyquist density of a bounded spectral support.

A sampling matrix Q generates the lattice {Q @ n : n in Z^2}; its companion
periodicity matrix P = 2*pi*inv(Q.T) generates the lattice on which the
spectrum is replicated.  The Nyquist constructions below pack the spectral
replicas as tightly as possible without overlap, which for the disk support
yields the hexagonal lattice and a 13.4% sample-density saving over
half-wavelength rectangular sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TWO_PI,
    EllipseShape,
    Region,
    SpectralSupport,
    Wavenumber,
    support_measure,
)

__all__ = [
    "SamplingMatrix",
    "PeriodicityMatrix",
    "LatticePointSet",
    "nyquist_rect",
    "nyquist_hex",
    "nyquist_ellipse",
    "nyquist_density",
    "periodicity_from_sampling",
    "sampling_from_periodicity",
    "density",
    "efficiency_gain",
    "enumerate_lattice",
    "MIRRORS",
    "mirror_permutations",
    "alias_free",
]

_BOUNDARY_RTOL = 1e-12
# window slack, at least _BOUNDARY_RTOL plus round-off: every point and pair difference passes
_WINDOW_SLACK = 1.0 + 1e-9
# relative slack of the alias boundary: replicas whose separation falls short
# of 2*kappa by this share still count as tangent, so a support may reach
# this share past its kappa
_ALIAS_RTOL = 1e-9


def _validated_2x2(m, name: str) -> np.ndarray:
    arr = np.array(m, dtype=float)
    if arr.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    det = abs(float(np.linalg.det(arr)))
    scale = float(np.sum(arr * arr))
    if det <= 1e-15 * max(scale, 1e-300):
        raise ValueError(f"{name} is singular or near-singular (|det| = {det:.3e})")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SamplingMatrix:
    """Nonsingular 2x2 matrix whose integer combinations are sample positions."""

    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _validated_2x2(self.q, "sampling matrix"))

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.q))


@dataclass(frozen=True)
class PeriodicityMatrix:
    """Nonsingular 2x2 matrix generating the spectral replication lattice."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _validated_2x2(self.p, "periodicity matrix"))

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.p))


@dataclass(frozen=True)
class LatticePointSet:
    """Lattice points of a sampling matrix falling inside a square region.

    Attributes
    ----------
    indices : (N, 2) int ndarray
        Integer lattice coordinates n, ordered by (n2, n1).
    positions : (N, 2) float ndarray
        Physical positions Q @ n, same ordering.
    """

    indices: np.ndarray
    positions: np.ndarray
    q: SamplingMatrix
    region: Region

    def __post_init__(self):
        idx = np.asarray(self.indices)
        pos = np.asarray(self.positions, dtype=float)
        if idx.ndim != 2 or idx.shape[1] != 2 or pos.shape != idx.shape:
            raise ValueError("indices and positions must both have shape (N, 2)")
        half = 0.5 * self.region.side
        if pos.size and np.abs(pos).max() > half * _WINDOW_SLACK:
            raise ValueError("lattice positions fall outside the generating region")

    def __len__(self) -> int:
        return len(self.indices)


def nyquist_rect(kn: Wavenumber) -> SamplingMatrix:
    """Rectangular lattice with half-wavelength spacing.

    Nyquist sampling for the square support ``[-kappa, kappa]^2``; density
    ``4/wavelength^2``.
    """
    h = 0.5 * kn.wavelength
    return SamplingMatrix(np.array([[h, 0.0], [0.0, h]]))


def nyquist_hex(kn: Wavenumber) -> SamplingMatrix:
    """Hexagonal lattice at the Nyquist density of the disk support.

    The spectral replicas are disks of radius kappa packed hexagonally
    (tightest circle packing), giving density ``2*sqrt(3)/wavelength^2``,
    i.e. ~13.4% fewer samples than half-wavelength rectangular sampling.
    """
    lam = kn.wavelength
    a = lam / (2.0 * math.sqrt(3.0))
    b = 0.5 * lam
    return SamplingMatrix(np.array([[a, a], [b, -b]]))


def nyquist_ellipse(kn: Wavenumber, shape: EllipseShape) -> SamplingMatrix:
    """Elongated hexagonal lattice at the Nyquist density of an ellipse support.

    The hexagonal construction for the disk mapped through the support's
    shape: ``Q = inverse_shape_matrix.T @ Q_hex = R(phi) @ diag(1/a1, 1/a2)
    @ Q_hex``, so the spectral replicas are the disk's hexagonal packing
    mapped by ``G^{1/2}``.  Density ``a1*a2*2*sqrt(3)/wavelength^2``.
    """
    return SamplingMatrix(shape.inverse_shape_matrix.T @ nyquist_hex(kn).q)


def nyquist_density(s: SpectralSupport) -> float:
    """Minimal alias-free sampling density for a support, in samples/m^2.

    Square support: ``m(S)/(2*pi)^2``.  Disk and ellipse supports: the
    hexagonal-packing density, a factor ``2*sqrt(3)/pi`` above the area bound.
    """
    if s.kind == "rect":
        return support_measure(s) / (TWO_PI * TWO_PI)
    return support_measure(s) / (TWO_PI * TWO_PI) * (2.0 * math.sqrt(3.0) / math.pi)


def periodicity_from_sampling(q: SamplingMatrix) -> PeriodicityMatrix:
    """Periodicity matrix P = 2*pi * inv(Q.T) satisfying P.T @ Q = 2*pi*I."""
    return PeriodicityMatrix(TWO_PI * np.linalg.inv(q.q.T))


def sampling_from_periodicity(p: PeriodicityMatrix) -> SamplingMatrix:
    """Sampling matrix Q = 2*pi * inv(P.T), the inverse of the pairing above."""
    return SamplingMatrix(TWO_PI * np.linalg.inv(p.p.T))


def density(q: SamplingMatrix) -> float:
    """Samples per unit area: 1/|det Q|."""
    return 1.0 / abs(q.det)


def efficiency_gain(density_new: float, density_ref: float) -> float:
    """Fractional sample-density saving of a scheme against a reference.

    ``1 - density_new/density_ref``; positive when the new scheme uses fewer
    samples per unit area.
    """
    if not (density_new > 0.0 and density_ref > 0.0):
        raise ValueError("densities must be positive")
    return 1.0 - density_new / density_ref


def enumerate_lattice(q: SamplingMatrix, region: Region) -> LatticePointSet:
    """All lattice points Q @ n inside a centered square region.

    The candidate integer box is found by mapping the region corners through
    inv(Q); points with a coordinate exactly on the region boundary are
    included.  Rows are ordered by (n2, n1).  The box and the window are
    symmetric through the origin, so rows ``i`` and ``N-1-i`` are exact
    mirrors: their indices and positions are negatives of each other.
    """
    half = 0.5 * region.side
    corners = np.array([[half, half], [half, -half], [-half, half], [-half, -half]])
    n_corners = corners @ np.linalg.inv(q.q).T
    lo = np.floor(n_corners.min(axis=0)).astype(int) - 1
    hi = np.ceil(n_corners.max(axis=0)).astype(int) + 1
    n1, n2 = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1), indexing="ij")
    n = np.column_stack([n1.ravel(), n2.ravel()])
    pos = n @ q.q.T
    keep = np.all(np.abs(pos) <= half * (1.0 + _BOUNDARY_RTOL), axis=1)
    n, pos = n[keep], pos[keep]
    order = np.lexsort((n[:, 0], n[:, 1]))
    return LatticePointSet(indices=n[order], positions=pos[order], q=q, region=region)


MIRRORS = {
    "rev": -np.eye(2),
    "x": np.diag([-1.0, 1.0]),
    "y": np.diag([1.0, -1.0]),
}


def _index_rows(indices: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The row of ``indices`` holding each index of ``query``, -1 where none does.

    A dense array over the box of the indices' extent holds every row
    number, so the rows may come in any order.
    """
    lo = indices.min(axis=0)
    where = np.full(indices.max(axis=0) - lo + 1, -1)
    where[tuple((indices - lo).T)] = np.arange(len(indices))
    rel = query - lo
    inside = np.all((rel >= 0) & (rel < where.shape), axis=1)
    found = np.full(len(query), -1)
    found[inside] = where[tuple(rel[inside].T)]
    return found


def _lattice_coords(q: np.ndarray, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Nearest integer coordinates ``n`` of each vector (last axis) in the basis ``Q``.

    And per vector whether it is the lattice vector ``Q n``: each coordinate within 1e-9.
    """
    x = np.asarray(vectors, dtype=float) @ np.linalg.inv(q).T
    n = np.round(x)
    with np.errstate(invalid="ignore"):  # a non-finite vector is off the lattice
        return n.astype(np.int64), np.all(np.abs(x - n) <= 1e-9, axis=-1)


def mirror_permutations(points: LatticePointSet) -> dict[str, np.ndarray]:
    """Row permutations of a point set under the mirrors that keep it whole.

    For each mirror ``F`` of ``MIRRORS`` -- the point reflection ``"rev"``
    (``r -> -r``) and the axis flips ``"x"`` (``x -> -x``) and ``"y"``
    (``y -> -y``) -- that maps the point set onto itself, ``perm[name]``
    satisfies ``positions[perm[name]] == positions @ F.T`` row for row, up to
    round-off (``_mirror_group``).  The point reflection always holds, and
    for a set from ``enumerate_lattice`` its permutation is ``N-1-i``.  Rect
    and hex lattices also have both flips; a rotated ellipse lattice or a
    generic sheared ``Q`` has neither, and a flip whose image leaves the set
    (a boundary point decided by round-off) is not reported.
    """
    names, perms, _, _, _ = _mirror_group(points, lambda *_: True)
    return dict(zip(names[1:], perms[1:]))


def _lattice_mirrors(q: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Name and ``M.T`` of each mirror ``F`` keeping ``Q Z^2``: ``M = inv(Q) F Q`` is integer."""
    found = ((name, _lattice_coords(q, (flip @ q).T)) for name, flip in MIRRORS.items())
    return [(name, mt) for name, (mt, on) in found if on.all()]


def _mirror_group(points: LatticePointSet, keeps):
    """The mirror group of a point set under the caller's invariance test.

    A mirror ``F`` of ``_lattice_mirrors`` joins the group when its images of
    the indices are rows of the set (``_index_rows``) and ``keeps(F, M)`` holds.
    Returns, identity first and then in the order of ``MIRRORS``, each element's
    name, row permutation and diagonal signs; the characters, those of
    ``{I, -I, Fx, Fy}`` restricted to the group (a sign per element,
    descending); and per character the orbit representatives (each orbit's
    smallest row) whose stabiliser it keeps, with the stabilisers' sizes.
    """
    idx, q = points.indices.astype(np.int64), points.q.q
    names, perms = ["identity"], [np.arange(len(idx))]
    for name, mt in _lattice_mirrors(q):
        perm = _index_rows(idx, idx @ mt)
        if perm.min() >= 0 and keeps(MIRRORS[name], mt.T):
            names.append(name)
            perms.append(perm)
    perms = np.stack(perms)
    signs = np.array([(1, 1)] + [np.diag(MIRRORS[name]).astype(int) for name in names[1:]])
    chars = sorted({tuple(int(np.prod(sg ** e)) for sg in signs)
                    for e in ((0, 0), (1, 0), (0, 1), (1, 1))}, reverse=True)
    reps = np.flatnonzero(perms.min(axis=0) == np.arange(len(idx)))
    fixed = perms[:, reps] == reps
    stab = fixed.sum(axis=0)
    keep = [np.all(~fixed | (np.array(chi)[:, None] == 1), axis=0) for chi in chars]
    return names, perms, signs, chars, [(reps[k], stab[k]) for k in keep]


def _reduced_basis(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange-Gauss reduction of the lattice basis in the columns of ``b``.

    Returns ``u, v`` spanning the same lattice with ``|u| <= |v|`` and
    ``|u . v| <= |u|^2 / 2``, so the angle between them is at least 60
    degrees and ``|l1 u + l2 v| >= (sqrt(3)/2) max(|l1| |u|, |l2| |v|)``.
    """
    u, v = b.T
    while True:  # each pass that does not stop shortens u
        v = v - round((u @ v) / (u @ u)) * u
        if v @ v >= u @ u:
            return u, v
        u, v = v, u


def alias_free(s: SpectralSupport, q: SamplingMatrix) -> bool:
    """Whether spectral replicas of the support do not overlap under Q sampling.

    The basis of the replica lattice ``P = 2*pi*inv(Q.T)`` is mapped onto the
    support's base shape (``s.to_base``) and Lagrange-Gauss-reduced there
    (``_reduced_basis``); every nonzero replica offset must then be at least
    ``2*kappa`` long, in the Euclidean norm for the disk (and so the
    ellipse), in the max norm for the square.  In a reduced basis
    ``|l1 u + l2 v|^2 >= 3 |u|^2`` whenever ``|l|_inf >= 2``, and the max norm
    is at least ``1/sqrt(2)`` of the Euclidean one, so the shortest offset in
    either norm has ``|l|_inf <= 1``: the check is exact in any basis.
    Tangent replicas count as alias-free.
    """
    u, v = _reduced_basis(s.to_base @ periodicity_from_sampling(q).p)
    # the eight neighbours |l|_inf <= 1 are these four and their negatives
    offsets = np.array([u, v, u + v, u - v])
    sep = 2.0 * s.kn.kappa * (1.0 - _ALIAS_RTOL)
    if s.kind == "rect":
        return bool(np.all(np.abs(offsets).max(axis=1) >= sep))
    return bool(np.all(np.hypot(offsets[:, 0], offsets[:, 1]) >= sep))
