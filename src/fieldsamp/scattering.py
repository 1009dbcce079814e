"""Directional scattering scenarios and the wavenumber spectrum they induce.

A scenario is a mixture of von Mises-Fisher clusters on the upper hemisphere
of arrival directions.  Each cluster is normalized so that the squared
angular spectral factor integrates to one against the hemisphere measure
``sin(theta) dtheta dphi``, which fixes the field power to one per point.
The power spectral density over the wavevector disk follows by the change of
variables from arrival angles to in-plane wavevectors, which contributes the
``1/kz`` Jacobian; ``k`` arrives from the unit direction ``(kx, ky, kz)/kappa``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import hemisphere_rule, refine
from .geometry import TWO_PI, EllipseShape, Wavenumber, _as_xy, _fold
from .lattice import MIRRORS

__all__ = [
    "VmfCluster",
    "ScatteringScenario",
    "spectral_factor_sq",
    "psd",
    "support_at_threshold",
    "support_area_at_threshold",
]


@dataclass(frozen=True)
class VmfCluster:
    """One von Mises-Fisher cluster of arrival directions.

    Attributes
    ----------
    weight : float
        Mixture weight in (0, 1].
    theta_r, phi_r : float
        Modal arrival direction in radians; polar angle in [0, pi/2],
        azimuth in [0, 2*pi).
    alpha : float
        Concentration; 0 gives an isotropic (hemisphere-uniform) cluster.
    """

    weight: float
    theta_r: float
    phi_r: float
    alpha: float

    def __post_init__(self):
        for name in ("weight", "theta_r", "phi_r", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"cluster {name} must be finite")
        if not (0.0 < self.weight <= 1.0):
            raise ValueError(f"cluster weight must be in (0, 1], got {self.weight!r}")
        if not (0.0 <= self.theta_r <= math.pi / 2.0):
            raise ValueError(f"theta_r must lie in [0, pi/2], got {self.theta_r!r}")
        if not (0.0 <= self.phi_r < TWO_PI):
            raise ValueError(f"phi_r must lie in [0, 2*pi), got {self.phi_r!r}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha!r}")

    @property
    def modal_direction(self) -> np.ndarray:
        """Unit 3-vector of the modal arrival direction."""
        st, ct = math.sin(self.theta_r), math.cos(self.theta_r)
        return np.array([st * math.cos(self.phi_r), st * math.sin(self.phi_r), ct])


@dataclass(frozen=True)
class ScatteringScenario:
    """Mixture of vMF clusters plus the operating wavenumber."""

    kn: Wavenumber
    clusters: tuple[VmfCluster, ...]

    def __post_init__(self):
        if not self.clusters:
            raise ValueError("scenario needs at least one cluster")
        object.__setattr__(self, "clusters", tuple(self.clusters))
        total = math.fsum(c.weight for c in self.clusters)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"cluster weights must sum to 1 within 1e-9, got {total!r}")

    @classmethod
    def isotropic(cls, kn: Wavenumber) -> "ScatteringScenario":
        """Single zero-concentration cluster: uniform arrivals over the hemisphere."""
        return cls(kn=kn, clusters=(VmfCluster(1.0, 0.0, 0.0, 0.0),))

    @classmethod
    def from_dict(cls, data: dict) -> "ScatteringScenario":
        """Build from the JSON layout {"lambda": ..., "clusters": [...]}.

        Cluster angles are given in degrees at this boundary and stored in
        radians internally.
        """
        if not isinstance(data, dict):
            raise ValueError("scenario document must be a JSON object")
        extra = set(data) - {"lambda", "clusters"}
        if extra:
            raise ValueError(f"unknown scenario keys: {sorted(extra)}")
        kn = Wavenumber.from_wavelength(_number(data, "lambda", "scenario document"))
        if "clusters" not in data:
            raise ValueError("scenario document missing key 'clusters'")
        if not isinstance(data["clusters"], (list, tuple)):
            raise ValueError("scenario clusters must be a JSON array")
        clusters = []
        for i, c in enumerate(data["clusters"]):
            if not isinstance(c, dict):
                raise ValueError(f"cluster {i} must be a JSON object, got {c!r}")
            extra = set(c) - {"weight", "theta_deg", "phi_deg", "alpha"}
            if extra:
                raise ValueError(f"cluster {i} has unknown keys: {sorted(extra)}")
            clusters.append(VmfCluster(
                weight=_number(c, "weight", f"cluster {i}"),
                theta_r=math.radians(_number(c, "theta_deg", f"cluster {i}")),
                phi_r=math.radians(_fold(_number(c, "phi_deg", f"cluster {i}"), 360.0)),
                alpha=_number(c, "alpha", f"cluster {i}"),
            ))
        return cls(kn=kn, clusters=tuple(clusters))

    def to_dict(self) -> dict:
        return {
            "lambda": self.kn.wavelength,
            "clusters": [
                {
                    "weight": c.weight,
                    "theta_deg": math.degrees(c.theta_r),
                    "phi_deg": math.degrees(c.phi_r),
                    "alpha": c.alpha,
                }
                for c in self.clusters
            ],
        }

    @classmethod
    def from_json(cls, path) -> "ScatteringScenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @property
    def scenario_hash(self) -> str:
        """SHA-256 of the canonical JSON document; identifies the scenario."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _number(doc: dict, key: str, where: str) -> float:
    """``doc[key]`` as a float; a missing key or a non-number names the field."""
    if key not in doc:
        raise ValueError(f"{where} missing key {key!r}")
    try:
        return float(doc[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where} {key} must be a number, got {doc[key]!r}") from exc


def _kept_mirrors(s: ScatteringScenario) -> set[str]:
    """Names of the mirrors of ``lattice.MIRRORS`` that map the scenario onto itself.

    A mirror keeps the scenario when it maps the multiset of clusters
    ``(weight, alpha, modal direction)`` onto itself within 1e-12; it flips the
    direction's horizontal part, so ``"x"`` maps ``phi`` to ``pi - phi``, ``"y"``
    to ``-phi`` and ``"rev"`` to ``phi + pi``.  A cluster at the zenith, or of
    zero concentration, is kept by every mirror.  A mirror that keeps the
    scenario keeps its spectrum and so its autocorrelation table.
    """
    rows = np.array([(c.weight, c.alpha, *(c.modal_direction if c.alpha else (0.0, 0.0, 1.0)))
                     for c in s.clusters])
    kept = set()
    for name, flip in MIRRORS.items():
        image = rows.copy()
        image[:, 2:4] = rows[:, 2:4] @ flip.T
        left = list(range(len(rows)))
        for row in image:  # match each image to a cluster not matched yet
            j = next((j for j in left if np.abs(rows[j] - row).max() <= 1e-12), None)
            if j is None:
                break
            left.remove(j)
        else:
            kept.add(name)
    return kept


def _hemisphere_exp_integral(cluster: VmfCluster) -> float:
    """Integral of exp(alpha*(mode.u - 1)) sin(theta) over the hemisphere."""
    a = cluster.alpha
    if a == 0.0:
        return TWO_PI
    if cluster.theta_r == 0.0:
        return TWO_PI * (1.0 - math.exp(-a)) / a
    xi = cluster.modal_direction

    def level(n):
        u, w = hemisphere_rule(n, 2 * n)
        return float(w @ np.exp(a * (u @ xi - 1.0)))

    # the hemisphere holds between half and all of the full-sphere integral,
    # so this absolute tolerance is at most 1e-11 relative to the result
    full = TWO_PI * (1.0 - math.exp(-2.0 * a)) / a
    return refine((32, 64, 128, 256, 512, 1024), level, 0.5e-11 * full,
                  f"cluster normalization integral (alpha={a!r})")


@lru_cache(maxsize=128)
def _cluster_norms(s: ScatteringScenario) -> tuple[float, ...]:
    """Per-cluster constants making each unit-power on the hemisphere."""
    return tuple(1.0 / _hemisphere_exp_integral(c) for c in s.clusters)


def _factor_sq(s: ScatteringScenario, u: np.ndarray) -> np.ndarray:
    """Squared spectral factor at unit arrival directions ``u`` (..., 3)."""
    out = np.zeros(u.shape[:-1])
    for cluster, norm in zip(s.clusters, _cluster_norms(s)):
        dot = u @ cluster.modal_direction
        out += cluster.weight * norm * np.exp(cluster.alpha * (dot - 1.0))
    return out


def spectral_factor_sq(s: ScatteringScenario, theta: float, phi: float) -> float:
    """Squared angular spectral factor at arrival direction (theta, phi).

    A mixture of exponentials of the cosine between the direction and each
    cluster mode, with every cluster individually normalized to unit
    hemisphere power; the zero-concentration value is ``1/(2*pi)``.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(theta < 0.0) or np.any(theta > math.pi / 2.0):
        raise ValueError("theta must lie in [0, pi/2]")
    if np.any(phi < 0.0) or np.any(phi >= TWO_PI):
        raise ValueError("phi must lie in [0, 2*pi)")
    st = np.sin(theta)
    out = _factor_sq(s, np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1))
    return float(out) if out.ndim == 0 else out


def psd(s: ScatteringScenario, k) -> float:
    """Power spectral density of the field at in-plane wavevector ``k``.

    Squared spectral factor divided by the propagating ``kz``; identically
    zero on and outside the wavevector disk boundary, where no propagating
    plane wave maps.
    """
    kx, ky = _as_xy(k)
    kap = s.kn.kappa
    rad2 = kx * kx + ky * ky
    if rad2 >= kap * kap:
        return 0.0
    kz = math.sqrt(kap * kap - rad2)
    return float(_factor_sq(s, np.array([kx, ky, kz]) / kap) / kz)


_FIT_GRID_N = 200


def _threshold_mask(s: ScatteringScenario, threshold_db: float, on_psd: bool):
    """Grid wavevectors above the relative threshold, and the grid step."""
    if not (math.isfinite(threshold_db) and threshold_db < 0.0):
        raise ValueError(f"threshold_db must be negative, got {threshold_db!r}")
    kap = s.kn.kappa
    step = kap / _FIT_GRID_N
    axis = np.arange(-_FIT_GRID_N, _FIT_GRID_N + 1) * step
    kx, ky = np.meshgrid(axis, axis, indexing="ij")
    rad2 = kx * kx + ky * ky
    inside = rad2 < kap * kap if on_psd else rad2 <= kap * kap
    pts = np.column_stack([kx[inside], ky[inside]])
    kz = np.sqrt(kap * kap - rad2[inside])
    vals = _factor_sq(s, np.column_stack([pts, kz]) / kap)
    if on_psd:
        vals = vals / kz
    keep = vals >= vals.max() * 10.0 ** (threshold_db / 10.0)
    if not np.any(keep):
        raise ValueError("threshold leaves no wavevectors above it")
    return pts[keep], step


def support_at_threshold(s: ScatteringScenario, threshold_db: float = -20.0,
                         on_psd: bool = False) -> EllipseShape:
    """Smallest centered ellipse covering the super-threshold wavevector set.

    The squared spectral factor (or, with ``on_psd``, the spectral density)
    is evaluated on a ``kappa/200`` grid over the wavevector disk; grid
    points within ``threshold_db`` of the maximum are kept.  Axis directions
    come from the principal components of the kept set about the origin,
    axis lengths from its extremal projections, inflated uniformly so every
    kept point is covered.  An axis cannot exceed the wavevector disk: when
    the major axis is capped at ``kappa``, the minor axis grows just enough
    that the capped ellipse still covers every kept point.

    Returns
    -------
    EllipseShape
        Fitted shape; an isotropic scenario yields a1 = a2 = 1.
    """
    pts, _ = _threshold_mask(s, threshold_db, on_psd)
    kap = s.kn.kappa
    second = pts.T @ pts / len(pts)
    _, vecs = np.linalg.eigh(second)
    proj = pts @ vecs  # columns: ascending principal variance
    extent = np.abs(proj).max(axis=0)
    if extent.min() <= 0.0:
        raise ValueError("super-threshold set is degenerate; cannot fit an ellipse")
    inflate = np.hypot(proj[:, 0] / extent[0], proj[:, 1] / extent[1]).max()
    hi = int(np.argmax(extent))
    a1, a2 = extent[hi] * inflate / kap, extent[1 - hi] * inflate / kap
    if a1 > 1.0:
        # the major axis stops at the disk: widen the minor axis until the
        # ellipse with a1 = 1 covers every kept point (the full disk does)
        a1 = 1.0
        room = np.sqrt(np.maximum(kap * kap - proj[:, hi] ** 2, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            need = np.nanmax(np.abs(proj[:, 1 - hi]) / room)
        a2 = max(a2, need)
    v_major = vecs[:, hi]
    phi = math.atan2(v_major[1], v_major[0])
    return EllipseShape(a1=float(a1), a2=float(min(a2, 1.0)), phi=phi)


def support_area_at_threshold(s: ScatteringScenario, threshold_db: float = -20.0,
                              on_psd: bool = False) -> float:
    """Measured area of the super-threshold wavevector set, in (rad/m)^2."""
    pts, step = _threshold_mask(s, threshold_db, on_psd)
    return len(pts) * step * step
