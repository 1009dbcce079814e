"""Wavenumber-domain geometry for two-dimensional wave fields.

A field observed on a plane has a spatial spectrum confined to a bounded
region of the wavevector plane.  This module defines those support regions
(disk, square, centered ellipse), the dispersion relation that links the
in-plane wavevector to the out-of-plane component, and the depth-migration
filter built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "Wavenumber",
    "WaveVector",
    "EllipseShape",
    "SpectralSupport",
    "Region",
    "rotation_matrix",
    "kz",
    "migration_filter",
    "support_measure",
    "support_contains",
    "wavevector_from_angles",
]


@dataclass(frozen=True)
class Wavenumber:
    """Angular spatial frequency of a monochromatic field.

    Attributes
    ----------
    kappa : float
        Wavenumber in rad/m, strictly positive.
    wavelength : float
        Wavelength in meters.  ``kappa * wavelength == 2*pi`` is enforced.
    """

    kappa: float
    wavelength: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ValueError(f"kappa must be finite and positive, got {self.kappa!r}")
        if not (math.isfinite(self.wavelength) and self.wavelength > 0.0):
            raise ValueError(
                f"wavelength must be finite and positive, got {self.wavelength!r}"
            )
        if abs(self.kappa * self.wavelength - TWO_PI) > 1e-12 * TWO_PI:
            raise ValueError("kappa and wavelength must satisfy kappa*wavelength = 2*pi")

    @classmethod
    def from_wavelength(cls, wavelength: float) -> "Wavenumber":
        wavelength = float(wavelength)
        if not (math.isfinite(wavelength) and wavelength > 0.0):
            raise ValueError(f"wavelength must be finite and positive, got {wavelength!r}")
        return cls(kappa=TWO_PI / wavelength, wavelength=wavelength)

    @classmethod
    def from_kappa(cls, kappa: float) -> "Wavenumber":
        kappa = float(kappa)
        if not (math.isfinite(kappa) and kappa > 0.0):
            raise ValueError(f"kappa must be finite and positive, got {kappa!r}")
        return cls(kappa=kappa, wavelength=TWO_PI / kappa)


@dataclass(frozen=True)
class WaveVector:
    """In-plane wavevector (kx, ky) in rad/m."""

    kx: float
    ky: float

    def __post_init__(self):
        if not (math.isfinite(self.kx) and math.isfinite(self.ky)):
            raise ValueError(f"wavevector components must be finite, got {(self.kx, self.ky)!r}")

    @property
    def array(self) -> np.ndarray:
        return np.array([self.kx, self.ky])

    @property
    def norm(self) -> float:
        return math.hypot(self.kx, self.ky)


def _as_xy(k) -> tuple[float, float]:
    """Coerce a WaveVector or a length-2 sequence to a (kx, ky) float pair."""
    if isinstance(k, WaveVector):
        return k.kx, k.ky
    arr = np.asarray(k, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"expected a wavevector with two components, got shape {arr.shape}")
    return float(arr[0]), float(arr[1])


def rotation_matrix(angle: float) -> np.ndarray:
    """Counterclockwise 2x2 rotation matrix for the given angle in radians."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class EllipseShape:
    """Shape of a centered ellipse in the wavevector plane.

    The ellipse is the image of the radius-``kappa`` disk under
    ``G^{1/2} = R(phi) @ diag(a1, a2)``: semi-axes ``a1*kappa`` and
    ``a2*kappa`` rotated by ``phi``.  Membership of a wavevector ``k`` is
    tested through ``norm(diag(1/a1, 1/a2) @ R(phi).T @ k) <= kappa``.

    Attributes
    ----------
    a1, a2 : float
        Dimensionless semi-axis factors with ``0 < a2 <= a1 <= 1``.
    phi : float
        Orientation of the major axis in radians, stored modulo 2*pi.
    """

    a1: float
    a2: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.a1) and math.isfinite(self.a2) and math.isfinite(self.phi)):
            raise ValueError("ellipse parameters must be finite")
        if not (0.0 < self.a2 <= self.a1 <= 1.0):
            raise ValueError(
                f"semi-axis factors must satisfy 0 < a2 <= a1 <= 1, got a1={self.a1!r}, a2={self.a2!r}"
            )
        object.__setattr__(self, "phi", self.phi % TWO_PI)

    @property
    def axis_matrix(self) -> np.ndarray:
        """diag(a1, a2), the axis-scaling half of the shape matrix."""
        return np.diag([self.a1, self.a2])

    @property
    def shape_matrix(self) -> np.ndarray:
        """G^{1/2} = R(phi) @ diag(a1, a2); maps the disk onto the ellipse."""
        return rotation_matrix(self.phi) @ self.axis_matrix

    @property
    def inverse_shape_matrix(self) -> np.ndarray:
        """diag(1/a1, 1/a2) @ R(phi).T; maps the ellipse back onto the disk."""
        return np.diag([1.0 / self.a1, 1.0 / self.a2]) @ rotation_matrix(self.phi).T


@dataclass(frozen=True)
class SpectralSupport:
    """Bounded spectral support region: disk, square, or centered ellipse.

    Construct through the ``disk``, ``rect`` and ``ellipse`` factories.  All
    three regions are closed sets: boundary wavevectors belong to the support.
    Each is a linear image of a base shape of radius kappa, the square for
    ``rect`` and the disk otherwise; ``to_base`` maps it back onto that base.
    """

    kind: str
    kn: Wavenumber
    shape: EllipseShape | None = None

    _KINDS = ("disk", "rect", "ellipse")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown support kind {self.kind!r}, expected one of {self._KINDS}")
        if self.kind == "ellipse" and self.shape is None:
            raise ValueError("ellipse support requires an EllipseShape")
        if self.kind != "ellipse" and self.shape is not None:
            raise ValueError(f"{self.kind!r} support does not take a shape")

    @classmethod
    def disk(cls, kn: Wavenumber) -> "SpectralSupport":
        """Disk of radius kappa (spectrum of a field of propagating waves)."""
        return cls(kind="disk", kn=kn)

    @classmethod
    def rect(cls, kn: Wavenumber) -> "SpectralSupport":
        """Square [-kappa, kappa]^2, the minimal separable cover of the disk."""
        return cls(kind="rect", kn=kn)

    @classmethod
    def ellipse(cls, kn: Wavenumber, shape: EllipseShape) -> "SpectralSupport":
        """Centered ellipse with semi-axes a1*kappa >= a2*kappa rotated by phi."""
        return cls(kind="ellipse", kn=kn, shape=shape)

    @property
    def to_base(self) -> np.ndarray:
        """Matrix mapping the support onto its base square or disk of radius kappa."""
        if self.shape is None:
            return np.eye(2)
        return self.shape.inverse_shape_matrix


@dataclass(frozen=True)
class Region:
    """Square observation region of side L centered at the origin."""

    side: float

    def __post_init__(self):
        if not (math.isfinite(self.side) and self.side > 0.0):
            raise ValueError(f"region side must be finite and positive, got {self.side!r}")

    @property
    def area(self) -> float:
        return self.side * self.side


def kz(k, kn: Wavenumber) -> complex:
    """Out-of-plane wavenumber for the in-plane wavevector ``k``.

    Equal to ``sqrt(kappa^2 - |k|^2)`` (real, propagating) when ``k`` lies
    inside the disk of radius kappa, and ``i*sqrt(|k|^2 - kappa^2)``
    (positive imaginary, evanescent) outside.

    Parameters
    ----------
    k : WaveVector or sequence of two floats
    kn : Wavenumber

    Returns
    -------
    complex
        Value with ``Im(kz) >= 0`` in both regimes.
    """
    kx, ky = _as_xy(k)
    s = kn.kappa * kn.kappa - (kx * kx + ky * ky)
    if s >= 0.0:
        return complex(math.sqrt(s), 0.0)
    return complex(0.0, math.sqrt(-s))


def migration_filter(k, z: float, kn: Wavenumber) -> complex:
    """Frequency response ``exp(i*kz*z)`` migrating the field to depth z >= 0.

    All-pass (unit modulus) for wavevectors inside the disk of radius kappa,
    exponentially decaying with z for wavevectors outside it.
    """
    z = float(z)
    if not math.isfinite(z) or z < 0.0:
        raise ValueError(f"migration depth must be nonnegative, got {z!r}")
    return complex(np.exp(1j * kz(k, kn) * z))


def support_measure(s: SpectralSupport) -> float:
    """Lebesgue measure of the support in (rad/m)^2."""
    kap2 = s.kn.kappa * s.kn.kappa
    if s.kind == "disk":
        return math.pi * kap2
    if s.kind == "rect":
        return 4.0 * kap2
    return math.pi * kap2 * s.shape.a1 * s.shape.a2


def support_contains(s: SpectralSupport, k) -> bool:
    """Whether wavevector ``k`` lies in the (closed) support region."""
    kx, ky = s.to_base @ _as_xy(k)
    kap = s.kn.kappa
    if s.kind == "rect":
        return bool(abs(kx) <= kap and abs(ky) <= kap)
    return bool(kx * kx + ky * ky <= kap * kap)


def wavevector_from_angles(theta: float, phi: float, kn: Wavenumber) -> tuple[WaveVector, float]:
    """In-plane wavevector and kz of a plane wave arriving from (theta, phi).

    Parameters
    ----------
    theta : float
        Polar angle from the plane normal, in [0, pi/2].
    phi : float
        Azimuth in [0, 2*pi).
    kn : Wavenumber

    Returns
    -------
    (WaveVector, float)
        ``kappa*sin(theta)*(cos(phi), sin(phi))`` and ``kappa*cos(theta)``.
        The wavevector always lies inside the disk of radius kappa.
    """
    theta, phi = float(theta), float(phi)
    if not (0.0 <= theta <= math.pi / 2.0):
        raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")
    if not (0.0 <= phi < TWO_PI):
        raise ValueError(f"phi must lie in [0, 2*pi), got {phi!r}")
    st = math.sin(theta)
    k = WaveVector(kn.kappa * st * math.cos(phi), kn.kappa * st * math.sin(phi))
    return k, kn.kappa * math.cos(theta)
