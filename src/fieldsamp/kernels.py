"""Interpolation kernels matched to bounded spectral supports.

The cardinal-series kernel of a support S sampled with matrix Q is
``f(r) = |det Q|/(2*pi)^2 * integral_S exp(i k . r) dk``.  Closed forms are
provided for the square support (separable sinc), the disk (Bessel ``J1``
jinc profile) and the centered ellipse (the disk's jinc through the shape
matrix); a numerical quadrature oracle evaluates the defining integral
directly for any support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._quad import gauss_legendre, refine
from .geometry import EllipseShape, SpectralSupport, Wavenumber

__all__ = [
    "Kernel",
    "bessel_j1",
    "jinc",
    "kernel_rect",
    "kernel_disk",
    "kernel_ellipse",
    "kernel_oracle",
]

# Rational approximations for J1 on |x| <= 5 (Cephes j1.c) ------------------

_RP = [
    -8.99971225705559398224e8,
    4.52228297998194034323e11,
    -7.27494245221818276015e13,
    3.68295732863852883286e15,
]
_RQ = [
    6.20836478118054335476e2,
    2.56987256757748830383e5,
    8.35146791431949253037e7,
    2.21511595479792499675e10,
    4.74914122079991414898e12,
    7.84369607876235854894e14,
    8.95222336184627338078e16,
    5.32278620332680085395e18,
]
_Z1 = 1.46819706421238932572e1
_Z2 = 4.92184563216946036703e1

# Asymptotic expansions for |x| > 5 -----------------------------------------

_PP = [
    7.62125616208173112003e-4,
    7.31397056940917570436e-2,
    1.12719608129684925192e0,
    5.11207951146807644818e0,
    8.42404590141772420927e0,
    5.21451598682361504063e0,
    1.00000000000000000254e0,
]
_PQ = [
    5.71323128072548699714e-4,
    6.88455908754495404082e-2,
    1.10514232634061696926e0,
    5.07386386128601488557e0,
    8.39985554327604159757e0,
    5.20982848682361821619e0,
    9.99999999999999997461e-1,
]
_QP = [
    5.10862594750176621635e-2,
    4.98213872951233449420e0,
    7.58238284132545283818e1,
    3.66779609360150777800e2,
    7.10856304998926107277e2,
    5.97489612400613639965e2,
    2.11688757100572135698e2,
    2.52070205858023719784e1,
]
_QQ = [
    7.42373277035675149943e1,
    1.05644886038262816351e3,
    4.98641058337653607651e3,
    9.56231892404756170795e3,
    7.99704160447350683650e3,
    2.82619278517639096600e3,
    3.36093607810698293419e2,
]

_THPIO4 = 2.35619449019234492885  # 3*pi/4
_SQ2OPI = 0.79788456080286535588  # sqrt(2/pi)


def _horner(out: np.ndarray, x: np.ndarray, coefs) -> np.ndarray:
    for c in coefs:
        out *= x
        out += c
    return out


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    return _horner(np.full_like(x, coefs[0]), x, coefs[1:])


def _p1evl(x: np.ndarray, coefs) -> np.ndarray:
    return _horner(x + coefs[0], x, coefs[1:])


def bessel_j1(x):
    """Bessel function of the first kind of order one.

    Rational approximation on |x| <= 5 and asymptotic trigonometric
    expansion beyond, following the classic Cephes construction; absolute
    error stays below 1e-10 on |x| <= 50.  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    sign = np.sign(x)
    ax = np.abs(x)
    out = np.empty_like(ax)

    small = ax <= 5.0
    if np.any(small):
        xs = ax[small]
        z = xs * xs
        w = _polevl(z, _RP) / _p1evl(z, _RQ)
        out[small] = w * xs * (z - _Z1) * (z - _Z2)
    if np.any(~small):
        xl = ax[~small]
        w = 5.0 / xl
        z = w * w
        p = _polevl(z, _PP) / _polevl(z, _PQ)
        q = _polevl(z, _QP) / _p1evl(z, _QQ)
        xn = xl - _THPIO4
        p = p * np.cos(xn) - w * q * np.sin(xn)
        out[~small] = p * _SQ2OPI / np.sqrt(xl)

    out *= sign
    return float(out[0]) if scalar else out


def jinc(x):
    """``J1(x)/x`` with the removable singularity filled by its power series.

    ``jinc(0) = 1/2``; for |x| < 1e-4 the series ``1/2 - x^2/16 + x^4/384``
    is used, elsewhere the ratio is evaluated directly.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    tiny = np.abs(x) < 1e-4
    xt = x[tiny]
    out[tiny] = 0.5 - xt * xt / 16.0 + xt ** 4 / 384.0
    xb = x[~tiny]
    out[~tiny] = bessel_j1(xb) / xb
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class Kernel:
    """Interpolation kernel tied to the spectral support it reproduces.

    Calling the kernel with displacements of shape (..., 2) returns the
    kernel value at each displacement.  ``peak`` is the value at the origin.
    Every support is centrally symmetric, so its kernel is even,
    ``f(-r) = f(r)``; a support that an axis flip maps onto itself makes
    the kernel invariant under that flip too.  A ``"rect"`` support is
    taken to give a separable kernel, ``f(x, y) = f(x, 0) f(0, y) / peak``.
    ``mse_sweep`` relies on all three; it checks evenness and flip
    invariance at the sample positions, but not separability.
    """

    support: SpectralSupport
    peak: float
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if r.shape[-1] != 2:
            raise ValueError(f"displacements must have trailing dimension 2, got shape {r.shape}")
        return self.fn(r)


def kernel_rect(kn: Wavenumber, scale: float = 1.0) -> Kernel:
    """Separable sinc kernel for the square support ``[-kappa*scale, kappa*scale]^2``.

    With the default ``scale=1`` this is the half-wavelength sampling kernel
    ``sinc(2x/wavelength) * sinc(2y/wavelength)`` with unit peak.  A scale
    below one matches the kernel to a proportionally smaller square support
    (sample spacing ``wavelength/(2*scale)``).
    """
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    c = 2.0 * scale / kn.wavelength

    def fn(r):
        return np.sinc(c * r[..., 0]) * np.sinc(c * r[..., 1])

    support = SpectralSupport.rect(Wavenumber.from_kappa(kn.kappa * scale))
    return Kernel(support=support, peak=1.0, fn=fn)


_DISK_AMP = math.pi / math.sqrt(3.0)


def kernel_disk(kn: Wavenumber) -> Kernel:
    """Radial jinc kernel for the disk support sampled hexagonally.

    ``f(r) = (pi/sqrt(3)) * jinc(kappa*|r|)`` with peak ``pi/(2*sqrt(3))``;
    note the peak is below one because the hexagonal cell is tighter than
    the disk's area bound.
    """
    kap = kn.kappa

    def fn(r):
        return _DISK_AMP * jinc(kap * np.hypot(r[..., 0], r[..., 1]))

    return Kernel(support=SpectralSupport.disk(kn), peak=0.5 * _DISK_AMP, fn=fn)


def kernel_ellipse(kn: Wavenumber, shape: EllipseShape) -> Kernel:
    """Jinc kernel for a centered ellipse support, in the lab frame.

    ``f(r) = (pi/sqrt(3)) * jinc(kappa*|G^{1/2}.T @ r|)`` with the shape
    matrix ``G^{1/2} = R(phi) @ diag(a1, a2)``: the disk kernel evaluated at
    the displacement mapped through the support's shape.  The kernel turns
    with its support, so rotating the ellipse by ``phi`` rotates the kernel
    profile by ``phi`` too.
    """
    kap = kn.kappa
    m = shape.shape_matrix

    def fn(r):
        mapped = r @ m
        return _DISK_AMP * jinc(kap * np.hypot(mapped[..., 0], mapped[..., 1]))

    return Kernel(support=SpectralSupport.ellipse(kn, shape), peak=0.5 * _DISK_AMP, fn=fn)


_ORACLE_LEVELS = (16, 32, 64, 128, 256, 512)
_ORACLE_TOL = 1e-8


def _oracle_integral_rect(kap: float, x: float, y: float, n: int) -> complex:
    nodes, weights = gauss_legendre(n, -kap, kap)
    gx = weights @ np.exp(1j * nodes * x)
    gy = weights @ np.exp(1j * nodes * y)
    return complex(gx * gy)


def _oracle_integral_radial(s: SpectralSupport, x: float, y: float, n: int) -> complex:
    psi, wpsi = gauss_legendre(2 * n, 0.0, 2.0 * math.pi)
    tau, wtau = gauss_legendre(n, 0.0, 1.0)
    u = np.column_stack([np.cos(psi), np.sin(psi)])
    mapped = u @ s.to_base.T
    tmax = s.kn.kappa / np.hypot(mapped[:, 0], mapped[:, 1])
    # integral over each ray: int_0^tmax t exp(i t (u.r)) dt with t = tmax*tau
    t = tmax[:, None] * tau[None, :]
    phase = t * (u[:, 0] * x + u[:, 1] * y)[:, None]
    ray = (t * np.exp(1j * phase)) @ wtau * tmax
    return complex(wpsi @ ray)


def kernel_oracle(s: SpectralSupport, q, r) -> float:
    """Kernel value from direct numerical quadrature of the defining integral.

    Evaluates ``|det Q|/(2*pi)^2 * integral_S exp(i k . r) dk`` at the
    lab-frame displacement ``r`` with Gauss-Legendre rules refined by
    doubling until two successive levels agree within 1e-8, so it equals
    ``kern(r)`` for the closed-form kernel of any support.  The square
    support integrates separably in Cartesian coordinates; disk and ellipse
    supports integrate in polar coordinates with the radial limit resolved
    per angle by mapping the ray onto the support's base disk
    (``s.to_base``), independent of the closed forms being checked.

    Raises
    ------
    ConvergenceError
        If the refinement budget is exhausted; carries the last level's
        (complex) integral as the estimate and the achieved level-to-level
        error.
    """
    x, y = np.asarray(r, dtype=float).reshape(2)
    det = abs(q.det if hasattr(q, "det") else float(np.linalg.det(np.asarray(q, dtype=float))))
    norm = det / (2.0 * math.pi) ** 2

    def level(n):
        if s.kind == "rect":
            return norm * _oracle_integral_rect(s.kn.kappa, x, y, n)
        return norm * _oracle_integral_radial(s, x, y, n)

    return float(refine(_ORACLE_LEVELS, level, _ORACLE_TOL, "kernel quadrature").real)
