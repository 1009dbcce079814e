"""Shared Gauss-Legendre quadrature helpers and the refinement loop."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


class ConvergenceError(RuntimeError):
    """Adaptive refinement exhausted its budget before reaching the tolerance.

    Carries the best estimate and the achieved error so callers can report
    how far the computation got.
    """

    def __init__(self, message: str, estimate: float | complex | None = None,
                 achieved: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.achieved = achieved


@lru_cache(maxsize=64)
def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    weights = half * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def hemisphere_rule(nt: int, nf: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (nt*nf, 3) and solid-angle weights of a hemisphere product rule."""
    th, wth = gauss_legendre(nt, 0.0, math.pi / 2.0)
    ph, wph = gauss_legendre(nf, 0.0, 2.0 * math.pi)
    st = np.sin(th)[:, None]
    u = np.empty((nt, nf, 3))
    u[..., 0] = st * np.cos(ph)
    u[..., 1] = st * np.sin(ph)
    u[..., 2] = np.cos(th)[:, None]
    return u.reshape(-1, 3), (st * wth[:, None] * wph).ravel()


def refine(levels: Sequence, evaluate: Callable, tol: float, what: str):
    """Evaluate at successive quadrature levels until two of them agree.

    Returns ``evaluate(level)`` at the first level whose result differs from
    the previous level's by less than ``tol`` (largest absolute difference
    over an array result).

    Raises
    ------
    ConvergenceError
        If the levels run out first; carries the last level's value as the
        estimate and the last difference as the achieved error.
    """
    prev = None
    achieved = math.inf
    for level in levels:
        cur = evaluate(level)
        if prev is not None:
            achieved = float(np.max(np.abs(cur - prev)))
            if achieved < tol:
                return cur
        prev = cur
    raise ConvergenceError(
        f"{what} did not reach tol={tol:g}; achieved {achieved:.3e} at level {levels[-1]}",
        estimate=prev,
        achieved=achieved,
    )
