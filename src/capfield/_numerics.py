"""Shared numerical helpers: Gauss-Legendre nodes and Richardson differentiation."""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import roots_legendre

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    try:
        return _GL_CACHE[n]
    except KeyError:
        x, w = roots_legendre(n)
        x.flags.writeable = False
        w.flags.writeable = False
        _GL_CACHE[n] = (x, w)
        return x, w


def richardson_derivative(
    fun: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    lo: float,
    hi: float,
    step: float,
) -> np.ndarray:
    """First derivative of a smooth vectorized function at the points x.

    Uses step-halved central differences with Richardson extrapolation at
    interior points and one-sided four-point stencils (also extrapolated)
    within one step of the domain boundary, so `fun` is never evaluated
    outside [lo, hi].  Both variants have O(step^4) truncation error.

    `fun` must accept a flat array of evaluation points; all stencil points
    for all of x are gathered into a single call.
    """
    x = np.asarray(x, dtype=float)
    if step <= 0.0:
        raise ValueError("step must be positive")
    if hi - lo < 4.0 * step:
        raise ValueError("domain too small for the stencil; reduce step")
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError("evaluation points must lie in [lo, hi]")

    h = step
    forward = x - h < lo
    backward = (x + h > hi) & ~forward
    central = ~forward & ~backward

    # column offsets in units of h; central rows pad the last two columns
    # with repeats so every row has the same width
    offsets = np.empty((x.size, 6), dtype=float)
    offsets[central] = [-1.0, -0.5, 0.5, 1.0, 1.0, 1.0]
    offsets[forward] = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    offsets[backward] = [0.0, -0.5, -1.0, -1.5, -2.0, -3.0]
    pts = np.clip(x[:, None] + h * offsets, lo, hi)
    f = np.asarray(fun(pts.ravel()), dtype=float).reshape(pts.shape)

    out = np.empty_like(x)

    fc = f[central]
    d_h = (fc[:, 3] - fc[:, 0]) / (2.0 * h)
    d_h2 = (fc[:, 2] - fc[:, 1]) / h
    out[central] = (4.0 * d_h2 - d_h) / 3.0

    for mask, sign in ((forward, 1.0), (backward, -1.0)):
        fo = f[mask]
        d_h = sign * (-11.0 * fo[:, 0] + 18.0 * fo[:, 2] - 9.0 * fo[:, 4] + 2.0 * fo[:, 5]) / (6.0 * h)
        d_h2 = sign * (-11.0 * fo[:, 0] + 18.0 * fo[:, 1] - 9.0 * fo[:, 2] + 2.0 * fo[:, 3]) / (3.0 * h)
        out[mask] = (8.0 * d_h2 - d_h) / 7.0

    return out
