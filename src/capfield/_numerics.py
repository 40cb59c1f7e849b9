"""Shared numerical helpers: the nonconvergence error, a bracketed root
finder, Gauss-Legendre nodes and adaptive Chebyshev tables.

Only numpy is imported at module level, so that commands which need no
quadrature start without scipy.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np


class NonconvergenceError(RuntimeError):
    """Quadrature or iteration failed to meet its tolerance.

    Carries the best available estimate and an error bound so callers can
    decide whether the result is still usable.  The message shows a real
    estimate by value and any other (a whole iterate, say) by type name
    only; `.estimate` keeps the object either way.
    """

    def __init__(self, message: str, estimate: object, error_bound: float) -> None:
        shown = repr(estimate) if isinstance(estimate, numbers.Real) else type(estimate).__name__
        super().__init__(f"{message} (estimate={shown}, bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


def brent_root(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    rtol: float,
    maxiter: int = 100,
) -> tuple[float, int]:
    """Root of f in the bracket [a, b] by Brent's method; returns (root, iterations).

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4:
    inverse quadratic or secant steps, kept only while they shrink fast
    enough, else bisection.  Each pass keeps f(b) and f(c) of opposite
    signs with |f(b)| <= |f(c)|, and stops once the half-width
    |c - b| / 2 falls below delta = (xtol + rtol * |b|) / 2 or f(b) == 0.
    iterations counts the passes, the last one included, and is 0 when an
    end of the bracket is an exact zero.  Raises ValueError when f(a) and
    f(b) do not differ in sign, and NonconvergenceError, carrying the last
    iterate and the bracket width, after maxiter passes.
    """
    a, b = float(a), float(b)
    fa, fb = float(f(a)), float(f(b))
    if fa == 0.0:
        return a, 0
    if fb == 0.0:
        return b, 0
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise ValueError(f"f({a!r}) = {fa!r} and f({b!r}) = {fb!r} do not bracket a root")
    c, fc = a, fa
    d = e = b - a
    for iterations in range(1, maxiter + 1):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        delta = 0.5 * (xtol + rtol * abs(b))
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(m) < delta:
            return b, iterations
        if abs(e) < delta or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # accept the interpolated step only if it stays well inside
            # the bracket and is under half the step before last
            if 2.0 * p < 3.0 * m * q - abs(delta * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > delta else math.copysign(delta, m)
        fb = float(f(b))
        if (fb > 0.0) == (fc > 0.0):
            # the sign change now lies between the new iterate and the
            # previous one, which becomes the contrapoint
            c, fc = a, fa
            d = e = b - a
    raise NonconvergenceError(
        f"root finder did not converge in {maxiter} iterations", b, abs(c - b)
    )


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    try:
        return _GL_CACHE[n]
    except KeyError:
        from scipy.special import roots_legendre

        x, w = roots_legendre(n)
        x.flags.writeable = False
        w.flags.writeable = False
        _GL_CACHE[n] = (x, w)
        return x, w


# Adaptive Chebyshev tables.  The degree doubles from the start degree
# through nested Chebyshev points until the tail (largest of the last few
# coefficients over the largest) drops below the tolerance, or until it
# stops falling below the plateau level, which is the sampled function's
# own noise, such as rounding.  A tail still falling at the cap degree is
# an unresolved feature of the sampled function, such as the knots of a
# tabulated field inside the cap.  A function read from another
# table can state that table's noise: its degree and relative tail.  From
# that degree on, a tail at or below that level also ends the loop, since a
# finer table would resolve only the other table's truncation.
_TABLE_START_DEGREE = 16
_TABLE_MAX_DEGREE = 1024
_TABLE_TAIL_TERMS = 4
_TABLE_TAIL_TOL = 1e-13
_TABLE_PLATEAU_TOL = 1e-8


def _chebyshev_coefficients(samples: np.ndarray) -> np.ndarray:
    """Coefficients of the interpolant through values at cos(j*pi/n), j = 0..n."""
    from scipy.fft import dct

    n = samples.size - 1
    coeffs = dct(samples, type=1) / n
    coeffs[0] *= 0.5
    coeffs[-1] *= 0.5
    return coeffs


def _tail(coeffs: np.ndarray) -> float:
    """Largest of the last coefficients relative to the largest overall."""
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(coeffs[-_TABLE_TAIL_TERMS:]))) / scale


def chebyshev_table(
    sample: Callable[[np.ndarray], np.ndarray],
    what: str,
    noise: tuple[float, int] = (0.0, 0),
) -> tuple[np.ndarray, float]:
    """(coefficients, tail) of a Chebyshev interpolant of sample on [-1, 1].

    sample takes an array of points in [-1, 1] and returns the values
    there.  The points are nested Chebyshev points of the second kind,
    so each doubling of the degree reuses the samples already taken.
    noise is (relative tail, degree) of the table that sample reads, if
    any; the default states none.  Raises NonconvergenceError, naming
    what, when the coefficients have not settled by the cap degree or the
    tail is not finite.
    """
    noise_tail, noise_degree = noise
    n = _TABLE_START_DEGREE
    values = sample(np.cos(math.pi * np.arange(n + 1) / n))
    coeffs = _chebyshev_coefficients(values)
    tail = _tail(coeffs)
    while not (tail <= _TABLE_TAIL_TOL or (n >= noise_degree and tail <= noise_tail)):
        # a non-finite tail means the sampled function is unbounded
        if n >= _TABLE_MAX_DEGREE or not math.isfinite(tail):
            raise NonconvergenceError(f"{what} unresolved at degree {n}", tail, tail)
        doubled = np.empty(2 * n + 1)
        doubled[0::2] = values
        doubled[1::2] = sample(np.cos(math.pi * (2.0 * np.arange(n) + 1.0) / (2 * n)))
        n, values = 2 * n, doubled
        coeffs = _chebyshev_coefficients(values)
        previous, tail = tail, _tail(coeffs)
        if tail <= _TABLE_PLATEAU_TOL and tail >= 0.5 * previous:
            break
    return coeffs, tail
