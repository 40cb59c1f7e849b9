"""Shared numerical helpers: the nonconvergence error, a bracketed root
finder, Gauss-Legendre nodes, adaptive Chebyshev tables, the graded
Chebyshev series of the density profiles and piecewise cubics.

`GradedSeries` is the rim-variable density sigma of every profile, the
pipeline's sigma table and the Nystrom oracle's solved series alike.
`PiecewiseCubic` is the monotone PCHIP (Fritsch & Carlson 1980) of a
tabulated field.  The Chebyshev tables take their DCT-I from numpy's real
FFT, and the Gauss-Legendre rules are polished from numpy's.  scipy is
never imported here.

`np` is the one numpy handle of the modules that a command imports at
start-up (`cli`, `_numerics`, `fields`, `geometry`, `support_finder`):
numpy is executed on the first use of one of its attributes, so that
the closed-form commands, which compute with `math` alone, run on the
standard library.
"""

from __future__ import annotations

import importlib.util
import math
import numbers
import sys
from typing import Callable


def _lazy_module(name: str):
    """The module name, executed on first attribute access unless already imported.

    The standard library's `importlib.util.LazyLoader` recipe: the module
    is registered in sys.modules at once, and becomes a plain module the
    first time one of its attributes is read.
    """
    try:
        return sys.modules[name]
    except KeyError:
        pass
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")


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
    """Cached Gauss-Legendre nodes and weights on [-1, 1].

    numpy's `leggauss` nodes, good to a few ulps, take one Newton step
    on the three-term recurrence in long double, and the weights are
    2 / ((1 - x)(1 + x) P_n'(x)^2) there (Hale & Townsend, SIAM J. Sci.
    Comput. 35 (2013)); both are rounded to double at the end.  With an
    80-bit long double they are correctly rounded or within an ulp of it;
    where long double is double, within about 2e-13 relative.
    """
    try:
        return _GL_CACHE[n]
    except KeyError:
        pass
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    p, dp = _legendre_and_slope(n, x)
    x -= p / dp
    _, dp = _legendre_and_slope(n, x)
    w = (2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)).astype(float)
    x = x.astype(float)
    x.flags.writeable = False
    w.flags.writeable = False
    _GL_CACHE[n] = (x, w)
    return x, w


def _legendre_and_slope(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, in the precision of x."""
    previous, p = np.ones_like(x), x.copy()
    for k in range(2, n + 1):
        previous, p = p, ((2 * k - 1) * x * p - (k - 1) * previous) / k
    return p, n * (x * p - previous) / ((x - 1.0) * (x + 1.0))


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
    """Coefficients of the interpolant through values at cos(j*pi/n), j = 0..n.

    The DCT-I of the samples is the real FFT of their even extension
    (Trefethen, Approximation Theory and Approximation Practice, ch. 3).
    """
    n = samples.size - 1
    # samples near the float range overflow inside the FFT; the caller
    # refuses the non-finite tail that results
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.fft.rfft(np.concatenate((samples, samples[-2:0:-1]))).real / n
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


class GradedSeries:
    """sigma(s) = s * f(phi(s)) of a profile on [0, smax]: a Chebyshev series,
    of at least two terms, in x = 2u - 1 of u in [0, 1], where s = start +
    scale * sinh(stretch * u), graded to resolve the edge part's turn
    (Trefethen, Approximation Theory and Approximation Practice, ch. 8).
    Below a positive start it is the cubic through the series at start +
    h * (0, 1, 2, 3), h = min(start, (smax - start) / 3): a series that
    ends on its noise plateau diverges off its interval.
    """

    def __init__(self, coefficients, start: float, scale: float, stretch: float) -> None:
        self._coefficients = np.asarray(coefficients, dtype=float)
        self._start, self._scale, self._stretch = float(start), float(scale), float(stretch)
        self._step = min(self._start, self._scale * math.sinh(self._stretch) / 3.0)
        if self._start > 0.0:
            rim = self(self._start + self._step * np.arange(4.0))
            self._rim = [np.diff(rim, k)[0] for k in range(4)]

    def __call__(self, s) -> np.ndarray:
        """Values at the points s, of any shape."""
        s = np.asarray(s, dtype=float)
        # x = (2 / stretch) asinh((s - start) / scale) - 1, at s >= start
        x = np.arcsinh(np.maximum(s - self._start, 0.0) / self._scale)
        x *= 2.0 / self._stretch
        x -= 1.0
        out = self._clenshaw(x)
        below = s < self._start
        if self._start > 0.0 and below.any():
            out[below] = self._cubic(s[below])
        return out

    def integral(self) -> float:
        """Integral over [0, smax]: the series' by Clenshaw-Curtis in u on
        sigma ds/du, 64 points past its degree for the grading's cosh
        (Trefethen, ch. 19), and the cubic's by two-point Gauss-Legendre."""
        n = self._coefficients.size + 64
        x = np.cos(math.pi * np.arange(n + 1) / n)
        ds_du = np.cosh(0.5 * self._stretch * (x + 1.0))
        c = _chebyshev_coefficients(self._clenshaw(x) * ds_du)[::2]
        total = self._scale * self._stretch * float(c @ (1.0 / (1.0 - np.arange(0, n + 1, 2) ** 2)))
        if self._start > 0.0:
            nodes = self._start * (0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0))
            total += 0.5 * self._start * float(self._cubic(nodes).sum())
        return total

    def _clenshaw(self, x: np.ndarray) -> np.ndarray:
        """The series at x by Clenshaw's recurrence, in `chebval`'s order and bits."""
        c = self._coefficients
        twice = 2.0 * x
        b0, b1, t = np.full_like(x, c[-2]), np.full_like(x, c[-1]), np.empty_like(x)
        for k in c[-3::-1]:
            np.subtract(k, b1, out=t)
            b1 *= twice
            b1 += b0
            b0, t = t, b0
        b1 *= x
        b1 += b0
        return b1

    def _cubic(self, s: np.ndarray) -> np.ndarray:
        # Newton's forward form on the nodes t = 0, 1, 2, 3 of t = (s - start) / h
        t = (s - self._start) / self._step
        d0, d1, d2, d3 = self._rim
        return d0 + t * (d1 + 0.5 * (t - 1.0) * (d2 + (t - 2.0) / 3.0 * d3))


class PiecewiseCubic:
    """Polynomial pieces c_0,k + c_1,k t + c_2,k t^2 + ... in t = s - s_k.

    Piece k covers [s_k, s_k+1] of the strictly increasing breakpoints;
    the first and last pieces extend to everything below and above.  The
    coefficients are one row per power, one column per piece: cubic
    pieces have four rows, their derivative three.  A piece is evaluated
    in powers of t, in the order of scipy's `PPoly`, so either gives the
    same bits.
    """

    def __init__(self, breakpoints: np.ndarray, coefficients: np.ndarray) -> None:
        self._breakpoints = breakpoints
        self._inner = breakpoints[1:-1]
        self._left = breakpoints[:-1]
        self._coefficients = coefficients

    @classmethod
    def pchip(cls, s, values) -> "PiecewiseCubic":
        """The monotone PCHIP through values at the knots s.

        Interior slopes are the weighted harmonic mean of the neighbouring
        secants, or 0 where they differ in sign or one vanishes; the end
        slopes are the one-sided three-point estimate, kept within the
        shape (Moler, Numerical Computing with MATLAB, 3.6).  Two samples
        give the line through them.
        """
        s, y = np.asarray(s, dtype=float), np.asarray(values, dtype=float)
        if s.ndim != 1 or s.size < 2 or y.shape != s.shape:
            raise ValueError("need matching 1-d knots and values, at least two")
        h = np.diff(s)
        if not np.all(h > 0.0):
            raise ValueError("knots must be strictly increasing")
        m = np.diff(y) / h
        d = np.full_like(y, m[0])
        if m.size > 1:
            w1 = 2.0 * h[1:] + h[:-1]
            w2 = h[1:] + 2.0 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                mean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                d[1:-1] = np.where(flat, 0.0, 1.0 / mean)
            d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        # the cubic Hermite pieces through the values with slopes d
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        return cls(s, np.stack((y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)))

    def derivative(self) -> "PiecewiseCubic":
        """The pieces' derivative, one degree lower on the same breakpoints."""
        powers = np.arange(1.0, self._coefficients.shape[0])
        return PiecewiseCubic(self._breakpoints, self._coefficients[1:] * powers[:, None])

    def __call__(self, s) -> np.ndarray:
        """Values at the points s, of any shape."""
        s = np.asarray(s, dtype=float)
        return self._at(s, _monotone_step(s))

    def _at(self, s: np.ndarray, step: int) -> np.ndarray:
        """Values at s, where step is `_monotone_step(s)`.

        Points in general position find their pieces by binary search.
        A monotone 1-d s is split into runs by binary search of the
        breakpoints among the points instead, and each piece's
        coefficients are repeated over its run; both give the same
        pieces, right-continuous at the breakpoints.
        """
        if step:
            # the points of each piece, in the order of s: the first and
            # last pieces take everything below and above the knots
            ends = np.searchsorted(s[::step], self._breakpoints)
            ends[0], ends[-1] = 0, s.size
            counts = (ends[1:] - ends[:-1])[::step]

            def gather(row: np.ndarray) -> np.ndarray:
                return np.repeat(row[::step], counts)
        else:
            pieces = np.searchsorted(self._inner, s, side="right")

            def gather(row: np.ndarray) -> np.ndarray:
                return row.take(pieces)

        c = self._coefficients
        t = s - gather(self._left)
        out, power = gather(c[0]), t
        for j, row in enumerate(c[1:]):
            if j:
                power = power * t
            term = gather(row)
            term *= power
            out += term
        return out


def _monotone_step(s: np.ndarray) -> int:
    """1 for a nondecreasing and -1 for a nonincreasing 1-d s, else 0.

    A NaN anywhere, or an empty s, gives 0.
    """
    if s.ndim != 1 or s.size == 0:
        return 0
    if s[0] <= s[-1]:
        return 1 if np.all(s[:-1] <= s[1:]) else 0
    return -1 if np.all(s[1:] <= s[:-1]) else 0


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at an end, 0 against the end secant's
    sign and at most three times it where the secants change sign."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return float(d)
