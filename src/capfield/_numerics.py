"""Shared numerical helpers: the nonconvergence error, a bracketed root
finder, Gauss-Legendre nodes, adaptive Chebyshev tables, Clenshaw's sum of
a Chebyshev series, and the density profile record with its graded series.

`DensityProfile` is what the pipeline and the Nystrom oracle both return,
kept here so that the oracles need no closed-form module; its sigma is a
`GradedSeries`, and its mass that series' integral.  The Chebyshev tables
take their DCT-I from numpy's real FFT, and the Gauss-Legendre rules are
polished from numpy's.  scipy is never imported here.

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
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Callable


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

if TYPE_CHECKING:
    from .geometry import PhiGrid, SphericalCap


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
# tabulated field inside the cap.  A function that reads another table
# can state that table's noise: its relative tail, and the degree at which
# the function resolves that table's terms.  From that degree on, a tail at
# or below that level also ends the loop, since a finer table would resolve
# only the other table's truncation; below it, the plateau rule does not,
# since a coarser table truncates terms that the other table holds.
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


def clenshaw(x: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """The Chebyshev series of at least two terms at the points x, by
    Clenshaw's recurrence (Math. Tables Aids Comput. 9, 1955) on scratch
    arrays, in the operation order of numpy's Chebyshev evaluation and so
    with its bits."""
    c = coefficients
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
    any, a degree past the cap degree counting as the cap; the default
    states none.  Raises NonconvergenceError, naming
    what, when the coefficients have not settled by the cap degree or the
    tail is not finite.
    """
    noise_tail, noise_degree = noise[0], min(noise[1], _TABLE_MAX_DEGREE)
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
        if n >= noise_degree and tail <= _TABLE_PLATEAU_TOL and tail >= 0.5 * previous:
            break
    return coeffs, tail


class GradedSeries:
    """sigma(s) = s * f(phi(s)) of a profile on [0, smax]: a Chebyshev series,
    of at least two terms, in x = 2u - 1 of u in [0, 1], where s = scale *
    sinh(stretch * u), graded to resolve the edge part's turn
    (Trefethen, Approximation Theory and Approximation Practice, ch. 8).
    """

    def __init__(self, coefficients, scale: float, stretch: float) -> None:
        self._coefficients = np.asarray(coefficients, dtype=float)
        self._scale, self._stretch = float(scale), float(stretch)

    def __call__(self, s) -> np.ndarray:
        """Values at the points s of [0, smax], of any shape."""
        # x = (2 / stretch) asinh(s / scale) - 1
        x = np.arcsinh(np.asarray(s, dtype=float) / self._scale)
        x *= 2.0 / self._stretch
        x -= 1.0
        return clenshaw(x, self._coefficients)

    def integral(self) -> float:
        """Integral over [0, smax], by Clenshaw-Curtis in u on sigma ds/du,
        64 points past its degree for the grading's cosh (Trefethen, ch. 19)."""
        n = self._coefficients.size + 64
        x = np.cos(math.pi * np.arange(n + 1) / n)
        ds_du = np.cosh(0.5 * self._stretch * (x + 1.0))
        c = _chebyshev_coefficients(clenshaw(x, self._coefficients) * ds_du)[::2]
        return self._scale * self._stretch * float(c @ (1.0 / (1.0 - np.arange(0, n + 1, 2) ** 2)))


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Radial density samples on a cap, with its rim-variable density.

    values[i] is the surface density at grid.nodes[i]; sigma(s) is
    f(phi(s)) * s in the cap's rim variable, a graded Chebyshev series,
    which is what potentials and the mass integrate.  mass is 4 pi times
    the integral of sigma over [0, smax]; negative_nodes lists indices
    where the computed density came out negative (flagged, never clamped).
    """

    cap: SphericalCap
    grid: PhiGrid
    values: np.ndarray
    robin_constant: float
    sigma: GradedSeries = dataclass_field(repr=False)
    mass: float = dataclass_field(init=False)
    negative_nodes: tuple[int, ...] = dataclass_field(init=False)

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr.shape != (len(self.grid),):
            raise ValueError("values must match the grid node count")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "robin_constant", float(self.robin_constant))
        object.__setattr__(self, "mass", 4.0 * math.pi * self.sigma.integral())
        negative = tuple(int(i) for i in np.flatnonzero(arr < 0.0))
        object.__setattr__(self, "negative_nodes", negative)
