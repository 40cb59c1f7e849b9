"""Axially symmetric external fields on the unit sphere.

A field is a map Q(phi) = Qhat(x3) with x3 = cos(phi), evaluated through
`value_at_x3` and its derivative dQhat/dx3 through `slope_at_x3` (both
vectorized over x3).
Fields suitable for a south-cap support are nondecreasing and convex in x3.
The closed-form fields are so by construction, since their constructors
refuse every other parameter; a table is checked exactly on the pieces of
its interpolant (`TabulatedField.require_south_cap`).

A table's interpolant is its monotone PCHIP, held as one row per power
and one column per piece, and `TabulatedField` is the only code that reads
those rows: it evaluates them, checks them against the hypotheses, and
sums its slope over the first Abel stage's arcs exactly piece by piece
(`TabulatedField.slope_integral`).
`_numerics` is the only capfield module imported here, so that a field
loads neither scipy nor the Abel stages, and numpy comes from its lazy
handle: building a closed-form field executes no numpy, evaluating it
does.
"""

from __future__ import annotations

import abc
import math
import warnings
from dataclasses import dataclass

from ._numerics import np


class ExternalField(abc.ABC):
    """Rotationally invariant external field Q on the sphere."""

    @abc.abstractmethod
    def value_at_x3(self, x3):
        """Qhat at x3 in [-1, 1]; accepts scalars or arrays."""

    @abc.abstractmethod
    def slope_at_x3(self, x3):
        """dQhat/dx3 at x3 in [-1, 1]; accepts scalars or arrays."""

    def require_finite_at_top(self, alpha: float) -> None:
        """Refuse a Q infinite at the top x3 = cos(alpha) of the south cap with
        rim alpha, as a charge on the sphere is at a rim of 0 (ValueError)."""
        top = math.cos(alpha)
        if not math.isfinite(self.value_at_x3(top)):
            raise ValueError(f"field is not finite at the cap's top x3 = cos(alpha) = {top!r}")


class ZeroField(ExternalField):
    def value_at_x3(self, x3):
        x = np.asarray(x3, dtype=float)
        return 0.0 if x.ndim == 0 else np.zeros_like(x)

    def slope_at_x3(self, x3):
        return self.value_at_x3(x3)

    def __repr__(self) -> str:
        return "ZeroField()"


# the squared distance d2 = 1 + h^2 - 2h x3 to the charge is at most
# (1 + h)^2, and the slope divides by d2^(3/2) <= (1 + h)^3, which stays
# finite for h up to 5.6e102
_MAX_CHARGE_HEIGHT = 1e100
# the slope's numerator is q*h, and F_Q's terms scale as q*h and q/h
# (`support_finder.ffunctional_pointcharge`); the largest charge that
# `support_finder.gonchar_heights` takes bounds both
_MAX_CHARGE_SCALE = 1e300


@dataclass(frozen=True)
class PointChargeField(ExternalField):
    """Coulomb field of a positive charge q on the polar axis at height h.

    Q(x3) = q / sqrt(1 + h^2 - 2 h x3).  For h > 1 the charge sits above the
    sphere, for h < 1 inside it; h = 1 puts it on the sphere, where Q blows
    up at the north pole.  h <= 1e100 and q * max(h, 1/h) <= 1e300 keep
    q*h, q/h and (1 + h)^3, which the slope and the closed forms form,
    finite; anything else is refused.
    """

    q: float
    h: float

    def __post_init__(self) -> None:
        if not (self.q > 0.0 and math.isfinite(self.q)):
            raise ValueError(f"charge must be positive, got q={self.q!r}")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"charge height must be positive, got h={self.h!r}")
        q, h = self.q, self.h
        if not h <= _MAX_CHARGE_HEIGHT:
            raise ValueError(f"charge height must be at most {_MAX_CHARGE_HEIGHT:g}, got h={h!r}")
        if not q * max(h, 1.0 / h) <= _MAX_CHARGE_SCALE:
            raise ValueError(f"need q * max(h, 1/h) <= {_MAX_CHARGE_SCALE:g}, got q={q!r}, h={h!r}")

    def value_at_x3(self, x3):
        x = np.asarray(x3, dtype=float)
        d2 = 1.0 + self.h * self.h - 2.0 * self.h * x
        with np.errstate(divide="ignore"):
            out = self.q / np.sqrt(d2)
        if x.ndim == 0:
            return float(out)
        return out

    def slope_at_x3(self, x3):
        """q*h/d^3, d the distance to the charge; raises ValueError where
        that overflows off the charge, as it can at a small rim near a
        strong charge (q = 1e300, h = 1 at x3 = cos(0.001))."""
        x = np.asarray(x3, dtype=float)
        d2 = 1.0 + self.h * self.h - 2.0 * self.h * x
        with np.errstate(divide="ignore", over="ignore"):
            out = self.q * self.h / (d2 * np.sqrt(d2))
        # one reduction on the common path; inf at d2 = 0 is the pole of an
        # on-sphere charge
        if np.max(out) == math.inf:
            overflow = np.isinf(out) & (d2 > 0.0)
            if overflow.any():
                raise ValueError(
                    f"slope q*h/d^3 exceeds the float range at x3 = {float(np.max(x[overflow]))!r}"
                    f" (q={self.q!r}, h={self.h!r}, d the distance to the charge)"
                )
        if x.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class QuadraticField(ExternalField):
    """Field a*x3^2 + b*x3 + c with a, b > 0 and 4a^2 < b^2 <= 4ac.

    The coefficient constraints make Qhat nonnegative, increasing, and
    convex on [-1, 1].
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if not all(math.isfinite(v) for v in (a, b, c)):
            raise ValueError(f"coefficients must be finite, got a={a!r}, b={b!r}, c={c!r}")
        if not (a > 0.0 and b > 0.0):
            raise ValueError(f"need a > 0 and b > 0, got a={a!r}, b={b!r}")
        if not 4.0 * a * a < b * b:
            raise ValueError(
                f"need 4a^2 < b^2 (increasing on [-1, 1]), got a={a!r}, b={b!r}"
            )
        if not b * b <= 4.0 * a * c:
            raise ValueError(
                f"need b^2 <= 4ac (nonnegative), got b={b!r}, a*c={a * c!r}"
            )

    def value_at_x3(self, x3):
        x = np.asarray(x3, dtype=float)
        out = (self.a * x + self.b) * x + self.c
        if x.ndim == 0:
            return float(out)
        return out

    def slope_at_x3(self, x3):
        x = np.asarray(x3, dtype=float)
        out = 2.0 * self.a * x + self.b
        if x.ndim == 0:
            return float(out)
        return out


def _pchip_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(4, pieces) rows y, d, c, e of the monotone PCHIP through (x, y).

    On [x_k, x_k+1] the interpolant is y + d*t + c*t^2 + e*t^3 with
    t = x3 - x_k, column k.  Interior slopes d are the weighted harmonic
    mean of the neighbouring secants, or 0 where they differ in sign or
    one vanishes; the end slopes are the one-sided three-point estimate,
    kept within the shape (Moler, Numerical Computing with MATLAB, 3.6).
    Two samples give the line through them.  x is strictly increasing,
    as `TabulatedField` checks.
    """
    h = np.diff(x)
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
    return np.stack((y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h))


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


def _parse_rows(lines: list[str]) -> np.ndarray:
    """(rows, 2) floats from the first two comma-separated columns; empty lines are skipped."""
    return np.loadtxt(lines, delimiter=",", usecols=(0, 1), ndmin=2, comments=None, quotechar='"')


# elements per block of a table's per-piece sums (`slope_integral`): 64 KB
# temporaries stay under the C allocator's default mmap threshold, so each
# block reuses heap memory, where larger ones fault in fresh pages on every
# call.  A block holds whole rows, so its size does not change the sums' bits
_PIECE_BLOCK = 1 << 13


class TabulatedField(ExternalField):
    """Field given by samples (x3_i, Q_i), interpolated monotonicity-preserving.

    Abscissae must be strictly increasing within [-1, 1]; evaluation outside
    the tabulated range raises rather than extrapolating.  Negative samples
    are admitted with a warning, since the equilibrium problem itself only
    needs Q bounded below.
    """

    def __init__(self, x3, values) -> None:
        x = np.array(x3, dtype=float)  # a private copy, handed out read-only by `knots`
        y = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.size < 2 or x.shape != y.shape:
            raise ValueError("need matching 1-d arrays with at least two samples")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("samples must be finite")
        if x[0] < -1.0 or x[-1] > 1.0:
            raise ValueError("abscissae must lie in [-1, 1]")
        h = np.diff(x)
        if np.any(h <= 0.0):
            raise ValueError("abscissae must be strictly increasing")
        # on a piece of width h, the PCHIP's slopes stay within 3 |secant|,
        # its coefficients and their curvature within 72 |secant| /
        # min(h, 1)^2, and its interior slopes read 6 / |secant| at most
        big = np.finfo(float).max
        with np.errstate(over="ignore"):
            secant = np.abs(np.diff(y) / h)
        bad = np.flatnonzero(
            ~(secant <= big / 72.0 * np.minimum(h, 1.0) ** 2)
            | ((secant > 0.0) & (secant < 6.0 / big))
        )
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"tabulated field's interpolant would overflow: Q = {float(y[i])}, "
                f"{float(y[i + 1])} at x3 = {float(x[i])}, {float(x[i + 1])}"
            )
        if np.min(y) < 0.0:
            warnings.warn(
                "tabulated field takes negative values; equilibrium results "
                "assume Q bounded below but the usual hypotheses want Q >= 0",
                UserWarning,
                stacklevel=2,
            )
        x.flags.writeable = False
        self._x = x
        self._y = y
        self._values = _pchip_rows(x, y)
        # the slope's rows d, 2c, 3e: one quadratic per piece
        self._slopes = self._values[1:] * [[1.0], [2.0], [3.0]]

    @classmethod
    def from_csv(cls, path) -> "TabulatedField":
        """Read (x3, Q) from the first two columns of CSV data.

        Blank lines are skipped, and so is a first line that does not
        parse, as a header; any other line that does not parse is refused
        by its row number.
        """
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
        start = 0
        if lines and lines[0]:
            try:
                _parse_rows(lines[:1])
            except ValueError:
                start = 1  # header line
        rows = lines[start:]
        if not any(rows):
            return cls(np.empty(0), np.empty(0))
        try:
            data = _parse_rows(rows)
        except ValueError:
            # name the first row that does not parse on its own
            for number, line in enumerate(rows, start=start + 1):
                if line:
                    try:
                        _parse_rows([line])
                    except ValueError:
                        raise ValueError(f"malformed CSV row {number}: {line!r}") from None
            raise
        return cls(data[:, 0], data[:, 1])

    @property
    def knots(self) -> np.ndarray:
        """The sample abscissae: the interpolant is one cubic between neighbours."""
        return self._x

    def require_south_cap(self) -> None:
        """Refuse the table unless its interpolant is nondecreasing and convex.

        The PCHIP is nondecreasing exactly when its samples are (Fritsch &
        Carlson 1980), and its second derivative is linear on each piece,
        so the samples and both ends of every piece decide the south-cap
        hypotheses exactly, up to a rounding slack relative to the largest
        sample.  A NaN curvature counts as a violation.
        """
        x, y = self._x, self._y
        scale = max(float(np.max(np.abs(y))), 1.0)
        bad = np.flatnonzero(np.diff(y) < -1e-12 * scale)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"tabulated field is not monotone in x3: Q = {float(y[i])}, "
                f"{float(y[i + 1])} at x3 = {float(x[i])}, {float(x[i + 1])}"
            )
        _, u1, u2 = self._slopes
        curvature = np.minimum(u1, u1 + 2.0 * u2 * np.diff(x))
        bad = np.flatnonzero(~(curvature >= -1e-8 * scale))
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"tabulated field is not convex in x3: Q'' = {float(curvature[k])} "
                f"on the piece [{float(x[k])}, {float(x[k + 1])}]"
            )

    def _range_error(self) -> ValueError:
        return ValueError(
            f"x3 outside tabulated range [{float(self._x[0])}, {float(self._x[-1])}]"
        )

    def _evaluate(self, rows: np.ndarray, x3):
        """The pieces of rows, one per power of t = x3 - x_k, at x3.

        Points in general position find their pieces by binary search.
        A monotone 1-d x3 is split into runs by binary search of the knots
        among the points instead, and each piece's row entries are
        repeated over its run; both give the same pieces, right-continuous
        at the knots.  The powers are summed in the order of scipy's
        `PPoly`, so either gives the same bits.
        """
        x = np.asarray(x3, dtype=float)
        step = _monotone_step(x)
        # a monotone input's range is its two ends; a NaN is not refused,
        # and evaluates to NaN
        if step:
            low, high = (x[0], x[-1])[::step]
        else:
            low, high = np.min(x, initial=np.inf), np.max(x, initial=-np.inf)
        if low < self._x[0] or high > self._x[-1]:
            raise self._range_error()
        if step:
            # the points of each piece, in the order of x: the first and
            # last pieces take everything below and above the inner knots
            ends = np.searchsorted(x[::step], self._x)
            ends[0], ends[-1] = 0, x.size
            counts = (ends[1:] - ends[:-1])[::step]

            def gather(row: np.ndarray) -> np.ndarray:
                return np.repeat(row[::step], counts)
        else:
            pieces = np.searchsorted(self._x[1:-1], x, side="right")

            def gather(row: np.ndarray) -> np.ndarray:
                return row.take(pieces)

        t = x - gather(self._x[:-1])
        out, power = gather(rows[0]), t
        for j, row in enumerate(rows[1:]):
            if j:
                power = power * t
            term = gather(row)
            term *= power
            out += term
        if x.ndim == 0:
            return float(out)
        return out

    def slope_integral(self, c: np.ndarray) -> np.ndarray:
        """Integral over s in [0, sqrt(1+c)] of the slope at c - s^2, per c.

        On the piece [x_k, x_k + h] the slope is u0 + u1*t + u2*t^2 in
        t = x3 - x_k, and the piece covers s in [b, a] with
        a = sqrt(c - x_k), tau = min(h, c - x_k) and b = sqrt(a^2 - tau).
        With s = a - u, t = u*(2a - u), so over the piece's width
        delta = tau/(a + b) in s the means of t and t^2 are
        delta*(a - delta/3) and delta^2*(4a^2/3 - a*delta + delta^2/5).
        Each piece's polynomial is used on its own piece only, and no two
        nearby powers of s are subtracted, so the sum keeps full relative
        accuracy.  Only pieces below c contribute.  The first Abel stage
        of a table is this sum (`singular_quadrature._first_stage_integral`).
        """
        c = np.asarray(c, dtype=float)
        knots = self._x
        top = float(np.max(c))
        if top > knots[-1]:
            raise self._range_error()
        pieces = int(np.searchsorted(knots, top))
        x, width = knots[:pieces], np.diff(knots)[:pieces]
        u0, u1, u2 = self._slopes[:, :pieces]
        rows = max(1, _PIECE_BLOCK // max(pieces, 1))
        out = np.empty(c.shape, dtype=float)
        for start in range(0, c.size, rows):
            d = np.maximum(c[start : start + rows, None] - x, 0.0)
            tau = np.minimum(width, d)
            a = np.sqrt(d)
            span = a + np.sqrt(d - tau)
            delta = tau / np.where(span > 0.0, span, 1.0)
            mean_t = delta * (a - delta / 3.0)
            mean_t2 = delta * delta * ((4.0 / 3.0) * d - delta * (a - 0.2 * delta))
            out[start : start + rows] = np.sum(delta * (u0 + u1 * mean_t + u2 * mean_t2), axis=1)
        return out

    def value_at_x3(self, x3):
        return self._evaluate(self._values, x3)

    def slope_at_x3(self, x3):
        """dQhat/dx3, the exact piecewise-quadratic derivative of the interpolant."""
        return self._evaluate(self._slopes, x3)
