"""Axially symmetric external fields on the unit sphere.

A field is a map Q(phi) = Qhat(x3) with x3 = cos(phi), evaluated through
`value_at_x3` and its derivative dQhat/dx3 through `slope_at_x3` (both
vectorized over x3).
Fields suitable for a south-cap support are nondecreasing and convex in x3.
The closed-form fields are so by construction, since their constructors
refuse every other parameter; a table is checked exactly on the pieces of
its interpolant (`TabulatedField.require_south_cap`).
"""

from __future__ import annotations

import abc
import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np


class ExternalField(abc.ABC):
    """Rotationally invariant external field Q on the sphere."""

    @abc.abstractmethod
    def value_at_x3(self, x3):
        """Qhat at x3 in [-1, 1]; accepts scalars or arrays."""

    @abc.abstractmethod
    def slope_at_x3(self, x3):
        """dQhat/dx3 at x3 in [-1, 1]; accepts scalars or arrays."""


class ZeroField(ExternalField):
    def value_at_x3(self, x3):
        return np.zeros_like(np.asarray(x3, dtype=float))

    def slope_at_x3(self, x3):
        return np.zeros_like(np.asarray(x3, dtype=float))

    def __repr__(self) -> str:
        return "ZeroField()"


@dataclass(frozen=True)
class PointChargeField(ExternalField):
    """Coulomb field of a positive charge q on the polar axis at height h.

    Q(x3) = q / sqrt(1 + h^2 - 2 h x3).  For h > 1 the charge sits above the
    sphere, for h < 1 inside it; h = 1 puts it on the sphere, where Q blows
    up at the north pole.
    """

    q: float
    h: float

    def __post_init__(self) -> None:
        if not (self.q > 0.0 and math.isfinite(self.q)):
            raise ValueError(f"charge must be positive, got q={self.q!r}")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"charge height must be positive, got h={self.h!r}")

    def value_at_x3(self, x3):
        x = np.asarray(x3, dtype=float)
        d2 = 1.0 + self.h * self.h - 2.0 * self.h * x
        with np.errstate(divide="ignore"):
            out = self.q / np.sqrt(d2)
        if x.ndim == 0:
            return float(out)
        return out

    def slope_at_x3(self, x3):
        x = np.asarray(x3, dtype=float)
        d2 = 1.0 + self.h * self.h - 2.0 * self.h * x
        with np.errstate(divide="ignore"):
            out = self.q * self.h / (d2 * np.sqrt(d2))
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
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("abscissae must be strictly increasing")
        if np.min(y) < 0.0:
            warnings.warn(
                "tabulated field takes negative values; equilibrium results "
                "assume Q bounded below but the usual hypotheses want Q >= 0",
                UserWarning,
                stacklevel=2,
            )
        from scipy.interpolate import PchipInterpolator

        x.flags.writeable = False
        self._x = x
        self._y = y
        self._interp = PchipInterpolator(x, y, extrapolate=False)
        self._slope = self._interp.derivative()

    @classmethod
    def from_csv(cls, path) -> "TabulatedField":
        """Read two-column (x3, Q) CSV data; a non-numeric header row is skipped."""
        xs: list[float] = []
        ys: list[float] = []
        with open(path, newline="") as fh:
            for i, row in enumerate(csv.reader(fh)):
                if not row:
                    continue
                try:
                    x, y = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    if i == 0:
                        continue  # header line
                    raise ValueError(f"malformed CSV row {i + 1}: {row!r}") from None
                xs.append(x)
                ys.append(y)
        return cls(np.asarray(xs), np.asarray(ys))

    @property
    def knots(self) -> np.ndarray:
        """The sample abscissae: the interpolant is one cubic between neighbours."""
        return self._x

    @property
    def slope_coefficients(self) -> np.ndarray:
        """(3, knots - 1) rows u2, u1, u0: on [x_k, x_k+1] the slope is
        u2*t^2 + u1*t + u0 with t = x3 - x_k, column k."""
        coeffs = self._slope.c.view()
        coeffs.flags.writeable = False
        return coeffs

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
        u2, u1, _ = self.slope_coefficients
        curvature = np.minimum(u1, u1 + 2.0 * u2 * np.diff(x))
        bad = np.flatnonzero(~(curvature >= -1e-8 * scale))
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"tabulated field is not convex in x3: Q'' = {float(curvature[k])} "
                f"on the piece [{float(x[k])}, {float(x[k + 1])}]"
            )

    def _evaluate(self, pieces, x3):
        x = np.asarray(x3, dtype=float)
        if np.any(x < self._x[0]) or np.any(x > self._x[-1]):
            raise ValueError(
                f"x3 outside tabulated range [{self._x[0]!r}, {self._x[-1]!r}]"
            )
        out = pieces(x)
        if x.ndim == 0:
            return float(out)
        return out

    def value_at_x3(self, x3):
        return self._evaluate(self._interp, x3)

    def slope_at_x3(self, x3):
        """dQhat/dx3, the exact piecewise-quadratic derivative of the interpolant."""
        return self._evaluate(self._slope, x3)
