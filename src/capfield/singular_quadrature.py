"""The two Abel-type stages that turn an external field into an equilibrium
density, on a south cap with rim angle alpha.

Each stage is a half-integral against an inverse-square-root kernel
1/sqrt(|cos(e) - cos(t)|) followed by a derivative.  A substitution
quadratic in the distance in cos from the singular endpoint e removes the
singularity exactly and leaves a smooth integral, evaluated on whole
arrays of points.  Derivatives are taken under the integral, never by
differencing singular integrals.

The first stage depends on the field and on c = cos(t) only.  Integrated
by parts, its smooth factor p(c) = Q(-1) + 2*sqrt(1+c) * (integral of
Q'(c - s^2) over s in [0, sqrt(1+c)]) needs the field's slope and no
derivative of its own (`_first_stage_integral`): fixed Gauss-Legendre
nodes for an analytic field, and for a tabulated field, whose slope is
one quadratic between knots, the table's own exact sums over its pieces
(`fields.TabulatedField.slope_integral`).  p is built
once per density as a Chebyshev table on [-1, cos(alpha)], with the
degree doubled until the coefficient tail settles (see
`first_stage_table`).  The second stage differentiates under the integral
as well: its integrand p - 2*(1-c)*p' is one Chebyshev series, built once
per table from the table's own coefficients, so each second-stage point
costs one series evaluation.  Both series are summed by `_numerics.clenshaw`,
the recurrence that sums the profiles' sigma series as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebmulx

from ._numerics import _tail, chebyshev_table, clenshaw, gauss_legendre
from .fields import ExternalField, TabulatedField
from .geometry import SphericalCap, _validated_angle

PI = math.pi

# Gauss-Legendre sizes for the two smooth integrals of analytic fields
_N_FIRST_STAGE = 96
_N_SECOND_STAGE = 96

# row block size for the second-stage integral, whose point count follows
# the grid; bounds peak memory at a few MB
_CHUNK = 8192


def _first_stage_integral(field: ExternalField, c: np.ndarray) -> np.ndarray:
    """The first stage's smooth factor p(c), at each point c once.

    p(c) = Q(-1) + 2*sqrt(1+c) * (integral over s in [0, sqrt(1+c)] of
    Q'(c - s^2)): sqrt(1+c) times the c-derivative of the field's
    half-integral 2 * (integral over the same s of Q(c - s^2)), taken
    under the integral.  With s = sqrt(1+c)*v an analytic field takes 96
    Gauss-Legendre nodes in v; a tabulated field sums its pieces exactly
    (`fields.TabulatedField.slope_integral`).
    """
    c = np.asarray(c, dtype=float)
    q_south = float(field.value_at_x3(-1.0))
    if isinstance(field, TabulatedField):
        return q_south + 2.0 * np.sqrt(1.0 + c) * field.slope_integral(c)
    v, w = gauss_legendre(_N_FIRST_STAGE)
    vv = 0.5 * (v + 1.0)
    args = c[:, None] * (1.0 - vv * vv)[None, :] - (vv * vv)[None, :]
    np.clip(args, -1.0, 1.0, out=args)
    slope = np.asarray(field.slope_at_x3(args.ravel()), dtype=float).reshape(args.shape)
    return q_south + 2.0 * ((1.0 + c) * (slope @ (0.5 * w)))


@dataclass(frozen=True, eq=False)
class FirstStageTable:
    """First Abel stage of a south cap, held as its smooth factor p(c).

    The stage is g(c) = -sqrt(1-c) * p(c) / (4*pi) with c = cos(t); p is a
    Chebyshev series on [-1, c_max], c_max the cosine of the rim angle.
    Calling the table evaluates p.  The second stage integrates
    p - 2*(1-c)*p', which the table keeps as one more series of the same
    degree, built once from its own coefficients.  tail is the relative
    size of the last coefficients, an estimate of the table's relative
    accuracy; integrand_noise is (relative tail, degree) of that second
    series, the resolution of anything the second stage computes.
    """

    coeffs: np.ndarray
    c_max: float
    tail: float
    _fused: np.ndarray = dataclass_field(init=False, repr=False)
    integrand_noise: tuple[float, int] = dataclass_field(init=False, repr=False)

    def __post_init__(self) -> None:
        # in the table variable x, 1 - c = ((3 - c_max) - (1 + c_max)*x)/2
        # and dp/dc = 2/(1 + c_max) * dp/dx, so 2*(1-c)*p' is
        # 2*(3 - c_max)/(1 + c_max) * dp/dx - 2*x*dp/dx.  chebmulx drops
        # trailing zero coefficients, so each term fills only its own length
        d = chebder(self.coeffs)
        xd = chebmulx(d)
        fused = np.array(self.coeffs, dtype=float)
        fused[: d.size] -= (2.0 * (3.0 - self.c_max) / (1.0 + self.c_max)) * d
        fused[: xd.size] += 2.0 * xd
        object.__setattr__(self, "_fused", fused)
        object.__setattr__(self, "integrand_noise", (_tail(fused), fused.size - 1))

    def _x(self, c: np.ndarray) -> np.ndarray:
        return (2.0 * np.asarray(c, dtype=float) + 1.0 - self.c_max) / (1.0 + self.c_max)

    def __call__(self, c: np.ndarray) -> np.ndarray:
        return clenshaw(self._x(c), self.coeffs)

    def _integrand(self, c: np.ndarray) -> np.ndarray:
        """The second-stage integrand p(c) - 2*(1-c)*p'(c)."""
        return clenshaw(self._x(c), self._fused)


def first_stage_table(field: ExternalField, alpha: float) -> FirstStageTable:
    """Tabulate the first Abel stage on the south cap with rim angle alpha.

    On a south cap g is the derivative of the half-line integral of Q taken
    from t to pi against the inverse-square-root kernel.  With dc/dt =
    -sin(t) every sqrt(1+c) factor cancels against sin(t), which leaves
    the smooth factor p of `_first_stage_integral`, sampled once per
    table point.  The table's degree adapts as `chebyshev_table` sets
    out; raises NonconvergenceError when the coefficients have not
    settled by the cap degree.
    """
    a = _validated_angle(alpha, name="rim angle")
    c_max = math.cos(a)
    if not c_max > -1.0:
        raise ValueError("rim angle leaves no cap to tabulate")

    def sample(x: np.ndarray) -> np.ndarray:
        # p at the points x of [-1, 1]
        return _first_stage_integral(field, 0.5 * (c_max - 1.0) + 0.5 * (c_max + 1.0) * x)

    coeffs, tail = chebyshev_table(sample, "first-stage table")
    return FirstStageTable(coeffs=coeffs, c_max=c_max, tail=tail)


def _second_stage_integral(
    fn: Callable[[np.ndarray], np.ndarray], m: np.ndarray, cap: SphericalCap
) -> np.ndarray:
    """Integral over tau in [0, tau_max] of fn(1 - (r1 + m) * cos(tau)^2).

    m = cos(alpha) - cos(phi) is the depth into the cap, r1 = 1 - cos(alpha)
    the cap's `r1`, and tan(tau_max) = sqrt(m / r1), so c = 1 - (r1 + m) *
    cos(tau)^2 runs from cos(phi) up to cos(alpha).  In the second stage's
    variable y, with c = cos(alpha) - m*(1-y^2), this is y = sqrt((r1 + m)
    / m) * sin(tau) and sqrt(m) * dy = sqrt(1-c) * dtau.  So the
    half-integral of g over [0, m] against 1/sqrt(m - u), 2*sqrt(m) times
    the y-integral of g, is this integral of -(1-c) * p(c) / (2*pi): the
    sqrt(1-c) of g, which turns over on the scale r1 of a small rim, leaves
    the integrand.
    """
    m = np.asarray(m, dtype=float)
    x, w = gauss_legendre(_N_SECOND_STAGE)
    r1 = cap.r1
    out = np.empty(m.shape, dtype=float)
    for start in range(0, m.size, _CHUNK):
        block = m[start : start + _CHUNK]
        tau_max = np.arctan2(np.sqrt(block), cap.sqrt_r1)
        tau = 0.5 * tau_max[:, None] * (x[None, :] + 1.0)
        c = 1.0 - (r1 + block)[:, None] * np.cos(tau) ** 2
        values = np.asarray(fn(c.ravel()), dtype=float).reshape(c.shape)
        out[start : start + _CHUNK] = 0.5 * tau_max * (values @ w)
    return out


def _stage_F_south_vec(p: FirstStageTable, phi: np.ndarray, cap: SphericalCap) -> np.ndarray:
    """Second Abel stage on a south cap, vectorized over phi in (alpha, pi].

    (2/pi) * d/dm of the half-integral 2*sqrt(m)*G(m), differentiated under
    the integral: g(cos(alpha))/sqrt(m) - 2*sqrt(m) * (integral over y of
    dg/dc).  The 1/sin(phi) prefactor of the original phi-derivative
    cancels against dm/dphi = sin(phi).  In the variable tau of
    `_second_stage_integral` the y-integral becomes an integral of
    sqrt(1-c) * dg/dc = (p - 2*(1-c)*p')/(8*pi), which has no 1/sqrt(1-c)
    left: it stays bounded at the pole of a full-sphere support, where c
    reaches 1, and smooth on the scale 1 - cos(alpha) of a small rim.
    """
    phi = np.asarray(phi, dtype=float)
    # rounding in phi can push the pole depth an ulp past its true maximum
    m = np.minimum(cap.depth(phi), cap.pole_depth)
    rim = cap.sqrt_r1 * float(p(math.cos(cap.alpha)))
    inner = _second_stage_integral(p._integrand, m, cap)
    return -(rim / np.sqrt(m) + inner) / (2.0 * PI * PI)
