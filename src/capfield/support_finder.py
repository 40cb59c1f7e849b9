"""Support determination: cap rim angles, F-functional values, critical heights.

For an admissible axially symmetric field the equilibrium support is a
south-centered cap whose rim angle alpha solves the rim equation
F_Q(alpha) = p(cos(alpha)): the F-functional of the cap equals the smooth
factor p of the first Abel stage at the rim, where the density's edge
coefficient vanishes.  When the rim equation has no root in (0, pi) the
support is the whole sphere.

`solve_support(field)` and `ffunctional(field, alpha)` pick the method
from the field's type.  The point charge and the quadratic field have F_Q
and p in closed form, and the zero field's support is the whole sphere.
For any other field F_Q is one sum over a fixed Gauss rule in the rim
variable s = sqrt(cos(alpha) - x3), whose panels break at the knots of a
tabulated field, so the table's cubic pieces are integrated exactly, and p
comes from `singular_quadrature._first_stage_integral`
(`solve_support_numeric`).  Every rim equation is solved by one bracketed
Brent root (`_rim_root`).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._numerics import NonconvergenceError, brent_root, gauss_legendre
from .fields import (
    ExternalField,
    PointChargeField,
    QuadraticField,
    TabulatedField,
    ZeroField,
)
from .geometry import _validated_angle, capacity_south_cap

PI = math.pi


class SupportMethod(enum.Enum):
    TRANSCENDENTAL_ROOT = "TranscendentalRoot"
    FULL_SPHERE = "FullSphere"


@dataclass(frozen=True)
class SupportSolution:
    """Support rim angle with the Robin constant of the resulting problem.

    residual is the value of the solved rim equation at alpha0, or at the
    left end of its bracket for a full sphere; iterations counts root
    finder steps.  alpha0 == 0 exactly when method is FULL_SPHERE.
    """

    alpha0: float
    robin_constant: float
    method: SupportMethod
    residual: float
    iterations: int


@dataclass(frozen=True)
class GoncharHeights:
    """Critical charge heights for unit-charge support transitions.

    A charge q at height h > 1 outside the sphere leaves a proper cap
    support exactly when h < h_plus; a charge inside (h < 1) does so
    exactly when h > h_minus.
    """

    q: float
    h_plus: float
    h_minus: float


def gonchar_heights(q: float) -> GoncharHeights:
    """Critical heights for the point charge of strength q."""
    if not (q > 0.0 and math.isfinite(q)):
        raise ValueError(f"charge must be positive, got q={q!r}")

    # outside: h_plus is the unique root in (1, inf) of
    # h^3 - 2h^2 + (1 - 3q)h + q
    def cubic(h: float) -> float:
        return ((h - 2.0) * h + (1.0 - 3.0 * q)) * h + q

    hi = 3.0 + 3.0 * q
    while cubic(hi) <= 0.0:
        hi *= 2.0
    h_plus, _ = brent_root(cubic, 1.0, hi, xtol=1e-15, rtol=8.9e-16)

    # inside: smaller root of (1+q)h^2 - (2+3q)h + 1, which lies in (0, 1)
    disc = math.sqrt(q * (9.0 * q + 8.0))
    h_minus = ((2.0 + 3.0 * q) - disc) / (2.0 * (1.0 + q))

    return GoncharHeights(q=q, h_plus=h_plus, h_minus=float(h_minus))


def _rim_angle(alpha: float) -> float:
    a = _validated_angle(alpha, name="rim angle")
    if a >= PI:
        raise ValueError("rim angle must be below pi")
    return a


def _surface_factor(alpha: float) -> float:
    # pi over the cap capacity normalizer
    return PI / (PI - alpha + math.sin(alpha))


def ffunctional_pointcharge(q: float, h: float, alpha: float) -> float:
    """F-functional of the south cap with rim alpha under a point charge.

    Valid for any h > 0 including h = 1 as long as alpha > 0; at alpha = 0
    the h = 1 value is the two-sided limit.
    """
    if not (q > 0.0 and h > 0.0):
        raise ValueError("need q > 0 and h > 0")
    a = _rim_angle(alpha)
    if a == 0.0:
        if h > 1.0:
            return 1.0 + q / h
        return 1.0 + q
    t = math.atan((1.0 / math.tan(0.5 * a)) * (h - 1.0) / (h + 1.0))
    inner = (
        1.0
        + q * (h + 1.0) / (2.0 * h) * (1.0 - a / PI)
        - q * (h - 1.0) / (PI * h) * t
    )
    return _surface_factor(a) * inner


def ffunctional_quadratic(a: float, b: float, c: float, alpha: float) -> float:
    """F-functional of the south cap with rim alpha under the quadratic field."""
    QuadraticField(a, b, c)  # coefficient admissibility
    al = _rim_angle(alpha)
    ca = math.cos(al)
    bracket = (
        math.tan(0.5 * al)
        * (
            32.0 * a * ca**3
            + 4.0 * (2.0 * a + 9.0 * b) * ca**2
            + 4.0 * (9.0 * c - 5.0 * a) * ca
            + 4.0 * a
            - 36.0 * b
            + 36.0 * c
        )
        + 12.0 * (a + 3.0 * c) * (PI - al)
        + 36.0 * PI
    )
    return bracket / (36.0 * (PI - al + math.sin(al)))


# the Gauss rule in the rim variable s = sqrt(cos(alpha) - x3): uniform
# panels on [0, sqrt(1 + cos(alpha))], an edge at every table knot, and
# panels graded by doubling from s = sqrt(1 - cos(alpha)) when that scale,
# on which the edge weight turns over, is finer than one uniform panel
_RULE_PANELS = 16
_RULE_POINTS = 8


def _rim_rule(field: ExternalField, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Abscissae x3 = cos(alpha) - s^2, weights and edge weights of the rule.

    Between two neighbouring knots a tabulated field is one cubic in x3,
    so a polynomial of degree 6 in s, and each panel's Gauss-Legendre
    nodes integrate it, and its quadratic slope, exactly.  The edge weight
    is kappa(s) = 2s + (4/pi)(sqrt(r1) - s*atan(sqrt(r1)/s)), r1 =
    1 - cos(alpha): the plain measure dx3 = 2s ds plus the edge factor of
    the cap's equilibrium density.
    """
    ca = math.cos(alpha)
    smax = math.sqrt(2.0) * math.cos(0.5 * alpha)
    sq_r1 = math.sqrt(2.0) * math.sin(0.5 * alpha)
    width = smax / _RULE_PANELS
    edges = [np.linspace(0.0, smax, _RULE_PANELS + 1)]
    if 0.0 < sq_r1 < width:
        edges.append(sq_r1 * 2.0 ** np.arange(math.ceil(math.log2(width / sq_r1))))
    if isinstance(field, TabulatedField):
        knots = field.knots
        edges.append(np.sqrt(ca - knots[(knots > -1.0) & (knots < ca)]))
    edges = np.unique(np.concatenate(edges))
    x, w = gauss_legendre(_RULE_POINTS)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    s = (mid + half * x).ravel()
    weights = (half * w).ravel()
    kappa = 2.0 * s + (4.0 / PI) * (sq_r1 - s * np.arctan2(sq_r1, s))
    return np.clip(ca - s * s, -1.0, 1.0), weights, kappa


def _ffunctional_on_rule(alpha: float, weights: np.ndarray, kappa: np.ndarray,
                         q: np.ndarray) -> float:
    # the field mass and the two edge-weighted field integrals of the
    # F-functional, in one sum over the rule.  A plain sum, not a BLAS dot:
    # on a multi-threaded BLAS a dot of this length can cost milliseconds
    return 0.5 * _surface_factor(alpha) * (2.0 + float(np.sum(weights * kappa * q)))


def ffunctional_numeric(field: ExternalField, alpha: float) -> float:
    """F-functional of the south cap with rim alpha by a fixed Gauss rule.

    The field mass over the cap and the two edge-weighted field integrals
    are taken together in the variable s = sqrt(cos(alpha) - cos(phi)),
    which absorbs the rim singularity of the weight, on the panels of
    `_rim_rule`: one vectorized field evaluation per call.
    """
    a = _rim_angle(alpha)
    x3, weights, kappa = _rim_rule(field, a)
    q = np.asarray(field.value_at_x3(x3), dtype=float)
    return _ffunctional_on_rule(a, weights, kappa, q)


def ffunctional(field: ExternalField, alpha: float) -> tuple[float, str]:
    """F-functional of the south cap with rim alpha, and how it was taken.

    Returns (value, "ClosedForm") for the zero field (1/capacity), the
    point charge and the quadratic field, and (value, "Numeric") from the
    Gauss rule of `ffunctional_numeric` for any other field.
    """
    if isinstance(field, ZeroField):
        return 1.0 / capacity_south_cap(alpha), "ClosedForm"
    if isinstance(field, PointChargeField):
        return ffunctional_pointcharge(field.q, field.h, alpha), "ClosedForm"
    if isinstance(field, QuadraticField):
        return ffunctional_quadratic(field.a, field.b, field.c, alpha), "ClosedForm"
    return ffunctional_numeric(field, alpha), "Numeric"


def _rim_root(residual, robin_at, lo: float, hi: float) -> SupportSolution:
    """Root of a support equation on [lo, hi], or a full-sphere verdict.

    Every support equation here is negative at 0+ exactly when a proper
    cap exists and grows toward pi, so the two ends of the bracket decide:
    a residual >= 0 at lo means the whole sphere, one that is not > 0 at
    hi raises NonconvergenceError, and otherwise Brent's method runs on
    [lo, hi].  robin_at(alpha) is the Robin constant of the cap with rim
    alpha.
    """
    at_lo = float(residual(lo))
    if at_lo >= 0.0:
        return SupportSolution(
            alpha0=0.0,
            robin_constant=robin_at(0.0),
            method=SupportMethod.FULL_SPHERE,
            residual=at_lo,
            iterations=0,
        )
    at_hi = float(residual(hi))
    if not at_hi > 0.0:
        raise NonconvergenceError(
            f"rim equation keeps its sign on [{lo!r}, {hi!r}]", at_hi, hi - lo
        )
    root, iterations = brent_root(residual, lo, hi, xtol=1e-14, rtol=8.9e-16)
    return SupportSolution(
        alpha0=root,
        robin_constant=robin_at(root),
        method=SupportMethod.TRANSCENDENTAL_ROOT,
        residual=float(residual(root)),
        iterations=iterations,
    )


def solve_support(field: ExternalField) -> SupportSolution:
    """Support rim angle of the field, by the method its type allows.

    The point charge (the on-sphere equation at h = 1) and the quadratic
    field solve their closed-form rim equations, the zero field's support
    is the whole sphere with Robin constant 1, and any other field solves
    the rim equation numerically.
    """
    if isinstance(field, PointChargeField):
        return solve_support_pointcharge(field.q, field.h)
    if isinstance(field, QuadraticField):
        return solve_support_quadratic(field.a, field.b, field.c)
    if isinstance(field, ZeroField):
        # F_Q(0) - p(1) = 1/capacity(0) - 0
        return SupportSolution(
            alpha0=0.0, robin_constant=1.0, method=SupportMethod.FULL_SPHERE,
            residual=1.0, iterations=0,
        )
    return solve_support_numeric(field)


def solve_support_pointcharge(q: float, h: float) -> SupportSolution:
    """Support rim angle for a point charge q at height h on the axis.

    Solves the rim equation with the closed-form
    p(x) = q*(h+1)/(1 + h^2 - 2*h*x).  h = 1 is delegated to the on-sphere solver, whose equation
    is the two-sided limit of this one.
    """
    if not (q > 0.0 and h > 0.0):
        raise ValueError("need q > 0 and h > 0")
    if h == 1.0:
        return solve_support_northpole(q)

    def residual(a: float) -> float:
        rim_field = q * (h + 1.0) / (h * h + 1.0 - 2.0 * h * math.cos(a))
        return ffunctional_pointcharge(q, h, a) - rim_field

    return _rim_root(residual, lambda a: ffunctional_pointcharge(q, h, a), 1e-7, PI - 1e-6)


def _robin_northpole(q: float, a: float) -> float:
    return (PI + q * (PI - a)) / (math.sin(a) + PI - a)


def solve_support_northpole(q: float) -> SupportSolution:
    """Support rim angle for a charge q sitting at the north pole.

    The rim condition, multiplied through by cos(alpha), is
    pi*(1 - cos a) - q*(pi - a)*cos a - q*sin a = 0, which is negative at 0
    and positive at pi for every q > 0, so a root always exists: the
    support is never the whole sphere.
    """
    if not (q > 0.0 and math.isfinite(q)):
        raise ValueError(f"charge must be positive, got q={q!r}")

    def residual(a: float) -> float:
        return PI * (1.0 - math.cos(a)) - q * (PI - a) * math.cos(a) - q * math.sin(a)

    return _rim_root(residual, lambda a: _robin_northpole(q, a), 1e-12, PI)


def solve_support_quadratic(a: float, b: float, c: float) -> SupportSolution:
    """Support rim angle for the quadratic field a*x3^2 + b*x3 + c.

    The rim equation F_Q(alpha) = p(cos(alpha)) with the closed-form
    p(x) = Q(-1) + 2*(1+x)*(2*a*x + b - 2*a*(1+x)/3).
    """
    QuadraticField(a, b, c)

    def residual(al: float) -> float:
        x = math.cos(al)
        p = (a - b + c) + 2.0 * (1.0 + x) * (2.0 * a * x + b - 2.0 * a * (1.0 + x) / 3.0)
        return ffunctional_quadratic(a, b, c, al) - p

    return _rim_root(residual, lambda al: ffunctional_quadratic(a, b, c, al), 1e-7, PI - 1e-6)


def _rim_terms(field: ExternalField, alpha: float) -> tuple[float, float]:
    """F_Q(alpha) on `_rim_rule`, and the rim residual F_Q(alpha) - p(cos(alpha)).

    p is the smooth factor of the first Abel stage, from
    `_first_stage_integral`, imported here so that the closed-form
    supports start without the Abel stages.
    """
    from .singular_quadrature import _first_stage_integral

    x3, weights, kappa = _rim_rule(field, alpha)
    fq = _ffunctional_on_rule(alpha, weights, kappa, field.value_at_x3(x3))
    p = float(_first_stage_integral(field, np.array([math.cos(alpha)]))[0])
    return fq, fq - p


def solve_support_numeric(field: ExternalField) -> SupportSolution:
    """Support rim angle for any field, from the rim equation.

    The residual F_Q - p of `_rim_terms` is negative at 0+ exactly when a
    proper cap exists and grows without bound toward pi, so one bracket
    holds the root (`_rim_root`).
    """
    terms = functools.cache(lambda alpha: _rim_terms(field, alpha))
    return _rim_root(lambda a: terms(a)[1], lambda a: terms(a)[0], 1e-7, PI - 1e-6)
