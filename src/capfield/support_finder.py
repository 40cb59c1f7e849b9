"""Support determination: cap rim angles, F-functional values, critical heights.

For an admissible axially symmetric field the equilibrium support is a
south-centered cap whose rim angle alpha solves the rim equation
F_Q(alpha) = p(cos(alpha)): the F-functional of the cap equals the smooth
factor p of the first Abel stage at the rim, where the density's edge
coefficient vanishes.  When the rim equation has no root in (0, pi) the
support is the whole sphere.

Every field has one rim equation, and `_rim_equation` gives its two sides
from the field's type.  The zero field, the point charge (at any height,
h = 1 included) and the quadratic field have F_Q and p in closed form.
For any other field F_Q is one sum over a fixed Gauss rule in the rim
variable s = sqrt(cos(alpha) - x3), whose panels break at the knots of a
tabulated field, so the table's cubic pieces are integrated exactly, and p
comes from `singular_quadrature._first_stage_integral`.
`ffunctional(field, alpha)` returns the F_Q side, and `solve_support(field)`
finds the root by one bracketed Brent root on [1e-12, pi - 1e-6]
(`_rim_root`).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from ._numerics import NonconvergenceError, brent_root, gauss_legendre, np
from .fields import (
    ExternalField,
    PointChargeField,
    QuadraticField,
    TabulatedField,
    ZeroField,
)
from .geometry import SphericalCap, capacity_south_cap

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


# the largest charge whose heights are computed: both are normal floats
# and no intermediate overflows up to here
_MAX_GONCHAR_CHARGE = 1e300


def gonchar_heights(q: float) -> GoncharHeights:
    """Critical heights for the point charge of strength q, 0 < q <= 1e300."""
    if not q > 0.0:
        raise ValueError(f"charge must be positive, got q={q!r}")
    if not q <= _MAX_GONCHAR_CHARGE:
        raise ValueError(f"charge must be at most {_MAX_GONCHAR_CHARGE:g}, got q={q!r}")

    # outside: h_plus is the root in (1, inf) of h^3 - 2h^2 + (1 - 3q)h + q,
    # which is u^2 (1 + u) - q (2 + 3u) in u = h - 1.  u^2 - q (2 + 3u)/(1 + u)
    # is -2q at 0 and above q at 2 sqrt(q); the ratio is taken before the
    # product, so that nothing overflows
    def excess(u: float) -> float:
        return u * u - q * ((2.0 + 3.0 * u) / (1.0 + u))

    u, _ = brent_root(excess, 0.0, 2.0 * math.sqrt(q), xtol=1e-300, rtol=8.9e-16)
    # one Newton step takes u from the root finder's tolerance to the
    # rounding of excess; u > 0, where the slope is positive
    u -= excess(u) / (2.0 * u - q / (1.0 + u) ** 2)

    # inside: smaller root of (1+q)h^2 - (2+3q)h + 1, which lies in (0, 1),
    # as 2 over the sum of the larger root's terms, free of cancellation
    h_minus = 2.0 / ((2.0 + 3.0 * q) + math.sqrt(q) * math.sqrt(9.0 * q + 8.0))

    return GoncharHeights(q=q, h_plus=1.0 + u, h_minus=h_minus)


def ffunctional_pointcharge(q: float, h: float, alpha: float) -> float:
    """F-functional of the south cap with rim alpha under a point charge.

    Valid for any h > 0 including h = 1 as long as alpha > 0; at alpha = 0
    the h = 1 value is the two-sided limit.
    """
    if not (q > 0.0 and h > 0.0):
        raise ValueError("need q > 0 and h > 0")
    cap = SphericalCap(alpha)
    a = cap.alpha
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
    return PI / cap.normalizer * inner


def ffunctional_quadratic(a: float, b: float, c: float, alpha: float) -> float:
    """F-functional of the south cap with rim alpha under the quadratic field."""
    QuadraticField(a, b, c)  # coefficient admissibility
    cap = SphericalCap(alpha)
    al = cap.alpha
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
    return bracket / (36.0 * cap.normalizer)


# the Gauss rule in the rim variable s = sqrt(cos(alpha) - x3): uniform
# panels on [0, sqrt(1 + cos(alpha))], an edge at every table knot, and
# panels graded by doubling from s = sqrt(1 - cos(alpha)) when that scale,
# on which the edge weight turns over, is finer than one uniform panel
_RULE_PANELS = 16
_RULE_POINTS = 8


def _rim_rule(
    field: ExternalField, cap: SphericalCap
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Abscissae x3 = cos(alpha) - s^2, weights and edge weights of the rule.

    Between two neighbouring knots a tabulated field is one cubic in x3,
    so a polynomial of degree 6 in s, and each panel's Gauss-Legendre
    nodes integrate it, and its quadratic slope, exactly.  The edge weight
    is kappa(s) = 2s + (4/pi)(sqrt(r1) - s*atan(sqrt(r1)/s)), r1 the
    cap's `r1`: the plain measure dx3 = 2s ds plus the edge factor of
    the cap's equilibrium density.
    """
    ca = math.cos(cap.alpha)
    smax = cap.smax
    sq_r1 = cap.sqrt_r1
    width = smax / _RULE_PANELS
    edges = [np.linspace(0.0, smax, _RULE_PANELS + 1)]
    if 0.0 < sq_r1 < width:
        edges.append(sq_r1 * 2.0 ** np.arange(math.ceil(math.log2(width / sq_r1))))
    if isinstance(field, TabulatedField):
        knots = field.knots
        edges.append(np.sqrt(ca - knots[(knots > -1.0) & (knots < ca)]))
    # sorted without repeats, as np.unique gives them; the rule's
    # point-sized temporaries are reused in place, which keeps every bit
    edges = np.sort(np.concatenate(edges))
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    x, w = gauss_legendre(_RULE_POINTS)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    s = np.multiply.outer(half, x)
    s += mid[:, None]
    s = s.ravel()
    weights = np.multiply.outer(half, w).ravel()
    kappa = np.arctan2(sq_r1, s)
    kappa *= s
    np.subtract(sq_r1, kappa, out=kappa)
    kappa *= 4.0 / PI
    kappa += 2.0 * s
    # s <= smax = sqrt(1 + cos(alpha)), so only x3 >= -1 can bind
    x3 = s * s
    np.subtract(ca, x3, out=x3)
    np.maximum(x3, -1.0, out=x3)
    return x3, weights, kappa


def ffunctional_numeric(field: ExternalField, alpha: float) -> float:
    """F-functional of the south cap with rim alpha by a fixed Gauss rule.

    The field mass over the cap and the two edge-weighted field integrals
    are taken together in the variable s = sqrt(cos(alpha) - cos(phi)),
    which absorbs the rim singularity of the weight, on the panels of
    `_rim_rule`: one vectorized field evaluation per call.
    """
    cap = SphericalCap(alpha)
    x3, weights, kappa = _rim_rule(field, cap)
    q = np.asarray(field.value_at_x3(x3), dtype=float)
    # a plain sum, not a BLAS dot: on a multi-threaded BLAS a dot of this
    # length can cost milliseconds
    return 0.5 * PI / cap.normalizer * (2.0 + float(np.sum(weights * kappa * q)))


def _rim_equation(field: ExternalField):
    """(F_Q(alpha), p(cos(alpha)), method): the two sides of the field's rim equation.

    The zero field, the point charge and the quadratic field have both
    sides in closed form.  The point charge's p = q*(h+1)/|x - h*e3|^2 at
    the rim is written with the distance (h-1)^2 + 2h*r1, with the cap's
    r1 = 2*sin^2(alpha/2), exact at h = 1 and free of cancellation at small
    rims.  Any other field takes F_Q from the Gauss rule of
    `ffunctional_numeric` and p from `_first_stage_integral`, imported
    here so that the closed-form supports start without the Abel stages.
    """
    if isinstance(field, ZeroField):
        return (lambda a: 1.0 / capacity_south_cap(a)), (lambda a: 0.0), "ClosedForm"
    if isinstance(field, PointChargeField):
        q, h = field.q, field.h

        def rim_field(a: float) -> float:
            distance = (h - 1.0) ** 2 + 2.0 * h * SphericalCap(a).r1
            # zero only for a charge on the sphere, at the pole
            return q * (h + 1.0) / distance if distance > 0.0 else math.inf

        return (lambda a: ffunctional_pointcharge(q, h, a)), rim_field, "ClosedForm"
    if isinstance(field, QuadraticField):
        qa, qb, qc = field.a, field.b, field.c

        def smooth_factor(a: float) -> float:
            x = math.cos(a)
            slope = 2.0 * qa * x + qb - 2.0 * qa * (1.0 + x) / 3.0
            return (qa - qb + qc) + 2.0 * (1.0 + x) * slope

        return (lambda a: ffunctional_quadratic(qa, qb, qc, a)), smooth_factor, "ClosedForm"
    from .singular_quadrature import _first_stage_integral

    def first_stage(a: float) -> float:
        return float(_first_stage_integral(field, np.array([math.cos(a)]))[0])

    return (lambda a: ffunctional_numeric(field, a)), first_stage, "Numeric"


def ffunctional(field: ExternalField, alpha: float) -> tuple[float, str]:
    """F-functional of the south cap with rim alpha, and "ClosedForm" or "Numeric"."""
    fq, _, method = _rim_equation(field)
    return fq(alpha), method


def _rim_root(terms, lo: float, hi: float) -> SupportSolution:
    """Root of the rim equation on [lo, hi], or a full-sphere verdict.

    terms(alpha) is (F_Q(alpha), F_Q(alpha) - p(cos(alpha))): the Robin
    constant of the cap with rim alpha and the residual.  The residual is
    negative at 0+ exactly when a proper cap exists and grows toward pi,
    so the two ends of the bracket decide: a residual >= 0 at lo means the
    whole sphere, unless the residual at 0 is negative, which puts the rim
    below the bracket and raises ValueError (a weak charge on the sphere,
    whose p is infinite at the pole); one that is not > 0 at hi raises
    NonconvergenceError, and otherwise Brent's method runs on [lo, hi].
    """
    at_lo = float(terms(lo)[1])
    if at_lo >= 0.0:
        robin, at_zero = terms(0.0)
        if at_zero < 0.0:
            raise ValueError(f"the rim lies below the bracket [{lo!r}, {hi!r}]")
        return SupportSolution(alpha0=0.0, robin_constant=robin,
                               method=SupportMethod.FULL_SPHERE, residual=at_lo, iterations=0)
    at_hi = float(terms(hi)[1])
    if not at_hi > 0.0:
        raise NonconvergenceError(
            f"rim equation keeps its sign on [{lo!r}, {hi!r}]", at_hi, hi - lo
        )
    root, iterations = brent_root(lambda a: terms(a)[1], lo, hi, xtol=1e-14, rtol=8.9e-16)
    robin, residual = terms(root)
    return SupportSolution(alpha0=root, robin_constant=robin, residual=float(residual),
                           method=SupportMethod.TRANSCENDENTAL_ROOT, iterations=iterations)


def solve_support(field: ExternalField) -> SupportSolution:
    """Support rim angle of the field: the root of F_Q(alpha) = p(cos(alpha)).

    One bracket [1e-12, pi - 1e-6] serves every field (`_rim_root`).  F_Q
    and p are taken together once per alpha, so the root finder, the
    residual at the root and the Robin constant share each evaluation.
    """
    fq, p, _ = _rim_equation(field)

    @functools.cache
    def terms(alpha: float) -> tuple[float, float]:
        value = fq(alpha)
        return value, value - p(alpha)

    return _rim_root(terms, 1e-12, PI - 1e-6)
