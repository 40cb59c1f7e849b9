"""Single-layer potentials of cap densities and equilibrium verification.

The azimuthal average of the Newtonian kernel between two rings of polar
angles phi and xi reduces to a complete elliptic integral; potentials are
then one-dimensional integrals over the cap, singular on the diagonal.
Everything here integrates in the rim variable s = sqrt(|cos(alpha) -
cos(phi)|), where the density is smooth and the kernel's diagonal is a plain
logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ._numerics import gauss_legendre
from .equilibrium import (
    DensityProfile,
    _edge_coordinate_maps,
    sigma_interpolant,
)
from .fields import ExternalField
from .geometry import (
    Orientation,
    _validated_angle,
    boundary_clustered_grid,
    north_cap,
    south_cap,
)
from .singular_quadrature import NonconvergenceError, _depth

PI = math.pi

# graded mesh toward the kernel diagonal: halving panels, then one
# exponentially substituted panel for the residual log (or inverse-sqrt
# at the poles) singularity
_LEVELS = 12
_HALVING = 2.0 ** (-np.arange(_LEVELS + 1, dtype=float))
_N_OFF_SUPPORT = 64
_AGM_ITERATIONS = 20


def _unit_gl(n: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = gauss_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


_X01, _W01 = _unit_gl(12)

# nodes for int_0^48 e^(-tau) F(delta e^(-tau)) dtau; the slowest case is
# an inverse-sqrt endpoint (decay e^(-tau/2)), truncated at e^(-24)
_t1, _w1 = gauss_legendre(24)
_t2, _w2 = gauss_legendre(16)
_t3, _w3 = gauss_legendre(12)
_TAU = np.concatenate((4.0 * (_t1 + 1.0), 16.0 + 8.0 * _t2, 36.0 + 12.0 * _t3))
_TAU_W = np.concatenate((4.0 * _w1, 8.0 * _w2, 12.0 * _w3)) * np.exp(-_TAU)
_EXP_U = np.exp(-_TAU)


def _agm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    for _ in range(_AGM_ITERATIONS):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return 0.5 * (a + b)


def elliptic_k_agm(k):
    """Complete elliptic integral of the first kind, modulus convention.

    K(k) = int_0^(pi/2) dt / sqrt(1 - k^2 sin^2 t), |k| < 1, via the
    arithmetic-geometric mean.  Vectorized.
    """
    arr = np.asarray(k, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(np.abs(arr) >= 1.0):
        raise ValueError("modulus must satisfy |k| < 1")
    kp = np.sqrt((1.0 - arr) * (1.0 + arr))
    out = PI / (2.0 * _agm(np.ones_like(kp), kp))
    if arr.ndim == 0:
        return float(out)
    return out


def _kernel_parts(one_m_cphi, one_p_cphi, one_m_cxi, one_p_cxi, absdiff):
    """Ring average of 1/distance from precomputed half-angle products.

    Callers supply 1 -+ cos of both angles and |cos(xi) - cos(phi)| in
    cancellation-free form; a^2 - b^2 = 2(cos(xi) - cos(phi)).
    """
    a2 = one_m_cphi * one_p_cxi
    b2 = one_m_cxi * one_p_cphi
    mx = np.sqrt(np.maximum(a2, b2))
    kp = np.minimum(np.sqrt(2.0 * absdiff) / mx, 1.0)
    return 2.0 * PI / (mx * _agm(np.ones_like(kp), kp))


def ring_kernel(phi, xi):
    """Azimuthal integral of the inverse chordal distance between rings.

    Log-divergent on the diagonal, which is rejected.  Scalar in phi;
    xi may be an array.
    """
    p = _validated_angle(phi, name="phi")
    arr = np.asarray(xi, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > PI):
        raise ValueError("xi must lie in [0, pi]")
    if np.any(arr == p):
        raise ValueError("ring kernel is singular on the diagonal phi == xi")
    absdiff = np.abs(2.0 * np.sin(0.5 * (p + arr)) * np.sin(0.5 * (p - arr)))
    out = _kernel_parts(
        2.0 * math.sin(0.5 * p) ** 2,
        2.0 * math.cos(0.5 * p) ** 2,
        2.0 * np.sin(0.5 * arr) ** 2,
        2.0 * np.cos(0.5 * arr) ** 2,
        absdiff,
    )
    if arr.ndim == 0:
        return float(out)
    return out


def _panel_points(bounds: List[Tuple[float, float]]):
    lo = np.array([b[0] for b in bounds])
    span = np.array([b[1] - b[0] for b in bounds])
    pts = lo[:, None] + span[:, None] * _X01[None, :]
    wts = span[:, None] * _W01[None, :]
    return pts.ravel(), wts.ravel()


def potential_on_sphere(profile: DensityProfile, phi) -> float:
    """Potential U(phi) of the profile's surface measure, on the sphere.

    Integrates 2 sigma(s) M(phi, xi(s)) ds with a mesh graded toward the
    kernel diagonal (halving panels, innermost panel by exponential
    substitution), so both the rim behavior of the density and the
    logarithmic diagonal are resolved by smooth-panel quadrature.
    """
    p = _validated_angle(phi, name="phi")
    interp = sigma_interpolant(profile)
    _, _, smax = _edge_coordinate_maps(profile.cap)
    alpha = profile.cap.alpha
    one_m_cphi = 2.0 * math.sin(0.5 * p) ** 2
    one_p_cphi = 2.0 * math.cos(0.5 * p) ** 2
    depth = _depth(p, alpha)  # cos(alpha) - cos(phi)

    # 1 -+ cos(xi(s)) in factored form so the kernel stays accurate at
    # the poles, where the plain cosine rounds to +-1
    south = profile.cap.orientation is Orientation.SOUTH_CENTERED
    if south:
        inside = depth >= 0.0
        s0 = math.sqrt(max(depth, 0.0))
        r1 = 2.0 * math.sin(0.5 * alpha) ** 2
    else:
        inside = depth <= 0.0
        s0 = math.sqrt(max(-depth, 0.0))
        r1 = 2.0 * math.cos(0.5 * alpha) ** 2
    # a diagonal within rounding of an endpoint must sit exactly on it:
    # otherwise a stray ulp of wr poisons the substitution panel's
    # distance factors
    snap = 4.0 * np.finfo(float).eps * smax
    if inside:
        if s0 > smax - snap:
            s0 = smax
        elif s0 < snap:
            s0 = 0.0
    res = depth - s0 * s0 if south else depth + s0 * s0
    wr = smax - s0

    def kernel_at(s, one_m_cxi, one_p_cxi, absdiff):
        return (
            2.0
            * interp(s)
            * _kernel_parts(one_m_cphi, one_p_cphi, one_m_cxi, one_p_cxi, absdiff)
        )

    def integrand(s):
        plain = r1 + s * s
        factored = np.maximum(smax - s, 0.0) * (smax + s)
        if south:
            one_m, one_p, dd = plain, factored, depth - s * s
        else:
            one_m, one_p, dd = factored, plain, depth + s * s
        return kernel_at(s, one_m, one_p, np.abs(dd))

    def integrand_near(u, sign):
        # distance u from the diagonal, kept symbolic: s0 +- u can round
        # to s0 itself at the deepest substitution nodes
        s = s0 + sign * u
        plain = r1 + s * s
        factored = np.maximum(wr - sign * u, 0.0) * (smax + s)
        if south:
            one_m, one_p = plain, factored
            dd = res - sign * u * (2.0 * s0 + sign * u)
        else:
            one_m, one_p = factored, plain
            dd = res + sign * u * (2.0 * s0 + sign * u)
        return kernel_at(s, one_m, one_p, np.abs(dd))

    total = 0.0
    bounds: List[Tuple[float, float]] = []
    if inside:
        for width, sign in ((s0, -1.0), (smax - s0, 1.0)):
            if width <= 0.0:
                continue
            edges = width * _HALVING
            for j in range(_LEVELS):
                a, b = s0 + sign * edges[j], s0 + sign * edges[j + 1]
                bounds.append((min(a, b), max(a, b)))
            delta = width * _HALVING[-1]
            total += delta * float(
                np.dot(_TAU_W, integrand_near(delta * _EXP_U, sign))
            )
    else:
        # kernel peaks at the near rim s = 0 but stays bounded
        edges = smax * _HALVING
        for j in range(_LEVELS):
            bounds.append((edges[j + 1], edges[j]))
        bounds.append((0.0, edges[-1]))

    gl_pts, gl_wts = _panel_points(bounds)
    total += float(np.dot(gl_wts, integrand(gl_pts)))
    if not math.isfinite(total):
        raise NonconvergenceError(
            "potential quadrature produced a non-finite value", total, math.inf
        )
    return total


@dataclass(frozen=True)
class EquilibriumReport:
    """Residuals of the variational conditions for a candidate profile.

    sup_deviation_on_support is max |U + Q - F_Q| over interior support
    nodes; min_slack_off_support is min (U + Q - F_Q) over the complement
    grid, None when the support is the whole sphere.
    """

    sup_deviation_on_support: float
    min_slack_off_support: Optional[float]
    mass_error: float
    robin_constant: float
    negative_node_count: int
    tol: float
    verdict: bool


def verify_equilibrium(
    field: ExternalField, profile: DensityProfile, tol: float = 1e-4
) -> EquilibriumReport:
    """Check the candidate (cap, density, Robin constant) triple.

    Passing requires the weighted potential U + Q to be constant on the
    support within tol, to not dip below that constant off the support by
    more than tol, unit mass within tol, and a nonnegative density.  A
    prescribed cap that is not the true minimizing support fails exactly
    one of these, depending on which side of the true rim angle it errs.
    """
    tol = float(tol)
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValueError("tol must be a positive finite number")

    u_sup = np.array([potential_on_sphere(profile, float(a)) for a in profile.grid.nodes])
    q_sup = np.asarray(
        field.value_at_x3(np.clip(np.cos(profile.grid.nodes), -1.0, 1.0)), dtype=float
    )
    weighted = u_sup + q_sup

    fq = profile.robin_constant
    if fq is None:
        fq = float(np.median(weighted))
    sup_dev = float(np.max(np.abs(weighted - fq)))

    cap = profile.cap
    if cap.is_full_sphere:
        slack = None
    else:
        if cap.orientation is Orientation.SOUTH_CENTERED:
            complement = north_cap(cap.alpha)
        else:
            complement = south_cap(cap.alpha)
        off_nodes = boundary_clustered_grid(complement, _N_OFF_SUPPORT).nodes
        u_off = np.array([potential_on_sphere(profile, float(a)) for a in off_nodes])
        q_off = np.asarray(
            field.value_at_x3(np.clip(np.cos(off_nodes), -1.0, 1.0)), dtype=float
        )
        slack = float(np.min(u_off + q_off - fq))

    mass_error = abs(profile.mass - 1.0)
    ok = (
        sup_dev <= tol
        and (slack is None or slack >= -tol)
        and mass_error <= tol
        and len(profile.negative_nodes) == 0
    )
    return EquilibriumReport(
        sup_deviation_on_support=sup_dev,
        min_slack_off_support=slack,
        mass_error=mass_error,
        robin_constant=fq,
        negative_node_count=len(profile.negative_nodes),
        tol=tol,
        verdict=ok,
    )
