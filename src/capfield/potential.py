"""Single-layer potentials of cap densities and equilibrium verification.

The azimuthal average of the Newtonian kernel between two rings of polar
angles phi and xi reduces to a complete elliptic integral; potentials are
then one-dimensional integrals over the south cap, singular on the
diagonal.  Everything here integrates in the rim variable s =
sqrt(cos(alpha) - cos(phi)), where the density is smooth and the kernel's
diagonal is a plain logarithm.  `kernel_rule` is the one quadrature of
that kernel: the potential applies it to a profile's sigma, and the
Nystrom oracle bins its weights into moments against the pieces of its
spline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._numerics import gauss_legendre
from .equilibrium import DensityProfile, _edge_coordinate_maps
from .fields import ExternalField
from .geometry import _validated_angle
from .singular_quadrature import NonconvergenceError, _depth

PI = math.pi

# halving panels of the graded rule beside the kernel diagonal
_LEVELS = 12
_N_OFF_SUPPORT = 64
_AGM_ITERATIONS = 20


def _unit_gl(n: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = gauss_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


# one GL-8 panel per smooth interval between knots
_X8, _W8 = _unit_gl(8)


def _graded_side() -> Tuple[np.ndarray, np.ndarray]:
    """Offsets from the diagonal and weights, as fractions of the side width.

    Twelve halving GL-12 panels toward the diagonal, then one panel
    substituted exponentially for the residual log (or inverse-sqrt at the
    poles) singularity: nodes for int_0^48 e^(-tau) F(delta e^(-tau)) dtau,
    where the slowest case, an inverse-sqrt endpoint (decay e^(-tau/2)), is
    truncated at e^(-24).
    """
    x12, w12 = _unit_gl(12)
    halving = 2.0 ** -np.arange(1, _LEVELS + 1, dtype=float)
    t1, w1 = gauss_legendre(24)
    t2, w2 = gauss_legendre(16)
    t3, w3 = gauss_legendre(12)
    tau = np.concatenate((4.0 * (t1 + 1.0), 16.0 + 8.0 * t2, 36.0 + 12.0 * t3))
    tau_w = np.concatenate((4.0 * w1, 8.0 * w2, 12.0 * w3)) * np.exp(-tau)
    delta = halving[-1]
    u = (halving[:, None] * (1.0 + x12[None, :])).ravel()
    w = (halving[:, None] * w12[None, :]).ravel()
    return np.concatenate((u, delta * np.exp(-tau))), np.concatenate((w, delta * tau_w))


_SIDE_U, _SIDE_W = _graded_side()


def _agm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    for _ in range(_AGM_ITERATIONS):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return 0.5 * (a + b)


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

    Log-divergent on the diagonal, which is rejected.  Vectorized: phi
    and xi broadcast against each other.
    """
    p = np.asarray(phi, dtype=float)
    arr = np.asarray(xi, dtype=float)
    for name, angles in (("phi", p), ("xi", arr)):
        if np.any(~np.isfinite(angles)) or np.any(angles < 0.0) or np.any(angles > PI):
            raise ValueError(f"{name} must lie in [0, pi]")
    if np.any(arr == p):
        raise ValueError("ring kernel is singular on the diagonal phi == xi")
    absdiff = np.abs(2.0 * np.sin(0.5 * (p + arr)) * np.sin(0.5 * (p - arr)))
    out = _kernel_parts(
        2.0 * np.sin(0.5 * p) ** 2,
        2.0 * np.cos(0.5 * p) ** 2,
        2.0 * np.sin(0.5 * arr) ** 2,
        2.0 * np.cos(0.5 * arr) ** 2,
        absdiff,
    )
    if out.ndim == 0:
        return float(out)
    return out


def kernel_rule(
    phi: float, alpha: float, smax: float, knots=()
) -> Tuple[np.ndarray, np.ndarray]:
    """Quadrature for the potential at phi of a south-cap density.

    Returns points in the rim variable s on [0, smax] and kernel-carrying
    weights, so that U(phi) = weights @ sigma(points) for the cap of rim
    alpha.  Every interval between consecutive knots (with 0 and smax
    added) gets one GL-8 panel; the one or two intervals meeting the
    kernel diagonal s0 = sqrt(cos(alpha) - cos(phi)) get the graded side
    rule toward s0.  Off the support s0 = 0, where the kernel peaks but
    stays bounded.
    """
    one_m_cphi = 2.0 * math.sin(0.5 * phi) ** 2
    one_p_cphi = 2.0 * math.cos(0.5 * phi) ** 2
    r1 = 2.0 * math.sin(0.5 * alpha) ** 2
    depth = float(_depth(phi, alpha))  # cos(alpha) - cos(phi)
    s0 = math.sqrt(max(depth, 0.0))
    bounds = np.concatenate(([0.0], np.asarray(knots, dtype=float), [smax]))
    # a diagonal within rounding of a panel end must sit exactly on it:
    # otherwise a stray ulp poisons the end panel's distance factors
    nearest = float(bounds[np.argmin(np.abs(bounds - s0))])
    if abs(nearest - s0) < 4.0 * np.finfo(float).eps * smax:
        s0 = nearest
    res = depth - s0 * s0
    below = int(np.searchsorted(bounds, s0, side="left")) - 1
    above = int(np.searchsorted(bounds, s0, side="right"))

    # smooth panels, with 1 + cos(xi) and cos(xi) - cos(phi) from s itself
    keep = np.r_[0 : max(below, 0), above : len(bounds) - 1]
    lo = bounds[keep]
    span = bounds[keep + 1] - lo
    s_parts = [(lo[:, None] + span[:, None] * _X8[None, :]).ravel()]
    w_parts = [(span[:, None] * _W8[None, :]).ravel()]
    to_smax_parts = [np.maximum(smax - s_parts[0], 0.0)]
    dcos_parts = [depth - s_parts[0] * s_parts[0]]
    # graded sides in the exact offset u from the diagonal: s0 +- u can
    # round to s0 itself at the deepest substitution nodes
    for end, sign in ((below, -1.0), (above, 1.0)):
        if not 0 <= end < len(bounds):
            continue
        width = abs(float(bounds[end]) - s0)
        u = width * _SIDE_U
        s_parts.append(s0 + sign * u)
        w_parts.append(width * _SIDE_W)
        to_smax_parts.append(np.maximum(smax - s0 - sign * u, 0.0))
        dcos_parts.append(res - sign * u * (2.0 * s0 + sign * u))
    s = np.concatenate(s_parts)
    # 1 -+ cos(xi(s)) in factored form so the kernel stays accurate at
    # the poles, where the plain cosine rounds to +-1
    kernel = _kernel_parts(
        one_m_cphi,
        one_p_cphi,
        r1 + s * s,
        np.concatenate(to_smax_parts) * (smax + s),
        np.abs(np.concatenate(dcos_parts)),
    )
    return s, 2.0 * np.concatenate(w_parts) * kernel


def potential_on_sphere(profile: DensityProfile, phi) -> float:
    """Potential U(phi) of the profile's surface measure, on the sphere.

    Integrates 2 sigma(s) M(phi, xi(s)) ds with `kernel_rule`, so both
    the rim behavior of the density and the logarithmic diagonal are
    resolved by smooth-panel quadrature.
    """
    p = _validated_angle(phi, name="phi")
    _, _, smax = _edge_coordinate_maps(profile.cap)
    points, weights = kernel_rule(p, profile.cap.alpha, smax)
    total = float(weights @ profile.sigma(points))
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

    if profile.cap.is_full_sphere:
        slack = None
    else:
        # off-support nodes on [0, alpha), clustered toward the rim
        u = np.arange(1, _N_OFF_SUPPORT + 1) / (_N_OFF_SUPPORT + 1.0)
        off_nodes = np.sort(profile.cap.alpha * (1.0 - np.sin(0.5 * PI * u) ** 2))
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
