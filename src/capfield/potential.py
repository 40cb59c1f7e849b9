"""Single-layer potentials of cap densities and equilibrium verification.

The azimuthal average of the Newtonian kernel between two rings of polar
angles phi and xi reduces to a complete elliptic integral; potentials are
then one-dimensional integrals over the south cap, singular on the
diagonal.  Everything here integrates in the rim variable s =
sqrt(cos(alpha) - cos(phi)), where the density is smooth and the kernel's
diagonal is a plain logarithm.  `kernel_rule` is the one quadrature of
that kernel, batched over the observation angles: the potential applies
it to a profile's sigma, and the Nystrom oracle bins its weights into
moments against the pieces of its spline, both a block of angles at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.special import ellipkm1

from ._numerics import NonconvergenceError, gauss_legendre
from .equilibrium import DensityProfile, _edge_coordinate_maps
from .fields import ExternalField
from .geometry import _validated_angles
from .singular_quadrature import _depth

PI = math.pi

# halving panels of the graded rule beside the kernel diagonal
_LEVELS = 12
_N_OFF_SUPPORT = 64
# angles per application of the kernel rule, which holds (angles, points)
# arrays: about 300 kB a block for Nystrom rows at n = 256, and no more
# for many angles.  Blocks of 32 rows raised the peak memory of a process
# running Nystrom solves by 2 MB; blocks of 8 ran slower
_ROW_BLOCK = 16


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


def _kernel_parts(one_m_cphi, one_p_cphi, one_m_cxi, one_p_cxi, absdiff):
    """Ring average of 1/distance from precomputed half-angle products.

    Callers supply 1 -+ cos of both angles and |cos(xi) - cos(phi)| in
    cancellation-free form; a^2 - b^2 = 2(cos(xi) - cos(phi)).  The
    average is 4 K / max(a, b), K the complete elliptic integral whose
    complementary parameter 2 |cos(xi) - cos(phi)| / max(a^2, b^2) goes
    to `ellipkm1` as is, so K keeps its relative accuracy down the
    logarithmic diagonal.
    """
    mx2 = np.maximum(one_m_cphi * one_p_cxi, one_m_cxi * one_p_cphi)
    return 4.0 * ellipkm1(np.minimum(2.0 * absdiff / mx2, 1.0)) / np.sqrt(mx2)


def ring_kernel(phi, xi):
    """Azimuthal integral of the inverse chordal distance between rings.

    Log-divergent on the diagonal, which is rejected.  Vectorized: phi
    and xi broadcast against each other.  Bitwise symmetric in its two
    arguments.
    """
    p = _validated_angles(phi, "phi")
    arr = _validated_angles(xi, "xi")
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


def _panels(bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """GL-8 points and weights of every interval between sorted bounds.

    Both of shape (intervals, 8).
    """
    span = np.diff(bounds)[:, None]
    return bounds[:-1, None] + span * _X8, span * _W8


def kernel_rule(phi, alpha: float, smax: float, knots=()) -> Tuple[np.ndarray, np.ndarray]:
    """Quadrature for the potential at m angles phi of a south-cap density.

    Returns (m, P) points in the rim variable s on [0, smax] and
    kernel-carrying weights, so that U(phi[i]) = weights[i] @
    sigma(points[i]) for the cap of rim alpha.  The layout is the same
    for every row.  The first 8 * (intervals) columns are one GL-8 panel
    on every interval between consecutive knots (with 0 and smax added),
    shared by all rows; the one or two intervals meeting a row's kernel
    diagonal s0 = sqrt(cos(alpha) - cos(phi)) carry weight 0 there.  The
    last columns are the graded side rule on each side of s0, below then
    above; a side of zero width (s0 on 0 or smax: off the support, at the
    rim, at phi = pi) has weight 0.  Off the support s0 = 0, where the
    kernel peaks but stays bounded.
    """
    phi = np.asarray(phi, dtype=float).reshape(-1, 1)
    one_m_cphi = 2.0 * np.sin(0.5 * phi) ** 2
    one_p_cphi = 2.0 * np.cos(0.5 * phi) ** 2
    r1 = 2.0 * math.sin(0.5 * alpha) ** 2
    depth = _depth(phi, alpha)  # cos(alpha) - cos(phi)
    # near phi = pi, depth can round past smax^2 for a rim close to pi
    s0 = np.minimum(np.sqrt(np.maximum(depth, 0.0)), smax)
    bounds = np.concatenate(([0.0], np.asarray(knots, dtype=float), [smax]))
    last = len(bounds) - 1  # number of intervals
    # a diagonal within rounding of a panel end must sit exactly on it:
    # otherwise a stray ulp poisons the end panel's distance factors
    i = np.clip(np.searchsorted(bounds, s0), 1, last)
    lo, hi = bounds[i - 1], bounds[i]
    nearest = np.where(s0 - lo <= hi - s0, lo, hi)
    s0 = np.where(np.abs(nearest - s0) < 4.0 * np.finfo(float).eps * smax, nearest, s0)
    res = depth - s0 * s0
    below = np.searchsorted(bounds, s0, side="left") - 1
    above = np.searchsorted(bounds, s0, side="right")

    # shared panels, with 1 -+ cos(xi) from s itself: the same for every
    # row.  1 - cos(xi) = r1 + s^2 and 1 + cos(xi) = (smax - s)(smax + s)
    # stay accurate at the poles, where the plain cosine rounds to +-1
    panel_s, panel_w = _panels(bounds)
    shared_s = panel_s.ravel()
    absdiff = np.abs(depth - shared_s * shared_s)
    # the one or two panels that meet a row's diagonal get weight 0; their
    # points may sit on the diagonal itself, so they see a stand-in
    # distance, add exactly 0 and raise nothing
    rows = np.arange(len(phi))[:, None]
    hit = np.clip(np.concatenate((below, above - 1), axis=1), 0, last - 1)
    hit = (8 * hit[:, :, None] + np.arange(8)).reshape(len(phi), 16)
    absdiff[rows, hit] = 1.0
    shared_w = (2.0 * panel_w.ravel()) * _kernel_parts(
        one_m_cphi,
        one_p_cphi,
        r1 + shared_s * shared_s,
        np.maximum(smax - shared_s, 0.0) * (smax + shared_s),
        absdiff,
    )
    shared_w[rows, hit] = 0.0

    # graded sides, below then above, in the exact offset u from the
    # diagonal: s0 +- u can round to s0 itself at the deepest nodes
    width_below = np.where(below >= 0, s0 - bounds[np.maximum(below, 0)], 0.0)
    width_above = np.where(above <= last, bounds[np.minimum(above, last)] - s0, 0.0)
    u = np.concatenate((width_below * _SIDE_U, width_above * _SIDE_U), axis=1)
    side_w = np.concatenate((width_below * _SIDE_W, width_above * _SIDE_W), axis=1)
    sign = np.repeat([-1.0, 1.0], _SIDE_U.size)
    side_s = s0 + sign * u
    # a side of zero width has its points on the diagonal, for phi = pi
    # on the pole itself, where both 1 + cos vanish: stand-ins there too
    dead = side_w == 0.0
    side_w *= 2.0 * _kernel_parts(
        one_m_cphi,
        one_p_cphi,
        np.where(dead, 1.0, r1 + side_s * side_s),
        np.where(dead, 1.0, np.maximum(smax - s0 - sign * u, 0.0) * (smax + side_s)),
        np.where(dead, 1.0, np.abs(res - sign * u * (2.0 * s0 + sign * u))),
    )
    points = np.concatenate((np.broadcast_to(shared_s, absdiff.shape), side_s), axis=1)
    return points, np.concatenate((shared_w, side_w), axis=1)


def potential_on_sphere(profile: DensityProfile, phi):
    """Potential U(phi) of the profile's surface measure, on the sphere.

    Integrates 2 sigma(s) M(phi, xi(s)) ds with `kernel_rule`, so both
    the rim behavior of the density and the logarithmic diagonal are
    resolved by smooth-panel quadrature.  Vectorized over phi; a scalar
    phi gives a float.
    """
    p = _validated_angles(phi, "phi")
    _, _, smax = _edge_coordinate_maps(profile.cap)
    flat = p.ravel()
    total = np.empty(flat.size)
    for start in range(0, flat.size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        points, weights = kernel_rule(flat[rows], profile.cap.alpha, smax)
        total[rows] = np.einsum("ij,ij->i", weights, profile.sigma(points))
    total = total.reshape(p.shape)
    if not np.all(np.isfinite(total)):
        raise NonconvergenceError(
            "potential quadrature produced a non-finite value", total, math.inf
        )
    if total.ndim == 0:
        return float(total)
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

    nodes = profile.grid.nodes
    if profile.cap.is_full_sphere:
        off_nodes = np.empty(0)
    else:
        # off-support nodes on [0, alpha), clustered toward the rim
        u = np.arange(1, _N_OFF_SUPPORT + 1) / (_N_OFF_SUPPORT + 1.0)
        off_nodes = np.sort(profile.cap.alpha * (1.0 - np.sin(0.5 * PI * u) ** 2))
    angles = np.concatenate((nodes, off_nodes))
    weighted = potential_on_sphere(profile, angles) + np.asarray(
        field.value_at_x3(np.clip(np.cos(angles), -1.0, 1.0)), dtype=float
    )
    on, off = weighted[: nodes.size], weighted[nodes.size :]

    fq = profile.robin_constant
    if fq is None:
        fq = float(np.median(on))
    sup_dev = float(np.max(np.abs(on - fq)))
    slack = None if profile.cap.is_full_sphere else float(np.min(off - fq))

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
