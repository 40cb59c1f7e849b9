"""Single-layer potentials of cap densities and equilibrium verification.

The azimuthal average of the Newtonian kernel between two rings of polar
angles phi and xi reduces to a complete elliptic integral; potentials are
then one-dimensional integrals over the south cap, singular on the
diagonal.  Everything here integrates in the rim variable s =
sqrt(cos(alpha) - cos(phi)), where the density is smooth and the kernel's
diagonal is a plain logarithm.  `kernel_rule` is the one quadrature of
that kernel, batched over the observation angles; its row-independent
part, the `KernelLayout` of panels and distance factors, is built once
per potential or Nystrom solve and passed to every block of angles.  The
potential applies the rule to a profile's sigma, and the Nystrom oracle
bins its weights into moments against the pieces of its spline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._numerics import NonconvergenceError, gauss_legendre
from .equilibrium import DensityProfile
from .fields import ExternalField
from .geometry import SphericalCap, _validated_angles

PI = math.pi

# halving panels of the graded rule beside the kernel diagonal
_LEVELS = 12
_N_OFF_SUPPORT = 64
# angles per application of the kernel rule, which holds (angles, points)
# arrays: about 300 kB a block for Nystrom rows at n = 256, and no more
# for many angles.  With one layout per solve, blocks of 8, 16 and 32 rows
# differ by less than the run-to-run spread in time (point charge (1, 2),
# one BLAS thread: 11.0 / 9.8 / 10.1 ms at n = 128 and 35.3 / 30.4 / 28.8
# ms at n = 256 in one run of 40 alternating solves, 32.4 ms for both 16
# and 32 in another), while blocks of 32 raised the benchmark's peak
# memory on the pipeline and tabulated workloads by 0.4-0.5 MB (seeds
# 1701 and 1702) and blocks of 16 matched the parent
_ROW_BLOCK = 16


def _unit_gl(n: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = gauss_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


# the shared panel rule, one panel per smooth interval between knots:
# GL-8 nodes and weights on [0, 1].  Everything that splits the shared
# columns into panels takes the panel size from this rule
_PANEL = _unit_gl(8)


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


# K(1 - p) takes the arithmetic-geometric mean down to this p and the
# two-term logarithmic asymptote below it, which is within 1.3e-17 of K
# there
_K_LOG_BELOW = 1e-8
# full AGM steps from (1, sqrt(p)) by the least p of an array: with one
# more mean, 3 steps leave it within 1e-18 of its limit down to p = 0.33,
# 4 down to 1e-2, 5 down to 6.3e-6 and 6 down to 2.5e-12.  The shared
# panels of a block of rows mostly keep p above 1e-2 (above 0.5 for
# `verify`), while its graded sides reach the asymptote
_AGM_STEPS = ((0.35, 3), (1e-2, 4), (1e-5, 5))
_LN4 = math.log(4.0)


def _ellipkm1(p: np.ndarray) -> np.ndarray:
    """K(1 - p), the complete elliptic integral of the first kind at
    parameter m = 1 - p, for p in (0, 1], in place of p.

    K = pi / (2 AGM(1, sqrt(p))) (DLMF 19.8.5; Abramowitz & Stegun 17.6):
    three to six steps a <- (a + b) / 2, b <- sqrt(a b), as the least p
    needs, and one more mean, in place on two scratch arrays made once per
    call.  For p < 1e-8, K = L + (p / 4)(L - 1) with L = ln 4 - ln(p) / 2,
    the first two terms of DLMF 19.12.1.  Within 3 ulps of an 80-digit
    AGM for p down to the least subnormal.
    """
    least = np.min(p, initial=1.0)
    steps = next((count for bound, count in _AGM_STEPS if least >= bound), 6)
    small = p < _K_LOG_BELOW
    near = p[small]
    b = np.sqrt(p, out=p)
    a = np.add(b, 1.0)
    a *= 0.5
    np.sqrt(b, out=b)
    t = np.empty_like(a)
    for _ in range(steps - 1):
        np.multiply(a, b, out=t)
        a += b
        a *= 0.5
        np.sqrt(t, out=b)
    # pi / (2 a) with a the last mean (a + b) / 2
    a += b
    np.divide(PI, a, out=p)
    if near.size:
        log_term = np.log(near)
        log_term *= -0.5
        log_term += _LN4
        near *= 0.25
        near *= log_term - 1.0
        near += log_term
        p[small] = near
    return p


def _kernel_parts(one_m_cphi, one_p_cphi, one_m_cxi, one_p_cxi, gap, out=None):
    """K / max(a, b) of the ring average 4 K / max(a, b) of 1/distance.

    Callers supply 1 -+ cos of both angles and the gap |a^2 - b^2| =
    2 |cos(xi) - cos(phi)| in cancellation-free form, and fold the
    factor 4 into their weights.  K is the complete elliptic integral
    whose complementary parameter |a^2 - b^2| / max(a^2, b^2) goes to
    `_ellipkm1` as is, so K keeps its relative accuracy down the
    logarithmic diagonal.  Evaluated on two contiguous scratch arrays of
    the broadcast shape, and the two of `_ellipkm1`, then written once
    into out (a new array by default): the callers' out is a block of
    columns of a wider array, on which each pass would cost more.
    """
    shapes = map(np.shape, (one_m_cphi, one_p_cphi, one_m_cxi, one_p_cxi, gap))
    shape = np.broadcast_shapes(*shapes)
    mx2 = np.multiply(one_m_cphi, one_p_cxi, out=np.empty(shape))
    k = np.multiply(one_m_cxi, one_p_cphi, out=np.empty(shape))
    np.maximum(mx2, k, out=mx2)
    np.divide(gap, mx2, out=k)
    np.minimum(k, 1.0, out=k)
    _ellipkm1(k)
    return np.divide(k, np.sqrt(mx2, out=mx2), out=out)


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
    gap = np.abs(4.0 * np.sin(0.5 * (p + arr)) * np.sin(0.5 * (p - arr)))
    out = 4.0 * _kernel_parts(
        2.0 * np.sin(0.5 * p) ** 2,
        2.0 * np.cos(0.5 * p) ** 2,
        2.0 * np.sin(0.5 * arr) ** 2,
        2.0 * np.cos(0.5 * arr) ** 2,
        gap,
    )
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True, eq=False)
class KernelLayout:
    """The row-independent part of `kernel_rule` for one cap and knot set.

    bounds are 0, the knots and the cap's smax.  The shared columns are
    one GL-8 panel on every interval between consecutive bounds: their
    points s, 2 s^2, eight times their weights (the rule's 2 sigma(s) ds
    times the kernel's 4), and 1 -+ cos(xi) from s itself, 1 - cos(xi) =
    r1 + s^2 and 1 + cos(xi) = (smax - s)(smax + s) with the cap's r1
    and smax, which stay accurate at the poles, where the plain cosine
    rounds to +-1.
    """

    cap: SphericalCap
    bounds: np.ndarray
    shared_s: np.ndarray
    shared_twice_sq: np.ndarray
    shared_w: np.ndarray
    shared_one_m: np.ndarray
    shared_one_p: np.ndarray


def kernel_layout(cap: SphericalCap, knots=()) -> KernelLayout:
    """The `KernelLayout` of the cap with panel ends at the knots; one
    serves every block of rows."""
    smax = cap.smax
    bounds = np.concatenate(([0.0], np.asarray(knots, dtype=float), [smax]))
    span = np.diff(bounds)[:, None]
    panel_x, panel_w = _PANEL
    shared_s = (bounds[:-1, None] + span * panel_x).ravel()
    shared_sq = shared_s * shared_s
    return KernelLayout(
        cap=cap,
        bounds=bounds,
        shared_s=shared_s,
        shared_twice_sq=2.0 * shared_sq,
        shared_w=(8.0 * (span * panel_w)).ravel(),
        shared_one_m=cap.r1 + shared_sq,
        shared_one_p=np.maximum(smax - shared_s, 0.0) * (smax + shared_s),
    )


def kernel_rule(layout: KernelLayout, phi) -> Tuple[np.ndarray, np.ndarray]:
    """Quadrature for the potential at m angles phi of a south-cap density.

    Returns (m, P) points in the rim variable s on [0, smax] and
    kernel-carrying weights, so that U(phi[i]) = weights[i] @
    sigma(points[i]) for the cap and knots of the layout.  The layout of
    columns is the same for every row.  The first (panel size) * (intervals)
    columns are the layout's shared panels; the one or two intervals meeting
    a row's kernel diagonal s0 = sqrt(cos(alpha) - cos(phi)) carry weight
    0 there.  The last 2 * 196 columns are the graded side rule on each
    side of s0, below then above; a side of zero width (s0 on 0 or smax:
    off the support, at the rim, at phi = pi) has weight 0.  Off the
    support s0 = 0, where the kernel peaks but stays bounded.
    """
    phi = np.asarray(phi, dtype=float).reshape(-1, 1)
    m = len(phi)
    cap, bounds = layout.cap, layout.bounds
    smax = cap.smax
    one_m_cphi = 2.0 * np.sin(0.5 * phi) ** 2
    one_p_cphi = 2.0 * np.cos(0.5 * phi) ** 2
    depth = cap.depth(phi)  # cos(alpha) - cos(phi)
    # near phi = pi, depth can round past smax^2 for a rim close to pi
    s0 = np.minimum(np.sqrt(np.maximum(depth, 0.0)), smax)
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

    shared = layout.shared_s.size
    points = np.empty((m, shared + 2 * _SIDE_U.size))
    weights = np.empty_like(points)
    points[:, :shared] = layout.shared_s
    shared_w = weights[:, :shared]
    # the one or two panels that meet a row's diagonal get weight 0; their
    # points may sit on the diagonal itself, so they see a stand-in
    # distance, add exactly 0 and raise nothing
    gap = np.subtract(2.0 * depth, layout.shared_twice_sq)
    np.abs(gap, out=gap)
    rows = np.arange(m)[:, None]
    hit = np.clip(np.concatenate((below, above - 1), axis=1), 0, last - 1)
    size = _PANEL[0].size
    hit = (size * hit[:, :, None] + np.arange(size)).reshape(m, -1)
    gap[rows, hit] = 2.0
    _kernel_parts(
        one_m_cphi, one_p_cphi, layout.shared_one_m, layout.shared_one_p, gap, out=shared_w
    )
    shared_w *= layout.shared_w
    shared_w[rows, hit] = 0.0

    # graded sides, (row, side, point), below then above, in the exact
    # offset u from the diagonal: s0 +- u can round to s0 itself at the
    # deepest nodes
    width = np.empty((m, 2, 1))
    width[:, 0] = np.where(below >= 0, s0 - bounds[np.maximum(below, 0)], 0.0)
    width[:, 1] = np.where(above <= last, bounds[np.minimum(above, last)] - s0, 0.0)
    signed_u = width * _SIDE_U
    signed_u[:, 0] *= -1.0
    s0 = s0[:, :, None]
    side_s = points[:, shared:].reshape(m, 2, -1)
    np.add(s0, signed_u, out=side_s)
    side_w = weights[:, shared:].reshape(m, 2, -1)
    # a side of zero width has its points on the diagonal, for phi = pi
    # on the pole itself, where both 1 + cos vanish: stand-ins there too
    dead = (width * _SIDE_W) == 0.0
    one_m_cxi = cap.r1 + side_s * side_s
    one_p_cxi = np.maximum((smax - s0) - signed_u, 0.0)
    one_p_cxi *= smax + side_s
    gap = signed_u * (4.0 * s0 + 2.0 * signed_u)
    np.subtract(2.0 * res[:, :, None], gap, out=gap)
    np.abs(gap, out=gap)
    for part, stand_in in ((one_m_cxi, 1.0), (one_p_cxi, 1.0), (gap, 2.0)):
        part[dead] = stand_in
    _kernel_parts(
        one_m_cphi[:, :, None], one_p_cphi[:, :, None], one_m_cxi, one_p_cxi, gap, out=side_w
    )
    side_w *= 8.0 * width * _SIDE_W
    return points, weights


def potential_on_sphere(profile: DensityProfile, phi):
    """Potential U(phi) of the profile's surface measure, on the sphere.

    Integrates 2 sigma(s) M(phi, xi(s)) ds with `kernel_rule`, so both
    the rim behavior of the density and the logarithmic diagonal are
    resolved by smooth-panel quadrature.  The cap's `KernelLayout` is
    built once per call.  Vectorized over phi; a scalar phi gives a
    float.
    """
    p = _validated_angles(phi, "phi")
    layout = kernel_layout(profile.cap)
    flat = p.ravel()
    total = np.empty(flat.size)
    for start in range(0, flat.size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        points, weights = kernel_rule(layout, flat[rows])
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
