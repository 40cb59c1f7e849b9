"""Independent ground-truth solvers for weighted cap equilibria.

Two routes that never touch the closed-form densities, so either can
referee them: they and the potentials load no closed-form module, and
return the `_numerics` profile record.  ``nystrom_solve`` discretizes
the potential-balance equation on a prescribed cap by collocation of a
Chebyshev series of the rim-variable density, integrated against the
kernel by the potentials' own rule, and solves for the series together
with the potential level in one dense system.
``discrete_energy_minimize`` drops any support assumption: it minimizes
the discretized weighted energy over probability weights on latitude
rings covering the whole sphere by an exact active-set solve, and the
support emerges as the set of rings left free.  Each of its steps is one
bordered dense solve on the free rings, and it starts from the support
that the same solve finds on half as many rings, so only the rings
beside the coarse rim still move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from ._numerics import DensityProfile, GradedSeries, NonconvergenceError
from .fields import ExternalField
from .geometry import SphericalCap, boundary_clustered_grid
from .potential import _ROW_BLOCK, _side_fold, kernel_layout, kernel_rule, ring_kernel

PI = math.pi

_MIN_NODES = 16
# the floor of the graded variable's scale, for rims near the north pole
_MIN_SCALE = 3e-3
_DEGENERATE_GAP = 1e-6

# kernel-rule entries per block of Nystrom rows: a block holds at most
# _ROW_BLOCK rows, and fewer once a solve's rule is wider than 1,024 points
# a row (n >= 156), which is faster there and holds less (at n = 256,
# `BENCH_nystrom_fold.json`)
_ROW_ENTRIES = 16384

_MIN_RINGS = 32
# kernel entries per band of the ring matrix's assembly: its temporaries
# hold about this many entries, however many rings
_BAND_ENTRIES = 8192
# active-set changes allowed per ring before the solve counts as stuck
_STEPS_PER_RING = 2
# a bound ring is freed only when its slack falls below
# -_SLACK_RTOL * max(|F_Q|, 1), with F_Q that of the shifted field, which
# is nonnegative, so F_Q >= 1
_SLACK_RTOL = 1e-13

# the one dense solve of both oracles; a non-finite solution is refused
# by the caller
dense_solve = np.linalg.solve


@dataclass(frozen=True, eq=False)
class EnergyMinimum:
    """The energy oracle's ring weights and their KKT certificate.

    Mass ``weights[i]`` sits on the latitude ring at polar angle
    ``angles[i]``.  ``kkt_spread`` is the spread of the weighted potential
    Kw + q over the rings that carry mass and ``min_slack`` its least
    excess over F_Q off them, None when every ring carries mass.
    """

    angles: np.ndarray
    weights: np.ndarray
    robin_constant: float
    kkt_spread: float
    min_slack: Optional[float]

    def __post_init__(self) -> None:
        self.angles.flags.writeable = False
        self.weights.flags.writeable = False


def _shifted_field(field: ExternalField, angles: np.ndarray) -> Tuple[np.ndarray, float]:
    """Q at the polar angles less its least value there, and that value.

    A constant in Q moves F_Q and nothing else, so each oracle solves with
    Q shifted and adds the floor back to F_Q: its rounding stays on the
    scale of Q's variation, however large the constant.
    """
    q = field.value_at_x3(np.clip(np.cos(angles), -1.0, 1.0))
    floor = float(q.min())
    return q - floor, floor


def ring_energy_system(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(angles, area_weights, interaction) for n equally spaced latitude rings.

    ``interaction[i, j]`` is the mutual energy of unit masses on rings i
    and j.  Off-diagonal entries come from the azimuthally averaged kernel,
    assembled in bands of max(1, min(n, _BAND_ENTRIES // n)) rows so that
    no temporary holds much more than _BAND_ENTRIES kernel entries: one
    broadcast call per band for its rectangle right of the diagonal, and
    one call over the pairs i < j inside every band's own triangle, which
    takes 1 -+ cos(phi) once per ring.  Each entry is written into both
    triangles: the kernel is bitwise symmetric.  The diagonal, the
    regularized self-energy, is calibrated row by row so the known uniform
    measure on the full sphere (the area weights, proportional to ring
    areas) reproduces its constant potential 1 at every ring; the total
    energy then equals the sphere value 1 identically.  The interior
    effective widths implied by this calibration settle near halfwidth/pi,
    the thin-ring value, with halfwidth = pi / (2n) the rings' angular
    half-width.
    """
    if not isinstance(n, (int, np.integer)) or n < 8:
        raise ValueError("need at least 8 rings")
    n = int(n)
    phi = (np.arange(n) + 0.5) * (PI / n)
    sines = np.sin(phi)
    area = sines / sines.sum()

    interaction = np.empty((n, n))
    height = max(1, min(n, _BAND_ENTRIES // n))
    # each band's rectangle right of the diagonal, and its mirror
    for start in range(0, n - height, height):
        band, right = slice(start, start + height), slice(start + height, n)
        block = ring_kernel(phi[band, None], phi[None, right]) / (2.0 * PI)
        interaction[band, right] = block
        interaction[right, band] = block.T
    # every band's own triangle i < j, in one call
    rows, cols = np.triu_indices(height, 1)
    starts = np.arange(0, n, height)[:, None]
    rows, cols = (starts + rows).ravel(), (starts + cols).ravel()
    pairs = rows[cols < n], cols[cols < n]
    interaction[pairs] = interaction[pairs[::-1]] = ring_kernel(phi, phi, pairs) / (2.0 * PI)
    np.fill_diagonal(interaction, 0.0)
    off = interaction @ area
    np.fill_diagonal(interaction, (1.0 - off) / area)
    return phi, area, interaction


def nystrom_solve(
    field: ExternalField, cap: SphericalCap, n: int
) -> DensityProfile:
    """Solve the potential-balance equation on a prescribed south cap.

    The density is sought as smooth-times-edge-factor: in the rim
    coordinate s = sqrt(cos(alpha) - cos(phi)) the unknown sigma(s) =
    s*f(phi(s)) is analytic, which builds the inverse-square-root rim
    behaviour into the ansatz.  It is a `GradedSeries` of d = max(16,
    n // 4) terms in u of [0, 1] with s = c*sinh(A*u), graded on the scale
    c = sqrt(r1) on which the edge part turns over (floored at 3e-3,
    capped at smax); the unknowns are its d coefficients and the
    potential level.  The collocation angles are the images of the
    d Chebyshev points of the first kind in u, and their rim variables are
    the knots of one `KernelLayout` per solve, so each row's kernel
    diagonal sits on a panel end.  Row i is `potential.kernel_rule`'s
    weights at angle i times the Chebyshev polynomials at the rule's
    points (Atkinson, The Numerical Solution of Integral Equations of the
    Second Kind, 1997, sec. 4.2), with the polynomials evaluated in one
    matrix per solve at the shared panels' nodes alone: row i's diagonal is
    knot i, so its two graded sides are the whole panels i and i + 1, and
    `potential._side_fold` carries their weights onto those panels' nodes,
    exact for a polynomial of degree below the panel size in s on each.
    A block of rows at a time, the rows are the shared product plus the
    folded sides.  The unit-mass row is Fejer's first rule in u
    (Waldvogel, BIT 46, 2006) on sigma ds/du.  The (d+1) x (d+1) dense
    system gives the series and the level, returned as a profile on the n
    boundary-clustered nodes: its sigma is the series, its values are the
    series there over s, and its Robin constant is the level.
    """
    if not isinstance(n, (int, np.integer)) or n < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} nodes")
    n = int(n)
    if PI - cap.alpha <= _DEGENERATE_GAP:
        raise ValueError("cap is degenerate: rim angle within 1e-6 of pi")
    # a field with a pole at the cap's top, as a charge on the sphere at a
    # rim of 0, is outside the hypotheses, and its collocation would
    # return a density of either sign
    top = math.cos(cap.alpha)
    if not math.isfinite(field.value_at_x3(top)):
        raise ValueError(f"field is not finite at the cap's top x3 = cos(alpha) = {top!r}")

    d = max(_MIN_NODES, n // 4)
    smax = cap.smax
    scale = min(max(cap.sqrt_r1, _MIN_SCALE), smax)
    stretch = math.asinh(smax / scale)
    # first-kind points in increasing order, and the angles of their s
    theta = (np.arange(d, 0, -1) - 0.5) * (PI / d)
    s = scale * np.sinh(0.5 * stretch * (1.0 + np.cos(theta)))
    angles = cap.phi_of_s(s)
    layout = kernel_layout(cap, cap.s_of_phi(angles))
    shared = layout.shared_s.size
    # the basis at the Chebyshev variable x = 2u - 1 of the shared nodes
    on_shared = chebvander((2.0 / stretch) * np.arcsinh(layout.shared_s / scale) - 1.0, d - 1)
    # row i's diagonal is knot i, so its graded sides are the whole panels
    # i and i + 1, which the fold takes onto those panels' nodes.  The
    # panels are reshaped views: a sliding window view interns a new string
    # per call, which in a long-lived process grows the interpreter's table
    below, above = _side_fold()
    count, size = below.shape
    panels = on_shared.reshape(d + 1, size, d)
    system = np.empty((d + 1, d + 1))
    height = max(1, min(_ROW_BLOCK, _ROW_ENTRIES // (shared + 2 * count)))
    for start in range(0, d, height):
        stop = min(start + height, d)
        weights = kernel_rule(layout, angles[start:stop])[1]
        side_w = weights[:, shared:]
        sides = np.einsum("rq,rqk->rk", side_w[:, :count] @ below, panels[start:stop])
        sides += np.einsum("rq,rqk->rk", side_w[:, count:] @ above, panels[start + 1 : stop + 1])
        system[start:stop, :d] = weights[:, :shared] @ on_shared + sides
        # one block's scratch alive at a time: the next kernel_rule call
        # would otherwise run beside this block's arrays
        del weights, side_w, sides
    # the unit mass: 4 pi times Fejer's first rule on [0, 1] for sigma
    # ds/du, ds/du = A sqrt(c^2 + s^2), with the series at the points
    # T_j = cos(j theta)
    j = np.arange(1, d // 2 + 1)
    fejer = 1.0 - 2.0 * (np.cos(2.0 * np.outer(theta, j)) / (4.0 * j * j - 1.0)).sum(axis=1)
    fejer *= (4.0 * PI / d) * stretch * np.hypot(scale, s)
    system[d, :d] = fejer @ np.cos(np.outer(theta, np.arange(d)))
    system[:d, d] = -1.0
    system[d, d] = 0.0

    q, floor = _shifted_field(field, angles)
    solution = dense_solve(system, np.append(-q, 1.0))
    coeffs = solution[:d]
    fq = float(solution[d]) + floor
    if not (np.all(np.isfinite(coeffs)) and math.isfinite(fq)):
        raise NonconvergenceError(
            "collocation system produced non-finite values", math.nan, math.inf
        )
    grid = boundary_clustered_grid(cap, n)
    node_s = cap.s_of_phi(grid.nodes)
    sigma = GradedSeries(coeffs, scale, stretch)
    return DensityProfile(cap, grid, sigma(node_s) / node_s, fq, sigma)


def discrete_energy_minimize(field: ExternalField, n: int) -> EnergyMinimum:
    """Minimize the discretized weighted energy over ring weights, exactly.

    min w^T K w + 2 q^T w over the probability simplex is a strictly convex
    QP, solved by a primal active-set method (Nocedal & Wright, Numerical
    Optimization, 2nd ed., sec. 16.5).  Each step solves the bordered
    system [K_S 1; 1^T 0] on the free set S for the weights and F_Q.  A
    weight that would go negative stops the step at the boundary and fixes
    its ring at 0; once every weight is nonnegative, the bound ring with
    the most negative slack Kw + q - F_Q is freed, until no slack lies
    below rounding.  Returns the weights and F_Q of the last solve, on the
    final free set, with the spread of Kw + q over S and the least slack
    off S.

    The steps start from the solve on n // 2 rings: every ring within one
    coarse spacing of a coarse ring that carries mass is free, with its
    area weight, renormalized to a unit sum.  So each level above the
    coarsest moves only the few rings beside the coarse rim.  Below
    2 * _MIN_RINGS rings, or when the coarse solve fails, every ring
    starts free.  The final free set is the support of the QP's unique
    minimizer, whatever the start.  Weights that miss a unit sum by more
    than 1e-12, and a solve past the step cap, raise with the last weights
    on n rings as the estimate.
    """
    if not isinstance(n, (int, np.integer)) or n < _MIN_RINGS:
        raise ValueError(f"need at least {_MIN_RINGS} rings")
    n = int(n)
    coarse = None
    if n >= 2 * _MIN_RINGS:
        try:
            coarse = discrete_energy_minimize(field, n // 2)
        except NonconvergenceError:
            pass
    angles, w, interaction = ring_energy_system(n)
    q, floor = _shifted_field(field, angles)

    if coarse is None:
        free = np.ones(n, dtype=bool)
    else:
        carried = coarse.angles[coarse.weights > 0.0]
        free = np.abs(angles[:, None] - carried).min(axis=1) <= PI / coarse.angles.size
        w[~free] = 0.0
        w /= w.sum()
    steps = int(_STEPS_PER_RING * n)
    for _ in range(steps):
        idx = np.flatnonzero(free)
        m = idx.size
        bordered = np.ones((m + 1, m + 1))
        bordered[:m, :m] = interaction[idx[:, None], idx]
        bordered[m, m] = 0.0
        solution = dense_solve(bordered, np.append(-q[idx], 1.0))
        # freed before the next step allocates its own; with two alive, a
        # fresh point charge (1, 2) at 2048 rings peaked 9 MB higher
        del bordered
        v, fq = solution[:m], -float(solution[m])
        if v.min() >= 0.0:
            w[idx] = v
            station = interaction @ w + q
            slack = np.where(free, np.inf, station - fq)
            j = int(np.argmin(slack))
            if slack[j] >= -_SLACK_RTOL * max(abs(fq), 1.0):
                total = math.fsum(w)
                if not abs(total - 1.0) <= 1e-12:
                    raise NonconvergenceError(
                        f"ring weights sum to {total!r}, not 1 within 1e-12", w, abs(total - 1.0)
                    )
                spread = float(np.ptp(station[free]))
                min_slack = None if free.all() else float(slack[j])
                return EnergyMinimum(angles, w, fq + floor, spread, min_slack)
            free[j] = True
        else:
            step = v - w[idx]
            blocking = np.flatnonzero(step < 0.0)
            ratios = w[idx[blocking]] / -step[blocking]
            k = int(np.argmin(ratios))
            r = int(idx[blocking[k]])
            w[idx] = np.maximum(w[idx] + ratios[k] * step, 0.0)
            w[r] = 0.0
            free[r] = False
    station = interaction @ w + q
    residual = float(station[free].max() - station.min())
    raise NonconvergenceError(
        f"active-set solve did not settle in {steps} steps (KKT residual {residual:.3e})",
        w,
        residual,
    )
