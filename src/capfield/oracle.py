"""Independent ground-truth solvers for weighted cap equilibria.

Two routes that never touch the closed-form densities, so either can
referee them.  ``nystrom_solve`` discretizes the potential-balance
equation on a prescribed cap by product-integration collocation and
solves for the density together with the potential level in one dense
system.  ``discrete_energy_minimize`` drops any support assumption: it
minimizes the discretized weighted energy over probability weights on
latitude rings covering the whole sphere by an exact active-set solve,
and the support emerges as the set of rings left free.  Its steps update
one inverse of the ring interaction matrix on the free set by rank-one
changes; a single fresh bordered solve certifies the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._numerics import NonconvergenceError, PiecewiseCubic
from .equilibrium import DensityProfile
from .fields import ExternalField
from .geometry import SphericalCap, boundary_clustered_grid
from .potential import _ROW_BLOCK, _SIDE_U, kernel_layout, kernel_rule, ring_kernel

PI = math.pi

_MIN_NODES = 16
_DEGENERATE_GAP = 1e-6

_MIN_RINGS = 32
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
    in one call over the pairs i < j, mirrored: the kernel is bitwise
    symmetric.  The diagonal, the regularized self-energy, is calibrated
    row by row so the known uniform measure on the full sphere (the area
    weights, proportional to ring areas) reproduces its constant potential
    1 at every ring; the total energy then equals the sphere value 1
    identically.  The interior effective widths implied by this
    calibration settle near halfwidth/pi, the thin-ring value, with
    halfwidth = pi / (2n) the rings' angular half-width.
    """
    if not isinstance(n, (int, np.integer)) or n < 8:
        raise ValueError("need at least 8 rings")
    n = int(n)
    phi = (np.arange(n) + 0.5) * (PI / n)
    sines = np.sin(phi)
    area = sines / sines.sum()

    rows, cols = np.triu_indices(n, 1)
    interaction = np.zeros((n, n))
    interaction[rows, cols] = ring_kernel(phi[rows], phi[cols]) / (2.0 * PI)
    interaction[cols, rows] = interaction[rows, cols]
    off = interaction @ area
    interaction[np.arange(n), np.arange(n)] = (1.0 - off) / area
    return phi, area, interaction


def _solve_tridiagonal(banded: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X with M X = rhs, for M tridiagonal in the (1, 1) banded form of
    `scipy.linalg.solve_banded`: row 0 holds M[i - 1, i], row 1 the
    diagonal and row 2 M[i + 1, i].

    Gaussian elimination without pivoting, then back substitution, each a
    loop over the rows of a C-ordered copy of rhs, so that every step is
    one vector operation across all right-hand sides.  Without pivoting
    this is stable when every pivot stays well away from 0; for the
    not-a-knot slopes, see `_not_a_knot_rows`.
    """
    above, diagonal, below = (band.tolist() for band in banded)
    solution = np.array(rhs, dtype=float, order="C")
    rows = list(solution)
    pivots = [diagonal[0]]
    for i in range(1, len(rows)):
        factor = below[i - 1] / pivots[-1]
        pivots.append(diagonal[i] - factor * above[i])
        rows[i] -= factor * rows[i - 1]
    rows[-1] /= pivots[-1]
    for i in range(len(rows) - 2, -1, -1):
        rows[i] -= above[i + 1] * rows[i + 1]
        rows[i] /= pivots[i]
    return solution


def _not_a_knot_rows(knots: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Rows sum_{k,j} moments[:, k, j] c[k, j] as maps of the node values y.

    c is the pp-form of the not-a-knot cubic spline through (knots, y):
    c[k, j] multiplies (s - knots[j])^(3-k) on interval j.  With h the
    knot spacings, D the divided differences of y and t the spline's
    slopes at the knots, c[3, j] = y_j, c[2, j] = t_j, c[1, j] =
    (3 D_j - 2 t_j - t_(j+1)) / h_j and c[0, j] = (t_j + t_(j+1) - 2 D_j)
    / h_j^2 (de Boor, A Practical Guide to Splines, ch. IV).  So the rows
    are L y + G t + E D, with L from moments[:, 3] and G and E from the
    other three.  The slopes solve the tridiagonal system A t = B D,
    whose first and last rows carry the not-a-knot conditions, so G t =
    (A^-T G^T)^T B D: one tridiagonal solve with A^T for all rows at once,
    then B and D as bidiagonal updates.
    That is O(n^2) for n knots, where building the pp-form of the n x n
    identity and multiplying by it costs O(n^3).

    A^T is solved without pivoting, which is stable here although its
    end columns, the not-a-knot rows of A, are not diagonally dominant.
    Its interior columns are A's dominant rows and stay dominant through
    the elimination.  The first pivot is h_1 with multiplier 1 + h_0 / h_1,
    and the second is then h_0 + h_1 exactly.  The last pivot is at least
    h_(n-3) / (2 + h_(n-2) / h_(n-3)).  On boundary-clustered knots both
    factors stay below 2.3 (rims 0 to pi - 1e-5, n = 16 to 512).
    """
    n, count = knots.size, len(moments)
    h = np.diff(knots)
    d_start, d_end = knots[2] - knots[0], knots[-1] - knots[-3]
    # G (on_slopes) and E (on_diffs) from a = m1 / h and b = m0 / h^2:
    # t_j takes m2 - 2a + b, t_(j+1) takes b - a and D_j takes
    # 3a - 2b = a - 2(b - a)
    a = moments[:, 1] / h
    b_minus_a = moments[:, 0] / (h * h)
    b_minus_a -= a
    on_slopes = np.empty((count, n))
    np.subtract(moments[:, 2], a, out=on_slopes[:, :-1])
    on_slopes[:, :-1] += b_minus_a
    on_slopes[:, -1] = 0.0
    on_slopes[:, 1:] += b_minus_a
    on_diffs = b_minus_a
    on_diffs *= -2.0
    on_diffs += a
    # A in banded form, transposed: row 0 holds A[i + 1, i], row 2 A[i, i + 1]
    a_t = np.zeros((3, n))
    a_t[0, 1:-1] = h[1:]
    a_t[0, -1] = d_end
    a_t[1, 0], a_t[1, -1] = h[1], h[-2]
    a_t[1, 1:-1] = 2.0 * (h[:-1] + h[1:])
    a_t[2, 0] = d_start
    a_t[2, 1:-1] = h[:-1]
    z = _solve_tridiagonal(a_t, on_slopes.T).T
    # z B: the interior rows of B D are 3 h_i D_(i-1) + 3 h_(i-1) D_i
    inner, scratch = z[:, 1:-1], a[:, :-1]
    on_diffs[:, :-1] += np.multiply(inner, 3.0 * h[1:], out=scratch)
    on_diffs[:, 1:] += np.multiply(inner, 3.0 * h[:-1], out=scratch)
    on_diffs[:, :2] += z[:, :1] * [(h[0] + 2.0 * d_start) * h[1] / d_start, h[0] ** 2 / d_start]
    on_diffs[:, -2:] += z[:, -1:] * [h[-1] ** 2 / d_end, (2.0 * d_end + h[-1]) * h[-2] / d_end]
    on_diffs /= h
    rows = np.empty((count, n))
    np.subtract(moments[:, 3], on_diffs, out=rows[:, :-1])
    rows[:, -1] = 0.0
    rows[:, 1:] += on_diffs
    return rows


def nystrom_solve(
    field: ExternalField, cap: SphericalCap, n: int
) -> DensityProfile:
    """Solve the potential-balance equation on a prescribed south cap.

    The density is sought as smooth-times-edge-factor: in the rim
    coordinate s = sqrt(cos(alpha) - cos(phi)) the unknown s*f(phi(s))
    is represented by a not-a-knot cubic spline through its values at the
    n boundary-clustered nodes, which builds the inverse-square-root rim
    behaviour into the ansatz.  The collocation rows apply
    `potential.kernel_rule` at the nodes, a block of rows at a time, with
    one `KernelLayout` built per solve, whose panel ends are the knots,
    so the rows use the same quadrature as the potential.  The basis is
    never evaluated: the rule's weights are binned by knot interval j into
    the product-integration moments sum w*(s - s_j)^(3-k) (Atkinson, The
    Numerical Solution of Integral Equations of the Second Kind, 1997,
    sec. 4.2), and `_not_a_knot_rows` maps them to the rows in O(n^2).
    The shared GL-8 panels have one precomputed power tensor and their
    moments one product per panel.  A node's diagonal is its own knot, so
    its graded sides span the intervals below and above it with offsets
    W(1 - u) and W u from their left knots, W the interval's width: their
    moments are one product with a fixed table of (1 - u)^(3-k) or
    u^(3-k), scaled by W^(3-k).  Only the first node's side below and the
    last node's side above fall outside the knots, to the end intervals,
    as the spline extrapolates; those two take the offsets from the
    points themselves.  The unit-mass row is one more moment row, the
    integral of (s - s_j)^(3-k) over each interval's span, with [0, s_0]
    and [s_(n-1), smax] in the end intervals.  The (n+1) x (n+1) dense
    system gives s*f at the nodes and the potential level, returned as a
    node-only profile: its sigma is the monotone PCHIP through the solved
    s*f at the knots, extrapolated to the rim and to smax, and its Robin
    constant is the level.
    """
    if not isinstance(n, (int, np.integer)) or n < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} nodes")
    n = int(n)
    if PI - cap.alpha <= _DEGENERATE_GAP:
        raise ValueError("cap is degenerate: rim angle within 1e-6 of pi")

    grid = boundary_clustered_grid(cap, n)
    nodes = np.asarray(grid.nodes)
    knots = np.asarray(cap.s_of_phi(nodes))
    layout = kernel_layout(cap, knots)
    widths = np.diff(knots)
    powers = np.arange(3, -1, -1)

    # the layout's panels: one per interval of 0, the knots and smax, the
    # first and last falling to the spline's end intervals
    panel_s = layout.shared_s.reshape(n + 1, -1)
    panel_j = np.clip(np.arange(n + 1) - 1, 0, n - 2)
    panel_powers = (panel_s - knots[panel_j][:, None])[:, :, None] ** powers
    shared = panel_s.size
    # row i's graded sides, below then above, span spline intervals i - 1
    # and i, at offsets W(1 - u) and W u: (side, point, k) and (row, side, k)
    side_table = np.stack(((1.0 - _SIDE_U)[:, None] ** powers, _SIDE_U[:, None] ** powers))
    side_j = np.clip(np.arange(n)[:, None] + np.array([-1, 0]), 0, n - 2)
    side_scale = widths[side_j][:, :, None] ** powers
    # row n is the unit-mass row
    moments = np.zeros((n + 1, 4, n - 1))
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, min(start + _ROW_BLOCK, n))
        points, weights = kernel_rule(layout, nodes[rows])
        m = len(points)
        block = moments[rows]
        # (panel, row, k): one panel-size x 4 product per panel
        panel_w = weights[:, :shared].reshape(m, n + 1, -1).transpose(1, 0, 2)
        per_panel = np.matmul(panel_w, panel_powers)
        block += per_panel[1:n].transpose(1, 2, 0)
        block[:, :, 0] += per_panel[0]
        block[:, :, -1] += per_panel[n]
        # (row, side, k): one 196 x 4 product per side
        side_w = weights[:, shared:].reshape(m, 2, -1)
        per_side = np.matmul(side_w.transpose(1, 0, 2), side_table).transpose(1, 0, 2)
        per_side *= side_scale[rows]
        j = side_j[rows]
        # the first node's side below and the last node's side above lie
        # outside the knots: their offsets come from the points
        side_s = points[:, shared:].reshape(m, 2, -1)
        for r, side in ((-start, 0), (n - 1 - start, 1)):
            if 0 <= r < m:
                offset = side_s[r, side] - knots[j[r, side]]
                per_side[r, side] = (side_w[r, side, :, None] * offset[:, None] ** powers).sum(0)
        r = np.arange(m)
        block[r, :, j[:, 0]] += per_side[:, 0]
        block[r, :, j[:, 1]] += per_side[:, 1]
    # the mass: int (s - s_j)^(3-k) ds over interval j, from 0 on the
    # first and to smax on the last
    lo = np.zeros(n - 1)
    lo[0] = -knots[0]
    hi = widths.copy()
    hi[-1] = cap.smax - knots[-2]
    exponents = (powers + 1)[:, None]
    moments[n] = (hi**exponents - lo**exponents) / exponents

    system = np.empty((n + 1, n + 1))
    system[:, :n] = _not_a_knot_rows(knots, moments)
    system[n, :n] *= 4.0 * PI
    system[:n, n] = -1.0
    system[n, n] = 0.0

    q, floor = _shifted_field(field, nodes)
    rhs = np.append(-q, 1.0)

    solution = dense_solve(system, rhs)
    sigma = solution[:n]
    fq = float(solution[n]) + floor
    if not (np.all(np.isfinite(sigma)) and math.isfinite(fq)):
        raise NonconvergenceError(
            "collocation system produced non-finite values", math.nan, math.inf
        )
    return DensityProfile(cap, grid, sigma / knots, fq, PiecewiseCubic.pchip(knots, sigma))


def _spd_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, formed in one
    Fortran-ordered copy: Cholesky factor, its inverse, then the upper
    triangle mirrored column by column."""
    from scipy.linalg.lapack import dpotrf, dpotri

    inverse, info = dpotrf(np.array(matrix, order="F"), overwrite_a=1)
    if info == 0:
        inverse, info = dpotri(inverse, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"ring interaction matrix not positive definite (info {info})")
    for i in range(inverse.shape[0] - 1):
        inverse[i + 1 :, i] = inverse[i, i + 1 :]
    return inverse


def _drop_ring(inverse: np.ndarray, r: int) -> None:
    """Bind ring r in place: the inverse on S minus r is G - g g^T / g_r
    on the rest, where g is column r of the inverse G on S."""
    from scipy.linalg.blas import dger

    column = inverse[:, r].copy()
    dger(-1.0 / column[r], column, column, a=inverse, overwrite_a=1)
    inverse[r, :] = 0.0
    inverse[:, r] = 0.0


def _free_ring(inverse: np.ndarray, interaction: np.ndarray, j: int) -> None:
    """Free bound ring j in place, by the Schur complement
    sigma = K_jj - K_Sj^T G K_Sj of the bordered inverse."""
    from scipy.linalg.blas import dger

    coupling = interaction[j]
    u = inverse @ coupling
    sigma = interaction[j, j] - coupling @ u
    dger(1.0 / sigma, u, u, a=inverse, overwrite_a=1)
    inverse[:, j] = -u / sigma
    inverse[j, :] = inverse[:, j]
    inverse[j, j] = 1.0 / sigma


def discrete_energy_minimize(field: ExternalField, n: int) -> EnergyMinimum:
    """Minimize the discretized weighted energy over ring weights, exactly.

    min w^T K w + 2 q^T w over the probability simplex is a strictly convex
    QP, solved by a primal active-set method (Nocedal & Wright, Numerical
    Optimization, 2nd ed., sec. 16.5).  Starting from the area weights with
    every ring free, each step solves [K_S 1; 1^T 0] on the free set S for
    the weights and F_Q through the kept inverse G of K_S (zero on bound
    rings): with x = G q and y = G 1, F_Q = (1 + sum x) / sum y and the
    weights are F_Q y - x.  G starts as K^-1 from one Cholesky factor and
    changes by a rank-one update whenever S gains or loses a ring.  A
    weight that would go negative stops the step at the boundary and fixes
    its ring at 0.  Once every weight is nonnegative, one fresh bordered
    solve on S certifies them (a negative weight there is dropped the same
    way); then the bound ring with the most negative slack Kw + q - F_Q is
    freed, until no slack lies below rounding.  Returns the weights and
    F_Q of that fresh solve with the spread of Kw + q over S and the least
    slack off S.  Weights that miss a unit sum by more than 1e-12, and a
    solve past the step cap, raise with the last weights as the estimate.
    """
    if not isinstance(n, (int, np.integer)) or n < _MIN_RINGS:
        raise ValueError(f"need at least {_MIN_RINGS} rings")
    n = int(n)
    angles, w, interaction = ring_energy_system(n)
    q, floor = _shifted_field(field, angles)

    inverse = _spd_inverse(interaction)
    rhs = np.column_stack((q, np.ones(n)))
    free = np.ones(n, dtype=bool)
    steps = int(_STEPS_PER_RING * n)
    for _ in range(steps):
        idx = np.flatnonzero(free)
        x, y = (inverse @ rhs).T
        fq = (1.0 + x.sum()) / y.sum()
        v = fq * y[idx] - x[idx]
        if np.all(v >= 0.0):
            bordered = np.pad(interaction[np.ix_(idx, idx)], (0, 1), constant_values=1.0)
            bordered[-1, -1] = 0.0
            solution = dense_solve(bordered, np.append(-q[idx], 1.0))
            v, fq = solution[:-1], -float(solution[-1])
        if np.all(v >= 0.0):
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
            _free_ring(inverse, interaction, j)
        else:
            step = v - w[idx]
            blocking = np.flatnonzero(step < 0.0)
            ratios = w[idx[blocking]] / -step[blocking]
            k = int(np.argmin(ratios))
            r = int(idx[blocking[k]])
            w[idx] = np.maximum(w[idx] + ratios[k] * step, 0.0)
            w[r] = 0.0
            free[r] = False
            _drop_ring(inverse, r)
    station = interaction @ w + q
    residual = float(station[free].max() - station.min())
    raise NonconvergenceError(
        f"active-set solve did not settle in {steps} steps (KKT residual {residual:.3e})",
        w,
        residual,
    )
