"""Independent ground-truth solvers for weighted cap equilibria.

Two routes that never touch the closed-form densities, so either can
referee them.  ``nystrom_solve`` discretizes the potential-balance
equation on a prescribed cap by product-integration collocation and
solves for the density together with the potential level in one dense
system.  ``discrete_energy_minimize`` drops any support assumption: it
minimizes the discretized weighted energy over probability weights on
latitude rings covering the whole sphere, and the support emerges from
the active set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve as dense_solve

from .equilibrium import DensityProfile, _edge_coordinate_maps, profile_from_values
from .fields import ExternalField, ReflectedField
from .geometry import Orientation, SphericalCap, boundary_clustered_grid, south_cap
from .potential import kernel_rule, ring_kernel
from .singular_quadrature import NonconvergenceError

PI = math.pi

_MIN_NODES = 16
_DEGENERATE_GAP = 1e-6

_MIN_RINGS = 32
_DEFAULT_ITERATIONS = 20000
_POWER_ITERATIONS = 100
_STEP_TOL = 1e-14


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative ring weights summing to one.

    Each entry places mass ``weights[i]`` on the latitude band of
    angular half-width ``ring_halfwidths[i]`` centred at polar angle
    ``ring_angles[i]``.
    """

    ring_angles: Tuple[float, ...]
    weights: Tuple[float, ...]
    ring_halfwidths: Tuple[float, ...]

    def __post_init__(self) -> None:
        angles = tuple(float(a) for a in self.ring_angles)
        weights = tuple(float(w) for w in self.weights)
        halfwidths = tuple(float(h) for h in self.ring_halfwidths)
        object.__setattr__(self, "ring_angles", angles)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "ring_halfwidths", halfwidths)
        if not (len(angles) == len(weights) == len(halfwidths)) or not angles:
            raise ValueError("ring_angles, weights, ring_halfwidths must share a nonzero length")
        for a in angles:
            if not (0.0 <= a <= PI) or not math.isfinite(a):
                raise ValueError(f"ring angle {a!r} outside [0, pi]")
        for h in halfwidths:
            if not (h > 0.0) or not math.isfinite(h):
                raise ValueError("ring half-widths must be positive")
        for w in weights:
            if not (w >= 0.0) or not math.isfinite(w):
                raise ValueError("weights must be nonnegative and finite")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")


@dataclass(frozen=True, eq=False)
class RingSystem:
    """Ring layout and pairwise interaction energies behind the minimizer.

    ``interaction[i, j]`` is the mutual energy of unit masses on rings i
    and j; the diagonal carries the regularized self-energy.
    ``effective_widths`` restates the diagonal through the thin-ring
    formula log(8 sin(phi) / width) / (pi sin(phi)) for inspection.
    """

    angles: np.ndarray
    halfwidth: float
    area_weights: np.ndarray
    interaction: np.ndarray
    effective_widths: np.ndarray

    def __post_init__(self) -> None:
        for name in ("angles", "area_weights", "interaction", "effective_widths"):
            getattr(self, name).flags.writeable = False


def ring_energy_system(n: int) -> RingSystem:
    """Interaction matrix for n equally spaced latitude rings.

    Off-diagonal entries come from the azimuthally averaged kernel.  The
    diagonal is calibrated row by row so the known uniform measure on
    the full sphere (weights proportional to ring areas) reproduces its
    constant potential 1 at every ring; the total energy then equals the
    sphere value 1 identically.  The interior effective widths implied
    by this calibration settle near halfwidth/pi, the thin-ring value.
    """
    if not isinstance(n, (int, np.integer)) or n < 8:
        raise ValueError("need at least 8 rings")
    n = int(n)
    phi = (np.arange(n) + 0.5) * (PI / n)
    halfwidth = 0.5 * PI / n
    sines = np.sin(phi)
    area = sines / sines.sum()

    def row(i: int) -> np.ndarray:
        out = np.empty(n)
        mask = np.arange(n) != i
        out[mask] = ring_kernel(float(phi[i]), phi[mask]) / (2.0 * PI)
        out[i] = 0.0
        return out

    interaction = np.vstack([row(i) for i in range(n)])
    off = interaction @ area
    diag = (1.0 - off) / area
    interaction[np.arange(n), np.arange(n)] = diag
    effective = 8.0 * sines * np.exp(-PI * sines * diag)
    return RingSystem(phi, halfwidth, area, interaction, effective)


def nystrom_solve(
    field: ExternalField, cap: SphericalCap, n: int
) -> Tuple[DensityProfile, float]:
    """Solve the potential-balance equation on a prescribed cap.

    The density is sought as smooth-times-edge-factor: in the rim
    coordinate s = sqrt(|cos(rim) - cos(phi)|) the unknown s*f(phi(s))
    is represented by a cubic spline through its values at the n
    boundary-clustered nodes, which builds the inverse-square-root rim
    behaviour into the ansatz.  Each collocation row is
    `potential.kernel_rule` at a node, with the knots as panel ends,
    applied to the spline basis, so the rows use the same quadrature as
    the potential.  Appending the unit-mass row yields an (n+1) x (n+1)
    dense system for the node values and the potential level, returned as
    a profile plus that level.
    """
    if not isinstance(n, (int, np.integer)) or n < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} nodes")
    n = int(n)
    if cap.orientation is Orientation.NORTH_CENTERED:
        mirrored, fq = nystrom_solve(ReflectedField(field), south_cap(PI - cap.alpha), n)
        grid = boundary_clustered_grid(cap, n)
        values = np.asarray(mirrored.values)[::-1]
        return profile_from_values(cap, grid, values, fq), fq

    alpha = cap.alpha
    if PI - alpha <= _DEGENERATE_GAP:
        raise ValueError("cap is degenerate: rim angle within 1e-6 of pi")

    grid = boundary_clustered_grid(cap, n)
    nodes = np.asarray(grid.nodes)
    s_of_phi, _, smax = _edge_coordinate_maps(cap)
    knots = np.asarray(s_of_phi(nodes))
    basis = CubicSpline(knots, np.eye(n), axis=0, bc_type="not-a-knot")

    def assemble(i: int) -> np.ndarray:
        points, weights = kernel_rule(float(nodes[i]), alpha, smax, knots)
        return weights @ basis(points)

    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = np.vstack([assemble(i) for i in range(n)])
    system[:n, n] = -1.0
    antiderivative = basis.antiderivative()
    system[n, :n] = 4.0 * PI * (antiderivative(smax) - antiderivative(0.0))

    rhs = np.zeros(n + 1)
    rhs[:n] = -field.value_at_x3(np.clip(np.cos(nodes), -1.0, 1.0))
    rhs[n] = 1.0

    solution = dense_solve(system, rhs)
    values = solution[:n] / knots
    fq = float(solution[n])
    if not (np.all(np.isfinite(values)) and math.isfinite(fq)):
        raise NonconvergenceError(
            "collocation system produced non-finite values", math.nan, math.inf
        )
    return profile_from_values(cap, grid, values, fq), fq


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    counts = np.arange(1, len(v) + 1)
    rho = counts[u - shifted / counts > 0][-1]
    return np.maximum(v - shifted[rho - 1] / rho, 0.0)


def discrete_energy_minimize(
    field: ExternalField, n: int, iterations: int = _DEFAULT_ITERATIONS
) -> DiscreteMeasure:
    """Minimize the discretized weighted energy over ring weights.

    Projected gradient on w^T K w + 2 q^T w over the probability
    simplex, fixed step 1/L with L from power iteration on K.  Starts
    from the uniform (area-weight) measure; no support is assumed.
    Stops early once the sup-norm step drops below 1e-14; if the
    iteration cap is hit first, the raised error carries the last
    iterate and the projected-gradient residual.
    """
    if not isinstance(n, (int, np.integer)) or n < _MIN_RINGS:
        raise ValueError(f"need at least {_MIN_RINGS} rings")
    if not isinstance(iterations, (int, np.integer)) or iterations < 1:
        raise ValueError("iterations must be a positive integer")
    n = int(n)
    system = ring_energy_system(n)
    interaction = system.interaction
    q = field.value_at_x3(np.clip(np.cos(system.angles), -1.0, 1.0))

    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(_POWER_ITERATIONS):
        v = interaction @ v
        v /= np.linalg.norm(v)
    lipschitz = 2.0 * float(v @ (interaction @ v))
    step = 1.0 / lipschitz

    w = system.area_weights.copy()
    halfwidths = np.full(n, system.halfwidth)
    for _ in range(int(iterations)):
        updated = _project_simplex(w - step * 2.0 * (interaction @ w + q))
        move = float(np.abs(updated - w).max())
        w = updated
        if move <= _STEP_TOL:
            return DiscreteMeasure(system.angles, w, halfwidths)
    residual = move / step
    raise NonconvergenceError(
        f"projected gradient did not settle in {iterations} iterations "
        f"(residual {residual:.3e})",
        estimate=DiscreteMeasure(system.angles, w, halfwidths),
        error_bound=residual,
    )
