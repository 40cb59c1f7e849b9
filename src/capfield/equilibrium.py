"""Equilibrium densities on south caps and their masses.

Densities are radial profiles f(phi) of the rotation-invariant equilibrium
measure d(mass) = f * dS restricted to a south cap (alpha, pi]; every
profile carries the inverse-square-root edge factor near the rim.  Closed
forms cover the no-field, point-charge (the on-sphere charge h = 1
included), and quadratic cases; the general pipeline handles any
admissible field through the two Abel stages.

All integrations near the rim use the cap's rim variable s =
sqrt(cos(alpha) - cos(phi)) (`geometry.SphericalCap`), in which
f*ds-densities are smooth and bounded.  A profile backed by a density
callable holds sigma(s) = s*f(phi(s)) as an adaptive Chebyshev table in a
variable graded toward the rim (`sigma_interpolant`); its integral is the
mass, and the potentials integrate it against the ring kernel.  The
Nystrom oracle builds its profiles itself, from its solved series.  Both
are one `_numerics.GradedSeries`, read as it is, never resampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from ._numerics import GradedSeries, chebyshev_table
from .fields import ExternalField, QuadraticField
from .geometry import PhiGrid, SphericalCap, _validated_angles
from .singular_quadrature import _second_stage_integral, _stage_F_south_vec, first_stage_table
from .support_finder import ffunctional_pointcharge, ffunctional_quadratic

PI = math.pi

# grid nodes must keep this clearance from the cap rim, where the density
# model switches to the analytic edge factor
RIM_GUARD_BAND = 1e-6


def edge_factor(alpha, phi):
    """Universal rim profile 1 + (2/pi)*(sqrt(r) - atan(sqrt(r))).

    r = (1 - cos alpha)/(cos alpha - cos phi) measures inverse depth into
    the cap; the factor tends to 1 deep inside and diverges like one over
    the square root of the rim distance.  Vectorized over phi.
    """
    cap = SphericalCap(alpha)
    p = _validated_angles(phi, "polar angle")
    r1 = cap.r1
    depth = cap.depth(p)
    if np.any(depth < 0.0):
        raise ValueError("angle lies outside the south cap")
    if r1 == 0.0:
        out = np.ones_like(p)
    else:
        with np.errstate(divide="ignore"):
            root = np.sqrt(r1 / depth)
        out = 1.0 + (2.0 / PI) * (root - np.arctan(root))
    if p.ndim == 0:
        return float(out)
    return out


def nofield_density(alpha: float, phi):
    """Equilibrium density of the bare south cap with rim angle alpha.

    Normalized to unit total mass; reduces to the uniform density 1/(4*pi)
    at alpha = 0.  Finite for phi > alpha, infinite at the rim itself.
    """
    cap = SphericalCap(alpha)
    return edge_factor(cap.alpha, phi) / (4.0 * cap.normalizer)


def _validated_support_angles(alpha0: float, phi) -> tuple[SphericalCap, np.ndarray]:
    """Support cap and polar angles, refused unless each angle lies inside the support."""
    cap = SphericalCap(alpha0)
    p = _validated_angles(phi, "polar angle")
    if np.any(p <= cap.alpha):
        raise ValueError("density is defined for angles strictly inside the support")
    return cap, p


def pointcharge_density(q: float, h: float, alpha0: float, phi):
    """Density and Robin constant for a point charge q at axis height h.

    The support rim alpha0 is taken as given (see the support finder); the
    density is evaluated at phi in (alpha0, pi].  Returns (f, F_Q) with f
    matching the shape of phi.  A charge on the sphere (h = 1) sits at the
    north pole and excavates a neighborhood of it for every q > 0, so
    there alpha0 must be positive.
    """
    if not (q > 0.0 and h > 0.0):
        raise ValueError("need q > 0 and h > 0")
    cap, p = _validated_support_angles(alpha0, phi)
    if h == 1.0 and cap.is_full_sphere:
        raise ValueError("on-sphere charge support excludes the pole; need alpha0 > 0")

    fq = ffunctional_pointcharge(q, h, cap.alpha)
    e = edge_factor(cap.alpha, p)

    r1 = cap.r1
    depth = cap.depth(p)
    # 1 + h^2 - 2h cos(phi), without its cancellation for h near 1
    d2 = (h - 1.0) ** 2 + 2.0 * h * (r1 + depth)
    with np.errstate(divide="ignore"):
        ratio = np.sqrt(r1 / depth)
        inv_ratio = np.sqrt(depth / r1) if r1 > 0.0 else np.full_like(depth, np.inf)
    term1 = ratio / d2
    term2 = (h - 1.0) / d2**1.5 * np.arctan((h - 1.0) / np.sqrt(d2) * inv_ratio)
    inhomog = -q * (h + 1.0) / (2.0 * PI * PI) * (term1 + term2)

    f = fq / (4.0 * PI) * e + inhomog
    if np.asarray(phi).ndim == 0:
        return float(f), float(fq)
    return f, float(fq)


def quadratic_density(a: float, b: float, c: float, alpha0: float, phi):
    """Density and Robin constant for the quadratic field on a given support."""
    QuadraticField(a, b, c)  # admissibility
    cap, p = _validated_support_angles(alpha0, phi)

    fq = ffunctional_quadratic(a, b, c, cap.alpha)
    e = edge_factor(cap.alpha, p)

    ca = math.cos(cap.alpha)
    r1 = cap.r1
    depth = cap.depth(p)
    cp = np.cos(p)
    t1 = cap.sqrt_r1 * np.sqrt(depth) * (
        20.0 * a * ca + 60.0 * a * cp + 10.0 * a + 27.0 * b
    )
    t2 = np.sqrt(r1 / depth) * (
        8.0 * a * ca * ca
        + 10.0 * a * ca * cp
        + (4.0 * a + 9.0 * b) * ca
        + (20.0 * a + 27.0 * b) * cp
        + 15.0 * a * np.cos(2.0 * p)
        + 9.0 * a
        + 18.0 * b
        + 18.0 * c
    )
    t3 = (
        6.0
        * np.arctan(np.sqrt(depth / r1))
        * (15.0 * a * cp * cp + 9.0 * b * cp - 4.0 * a + 3.0 * c)
    )
    inhomog = (t1 - t2 - t3) / (36.0 * PI * PI)

    f = fq / (4.0 * PI) * e + inhomog
    if np.asarray(phi).ndim == 0:
        return float(f), float(fq)
    return f, float(fq)


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Radial density samples on a cap, with its rim-variable density.

    values[i] is the surface density at grid.nodes[i]; sigma(s) is
    f(phi(s)) * s in the cap's rim variable, a graded Chebyshev series
    (see `sigma_interpolant`), which is what potentials and the mass
    integrate.  mass is 4 pi times the integral of sigma over [0, smax];
    negative_nodes lists indices where the computed density came out
    negative (flagged, never clamped).
    """

    cap: SphericalCap
    grid: PhiGrid
    values: np.ndarray
    robin_constant: float
    sigma: GradedSeries = dataclass_field(repr=False)
    mass: float = dataclass_field(init=False)
    negative_nodes: tuple[int, ...] = dataclass_field(init=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (len(self.grid),):
            raise ValueError("values must match the grid node count")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "robin_constant", float(self.robin_constant))
        object.__setattr__(self, "mass", 4.0 * PI * self.sigma.integral())
        negative = tuple(int(i) for i in np.flatnonzero(arr < 0.0))
        object.__setattr__(self, "negative_nodes", negative)


def sigma_interpolant(
    cap: SphericalCap,
    density_fn: Callable[[np.ndarray], np.ndarray],
    noise: tuple[float, int],
) -> GradedSeries:
    """The series sigma(s) = f(phi(s)) * s in the cap's rim variable.

    sigma is smooth and bounded up to s = 0 even though f itself blows up
    at the rim, so this is the right variable for potentials and masses.
    It is tabulated from the density callable as a Chebyshev series of
    adaptive degree (see `chebyshev_table`) in the variable u of [0, 1]
    with s = s_lo + d*sinh(A*u), graded toward the rim on the scale
    d = max(sqrt(r1), s_lo) on which the edge part turns over,
    however small the rim; a full sphere has no edge part, and d = smax.
    The samples start at s_lo, clear of the rim guard band, inside the
    cap; below s_lo the series is read through a cubic.  noise is
    (relative tail, degree) of the series the callable reads, if any: the
    table stops once it is as fine as that.
    """
    alpha, smax = cap.alpha, cap.smax
    s_lo = float(cap.s_of_phi(min(alpha + 2.0 * RIM_GUARD_BAND, 0.5 * (alpha + PI))))
    scale = max(cap.sqrt_r1, s_lo) if alpha > 0.0 else smax
    stretch = math.asinh((smax - s_lo) / scale)

    def sample(x: np.ndarray) -> np.ndarray:
        # sigma at the points x = 2*u - 1 of [-1, 1]
        s = s_lo + scale * np.sinh(0.5 * stretch * (x + 1.0))
        return s * np.asarray(density_fn(cap.phi_of_s(s)), dtype=float)

    coeffs, _ = chebyshev_table(sample, "sigma table", noise)
    return GradedSeries(coeffs, s_lo, scale, stretch)


def profile_from_callable(
    cap: SphericalCap,
    grid: PhiGrid,
    fn: Callable[[np.ndarray], np.ndarray],
    robin_constant: float,
    noise: tuple[float, int] = (0.0, 0),
) -> DensityProfile:
    """Profile backed by a vectorized density callable.

    noise is (relative tail, degree) of the series fn reads, if any (see
    `sigma_interpolant`).
    """
    values = np.asarray(fn(grid.nodes), dtype=float)
    sigma = sigma_interpolant(cap, fn, noise)
    return DensityProfile(cap, grid, values, robin_constant, sigma)


def _check_grid_inside(cap: SphericalCap, grid: PhiGrid) -> None:
    if grid.nodes[0] < cap.alpha + RIM_GUARD_BAND:
        raise ValueError(
            f"grid reaches within {RIM_GUARD_BAND} of the cap rim at {cap.alpha!r}"
        )


def density_general(
    field: ExternalField, cap: SphericalCap, grid: PhiGrid
) -> DensityProfile:
    """Equilibrium density on a prescribed cap support for any field.

    Runs the two Abel stages on the supplied grid and assembles the density
    as Robin-weighted edge factor plus the field-driven correction.  The
    first stage is tabulated once per call and shared by the node values,
    the Robin constant and the profile's sigma table.  The
    grid must stay clear of the rim guard band.  Negative node values are
    flagged in the result, not clamped: they signal that the prescribed cap
    is not the true support.
    """
    _check_grid_inside(cap, grid)
    p = first_stage_table(field, cap.alpha)
    # 8*sqrt(m)*G(m) at the pole depth m, four times the second-stage
    # half-integral at the pole, is -(2/pi) times this integral
    pole = _second_stage_integral(lambda c: (1.0 - c) * p(c), np.array([cap.pole_depth]), cap)
    fq = PI / cap.normalizer * (1.0 + 2.0 / PI * float(pole[0]))

    def density_fn(phi):
        phi = np.asarray(phi, dtype=float)
        return fq / (4.0 * PI) * edge_factor(cap.alpha, phi) + _stage_F_south_vec(p, phi, cap)

    # sigma reads the second-stage integrand series: on a field that the
    # first stage resolves only to its plateau, a sigma table finer than
    # that series would chase its truncation up to the cap degree
    return profile_from_callable(cap, grid, density_fn, fq, p.integrand_noise)
