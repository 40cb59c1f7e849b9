"""Spherical geometry on the unit sphere.

Polar angles are measured from the north pole, in radians, in [0, pi].
A spherical cap is the south-centered cap of points with polar angle in
(alpha, pi], alpha its rim angle: the fields of the paper increase toward
the north pole, so their extremal supports are south caps.  The cap owns
its rim variable s = sqrt(cos(alpha) - cos(phi)) and the quantities of
alpha that the densities, stages and potentials share, each in the
half-angle form that keeps its relative accuracy at both poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numerics import np

PI = math.pi


def _validated_angle(value: float, *, name: str = "polar angle") -> float:
    v = float(value)
    if not 0.0 <= v <= PI:
        raise ValueError(f"{name} must lie in [0, pi], got {value!r}")
    return v


def _validated_angles(value, name: str) -> np.ndarray:
    """value as a float array of polar angles, refused unless all lie in [0, pi]."""
    angles = np.asarray(value, dtype=float)
    if np.any(~np.isfinite(angles)) or np.any(angles < 0.0) or np.any(angles > PI):
        raise ValueError(f"{name} must lie in [0, pi]")
    return angles


@dataclass(frozen=True)
class SphericalCap:
    """South cap with rim at polar angle alpha.

    alpha = 0 is the full sphere; alpha = pi, an empty cap, is refused.
    """

    alpha: float

    def __post_init__(self) -> None:
        a = _validated_angle(float(self.alpha), name="cap rim angle")
        object.__setattr__(self, "alpha", a)
        if a == PI:
            raise ValueError("south-centered cap with rim at pi is empty")

    @property
    def is_full_sphere(self) -> bool:
        return self.alpha == 0.0

    @property
    def r1(self) -> float:
        """1 - cos(alpha) = 2 sin^2(alpha/2): the rim's distance in cos
        from the north pole."""
        return 2.0 * math.sin(0.5 * self.alpha) ** 2

    @property
    def sqrt_r1(self) -> float:
        """sqrt(1 - cos(alpha)) = sqrt(2) sin(alpha/2): the rim variable's
        scale, on which the edge factor turns over."""
        return math.sqrt(2.0) * math.sin(0.5 * self.alpha)

    @property
    def pole_depth(self) -> float:
        """1 + cos(alpha) = 2 cos^2(alpha/2): the depth of the south pole."""
        return 2.0 * math.cos(0.5 * self.alpha) ** 2

    @property
    def smax(self) -> float:
        """sqrt(1 + cos(alpha)): the rim variable at the south pole."""
        return math.sqrt(2.0) * math.cos(0.5 * self.alpha)

    @property
    def normalizer(self) -> float:
        """pi - alpha + sin(alpha), pi times the cap's capacity."""
        return PI - self.alpha + math.sin(self.alpha)

    def depth(self, phi) -> np.ndarray:
        """cos(alpha) - cos(phi), accurate near the rim."""
        return 2.0 * np.sin(0.5 * (phi + self.alpha)) * np.sin(0.5 * (phi - self.alpha))

    def s_of_phi(self, phi) -> np.ndarray:
        """The rim variable s = sqrt(cos(alpha) - cos(phi)), 0 off the cap."""
        return np.sqrt(np.maximum(self.depth(np.asarray(phi, float)), 0.0))

    def phi_of_s(self, s) -> np.ndarray:
        """The polar angle of rim variable s, where cos(phi) = cos(alpha) - s^2.

        By half angles, as 2 arcsin(sqrt((1 - cos(phi)) / 2)) with 1 - cos(phi)
        = r1 + s^2 on the northern half and as pi - 2 arcsin(sqrt((1 +
        cos(phi)) / 2)) with 1 + cos(phi) = (smax - s)(smax + s) on the
        southern, so phi keeps its accuracy near either pole, where the
        cosine rounds to +-1.
        """
        s = np.asarray(s, float)
        north = self.r1 + s * s
        south = np.maximum(self.smax - s, 0.0) * (self.smax + s)
        return np.where(
            north <= 1.0,
            2.0 * np.arcsin(np.sqrt(0.5 * np.minimum(north, 1.0))),
            PI - 2.0 * np.arcsin(np.sqrt(0.5 * np.minimum(south, 1.0))),
        )


def capacity_south_cap(alpha: float) -> float:
    """Newtonian capacity of the south cap with rim angle alpha."""
    return SphericalCap(alpha).normalizer / PI


@dataclass(frozen=True, eq=False)
class PhiGrid:
    """Strictly increasing polar-angle nodes."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        arr = _validated_angles(self.nodes, "grid nodes")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("grid nodes must form a nonempty 1-d array")
        if np.any(np.diff(arr) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "nodes", arr)

    def __len__(self) -> int:
        return int(self.nodes.size)


def boundary_clustered_grid(cap: SphericalCap, n: int) -> PhiGrid:
    """n interior nodes clustered quadratically toward the cap rim.

    Uses the map alpha + (pi - alpha) * sin^2(pi u / 2) on a uniform open
    u-grid.  Spacing near the rim shrinks like 1/n^2, which resolves the
    inverse-square-root edge behavior of equilibrium densities.
    """
    if n < 1:
        raise ValueError("need at least one node")
    u = np.arange(1, n + 1) / (n + 1.0)
    s2 = np.sin(0.5 * PI * u) ** 2
    return PhiGrid(cap.alpha + (PI - cap.alpha) * s2)
