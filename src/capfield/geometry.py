"""Spherical geometry on the unit sphere.

Polar angles are measured from the north pole, in radians, in [0, pi].
A spherical cap is the set of points whose polar angle lies on one side of
a rim angle alpha; caps centered at the south pole carry the angular
interval (alpha, pi], caps centered at the north pole carry [0, alpha).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

PI = math.pi


def _validated_angle(value: float, *, name: str = "polar angle") -> float:
    v = float(value)
    if not 0.0 <= v <= PI:
        raise ValueError(f"{name} must lie in [0, pi], got {value!r}")
    return v


class Orientation(enum.Enum):
    NORTH_CENTERED = "north"
    SOUTH_CENTERED = "south"


@dataclass(frozen=True)
class SphericalCap:
    """Cap with rim at polar angle alpha.

    South-centered caps allow alpha = 0 (the full sphere) but not alpha = pi;
    north-centered caps allow alpha = pi but not alpha = 0, so that a cap is
    never empty.
    """

    orientation: Orientation
    alpha: float

    def __post_init__(self) -> None:
        a = _validated_angle(float(self.alpha), name="cap rim angle")
        object.__setattr__(self, "alpha", a)
        if self.orientation is Orientation.SOUTH_CENTERED and a == PI:
            raise ValueError("south-centered cap with rim at pi is empty")
        if self.orientation is Orientation.NORTH_CENTERED and a == 0.0:
            raise ValueError("north-centered cap with rim at 0 is empty")

    @property
    def is_full_sphere(self) -> bool:
        if self.orientation is Orientation.SOUTH_CENTERED:
            return self.alpha == 0.0
        return self.alpha == PI

    def angular_interval(self) -> tuple[float, float]:
        """Closure of the polar-angle interval covered by the cap."""
        if self.orientation is Orientation.SOUTH_CENTERED:
            return (self.alpha, PI)
        return (0.0, self.alpha)


def south_cap(alpha: float) -> SphericalCap:
    return SphericalCap(Orientation.SOUTH_CENTERED, float(alpha))


def north_cap(alpha: float) -> SphericalCap:
    return SphericalCap(Orientation.NORTH_CENTERED, float(alpha))


@dataclass(frozen=True, eq=False)
class PhiGrid:
    """Strictly increasing polar-angle nodes."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.nodes, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("grid nodes must form a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid nodes must be finite")
        if np.any(arr < 0.0) or np.any(arr > PI):
            raise ValueError("grid nodes must lie in [0, pi]")
        if np.any(np.diff(arr) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "nodes", arr)

    def __len__(self) -> int:
        return int(self.nodes.size)


def boundary_clustered_grid(cap: SphericalCap, n: int) -> PhiGrid:
    """n interior nodes clustered quadratically toward the cap rim.

    Uses the map alpha + (pi - alpha) * sin^2(pi u / 2) on a uniform open
    u-grid for south-centered caps, and its reflection for north-centered
    ones.  Spacing near the rim shrinks like 1/n^2, which resolves the
    inverse-square-root edge behavior of equilibrium densities.
    """
    if n < 1:
        raise ValueError("need at least one node")
    u = np.arange(1, n + 1) / (n + 1.0)
    s2 = np.sin(0.5 * PI * u) ** 2
    if cap.orientation is Orientation.SOUTH_CENTERED:
        nodes = cap.alpha + (PI - cap.alpha) * s2
    else:
        nodes = np.sort(cap.alpha * (1.0 - s2))
    return PhiGrid(nodes)
