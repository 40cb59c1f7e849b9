"""Shared test helpers."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

import capfield.potential
from capfield.fields import ExternalField
from capfield.geometry import PhiGrid, _validated_angle
from capfield.support_finder import ffunctional


class ShiftedField(ExternalField):
    """base field plus an exact constant offset."""

    def __init__(self, base: ExternalField, offset: float) -> None:
        if not math.isfinite(float(offset)):
            raise ValueError("offset must be finite")
        self.base = base
        self.offset = float(offset)

    def value_at_x3(self, x3):
        return self.base.value_at_x3(x3) + self.offset

    def slope_at_x3(self, x3):
        return self.base.slope_at_x3(x3)

    def __repr__(self) -> str:
        return f"ShiftedField({self.base!r}, {self.offset!r})"


def uniform_grid(lo: float, hi: float, n: int) -> PhiGrid:
    """n equally spaced nodes strictly inside (lo, hi)."""
    a = _validated_angle(lo, name="interval endpoint")
    b = _validated_angle(hi, name="interval endpoint")
    if not a < b:
        raise ValueError("interval must have lo < hi")
    if n < 1:
        raise ValueError("need at least one node")
    u = np.arange(1, n + 1) / (n + 1.0)
    return PhiGrid(a + (b - a) * u)


def mass_by_quadrature(f, alpha: float) -> float:
    """4 pi times the integral of sigma(s) = f(phi(s)) * s over [0, smax] by
    scipy's adaptive quadrature: the mass of the closed-form density f, a
    callable of one polar angle, on the cap with rim angle alpha."""
    smax = math.sqrt(1.0 + math.cos(alpha))

    def sigma(s: float) -> float:
        u = min(1.0, max(-1.0, math.cos(alpha) - s * s))
        return f(math.acos(u)) * s

    val, err = quad(sigma, 0.0, smax, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-9
    return 4.0 * math.pi * val


@dataclass(frozen=True)
class GoldenSection:
    """Rim angle minimizing the F-functional; full_sphere when pinned at 0."""

    alpha0: float
    robin_constant: float
    full_sphere: bool
    width: float
    iterations: int


def golden_section_support(field: ExternalField, lo: float = 0.0,
                           hi: float = math.pi - 1e-6, xtol: float = 1e-8) -> GoldenSection:
    """Reference support by golden-section search over the F-functional.

    The rim minimizes F_Q over cap families, a route independent of the
    rim equation that `support_finder` solves.  The functional is unimodal
    on [0, pi) for admissible fields; a minimum pinned to the left edge
    means the whole sphere.  Near 0 the functional is cubically flat, so
    the iterate can stall on a rounding plateau: function values, not the
    iterate, decide the full sphere.
    """
    def f(alpha: float) -> float:
        return ffunctional(field, alpha)[0]

    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = float(lo), float(hi)
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    iterations = 0
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        iterations += 1
    alpha0 = 0.5 * (a + b)
    f_edge, f_star = f(lo), f(alpha0)
    if alpha0 <= 1e-6 or (lo == 0.0 and f_edge <= f_star + 1e-12 * max(1.0, abs(f_edge))):
        return GoldenSection(0.0, f_edge, True, b - a, iterations)
    return GoldenSection(alpha0, f_star, False, b - a, iterations)


@pytest.fixture
def kernel_work(monkeypatch):
    """Counts of the ring-kernel points evaluated and the `KernelLayout`s
    built, from wrappers around the kernel's K and the layout class."""
    counts = {"points": 0, "layouts": 0}
    ellipkm1, layout = capfield.potential._ellipkm1, capfield.potential.KernelLayout

    def counted_ellipkm1(p):
        counts["points"] += np.size(p)
        return ellipkm1(p)

    def counted_layout(*args, **kwargs):
        counts["layouts"] += 1
        return layout(*args, **kwargs)

    monkeypatch.setattr(capfield.potential, "_ellipkm1", counted_ellipkm1)
    monkeypatch.setattr(capfield.potential, "KernelLayout", counted_layout)
    return counts
