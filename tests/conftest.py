"""Shared test helpers."""

import math

import numpy as np

from capfield.fields import ExternalField
from capfield.geometry import PhiGrid, _validated_angle


class ShiftedField(ExternalField):
    """base field plus an exact constant offset."""

    def __init__(self, base: ExternalField, offset: float) -> None:
        if not math.isfinite(float(offset)):
            raise ValueError("offset must be finite")
        self.base = base
        self.offset = float(offset)

    def value_at_x3(self, x3):
        return self.base.value_at_x3(x3) + self.offset

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
