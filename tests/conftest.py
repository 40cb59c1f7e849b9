"""Shared test helpers."""

import math

from capfield.fields import ExternalField


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
