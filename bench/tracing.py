"""Per-layer counters and self times for a traced benchmark round.

Each layer is a capfield function.  `Tracer.install` wraps it at every
module attribute of the package that refers to it, which is where its
callers look it up, so the package's source stays untouched.  A layer
whose function no longer exists is reported as absent; the run goes on.

Self time is a span's duration minus the time covered by the spans of
other traced layers that it called.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "equilibrium", "fields", "geometry", "oracle", "potential",
           "singular_quadrature", "support_finder", "_numerics")

# layer -> (module, attribute, counter, reported figures).  The counter
# returns the amount of work in one call, from its arguments; each figure
# is reported as the metric "<layer>.<suffix>", from the calls, the work
# counted or the self time.
LAYERS = {
    "singular_quadrature._first_stage_integral": (
        "singular_quadrature", "_first_stage_integral", lambda a, k: np.size(a[1]),
        {"points": "work", "self_s": "self_s"}),
    "singular_quadrature._second_stage_integral": (
        "singular_quadrature", "_second_stage_integral", lambda a, k: np.size(a[1]),
        {"points": "work", "self_s": "self_s"}),
    "numerics.richardson_derivative": (
        "_numerics", "richardson_derivative", None, {"calls": "calls"}),
    "equilibrium.sigma_interpolant": (
        "equilibrium", "sigma_interpolant",
        lambda a, k: int(getattr(a[0], "_sigma_cache", None) is None),
        {"builds": "work", "self_s": "self_s"}),
    "equilibrium.density_general": (
        "equilibrium", "density_general", None, {"self_s": "self_s"}),
    "support_finder.ffunctional_numeric": (
        "support_finder", "ffunctional_numeric", None, {"calls": "calls", "self_s": "self_s"}),
    "support_finder.minimize_ffunctional": (
        "support_finder", "minimize_ffunctional", None, {"self_s": "self_s"}),
    "potential.potential_on_sphere": (
        "potential", "potential_on_sphere", None, {"calls": "calls", "self_s": "self_s"}),
    "potential.verify_equilibrium": (
        "potential", "verify_equilibrium", None, {"self_s": "self_s"}),
    "oracle._collocation_row": ("oracle", "_collocation_row", None, {"self_s": "self_s"}),
    "oracle.dense_solve": ("oracle", "dense_solve", None, {"self_s": "self_s"}),
    "oracle.ring_energy_system": ("oracle", "ring_energy_system", None, {"self_s": "self_s"}),
    "oracle._project_simplex": ("oracle", "_project_simplex", None, {"calls": "calls"}),
    "numerics.ordered_map": ("_numerics", "ordered_map", None, {"calls": "calls"}),
    "cli.emit_density_table": ("cli", "emit_density_table", None, {"self_s": "self_s"}),
    "cli.run": ("cli", "run", None, {"self_s": "self_s"}),
}

# field classes that evaluate Q themselves; wrappers that delegate to a
# base field are left alone, so each point is counted once
LEAF_FIELDS = ("ZeroField", "PointChargeField", "QuadraticField", "TabulatedField")
FIELD_LAYER = "fields.value_at_x3"
FIELD_FIGURES = {"points": "work", "calls": "calls", "self_s": "self_s"}

# (metric name, figure, layer) for every per-layer metric, in report order
METRICS = [(f"{FIELD_LAYER}.{suffix}", figure, FIELD_LAYER)
           for suffix, figure in FIELD_FIGURES.items()] + [
    (f"{layer}.{suffix}", figure, layer)
    for layer, (*_, figures) in LAYERS.items() for suffix, figure in figures.items()]


class Tracer:
    def __init__(self) -> None:
        self.modules = {}
        for name in MODULES:
            try:
                self.modules[name] = importlib.import_module(f"capfield.{name}")
            except ImportError:
                pass
        self.absent = []
        self._patches = []  # (owner, attribute, original)
        self._stack = []
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.self_s = defaultdict(float)

    def _wrap(self, name, fn, counter):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counter is not None:
                self.work[name] += counter(args, kwargs)
            self.calls[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                children = stack.pop()
                self.self_s[name] += spent - children
                if stack:
                    stack[-1] += spent

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attribute, value) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        self.absent = []
        for name, (module, attribute, counter, _) in LAYERS.items():
            home = self.modules.get(module)
            original = getattr(home, attribute, None) if home is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original, counter)
            for mod in self.modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        fields = self.modules.get("fields")
        found = False
        for cls_name in LEAF_FIELDS:
            cls = getattr(fields, cls_name, None) if fields is not None else None
            method = getattr(cls, "value_at_x3", None) if cls is not None else None
            if method is None or "value_at_x3" not in vars(cls):
                continue
            found = True
            self._patch(cls, "value_at_x3",
                        self._wrap(FIELD_LAYER, method, lambda a, k: np.size(a[1])))
        if not found:
            self.absent.append(FIELD_LAYER)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    def snapshot(self) -> dict:
        """Counters and self times of the calls made since the last reset."""
        return {
            "calls": dict(self.calls),
            "work": dict(self.work),
            "self_s": dict(self.self_s),
        }
