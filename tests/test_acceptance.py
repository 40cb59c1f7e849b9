"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test prints a single summary line with its measured margin, so a
verbose run reads as a pass/fail checklist.  Reference angles and Robin
constants below are reproduced by tests/oracles/compute_reference_values.py.
"""

import math
import time

import numpy as np

from capfield.equilibrium import (
    density_general,
    nofield_density,
    pointcharge_density,
    quadratic_density,
)
from capfield.fields import PointChargeField, QuadraticField, ZeroField
from capfield.geometry import SphericalCap, boundary_clustered_grid, capacity_south_cap
from capfield.oracle import discrete_energy_minimize, nystrom_solve
from capfield.potential import verify_equilibrium
from capfield.support_finder import gonchar_heights, solve_support
from conftest import golden_section_support, mass_by_quadrature

PI = math.pi

ALPHA0_PC_12 = 0.7270148450291979835692054
ALPHA0_PC_1HALF = 1.071329656580780854469236
ALPHA0_PC_2_15 = 1.25666806673354352428419
ALPHA0_NP_1 = 1.1217246238633008265287
ALPHA0_QUAD = 1.905121063815038955604994


def _report(num, label, detail, elapsed, budget):
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.3f}s"
    print(f"criterion {num:2d} ({label}): PASS  {detail}  [{elapsed * 1e3:.1f} ms]")


def _best_of(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_capacity_closed_form():
    capacity_south_cap(PI / 2)  # warm
    elapsed = _best_of(lambda: (capacity_south_cap(PI / 2), capacity_south_cap(0.0)))
    half = capacity_south_cap(PI / 2)
    err = abs(half - (0.5 + 1.0 / PI))
    assert err <= 1e-12
    assert capacity_south_cap(0.0) == 1.0
    _report(1, "cap capacity closed form", f"half-sphere err {err:.1e}", elapsed, 1e-3)


def test_criterion_02_critical_heights():
    gonchar_heights(1.0)  # warm
    elapsed = _best_of(lambda: gonchar_heights(1.0))
    heights = gonchar_heights(1.0)
    err_plus = abs(heights.h_plus - (3.0 + math.sqrt(5.0)) / 2.0)
    err_minus = abs(heights.h_minus - (5.0 - math.sqrt(17.0)) / 4.0)
    assert err_plus <= 1e-10
    assert err_minus <= 1e-10
    _report(2, "critical heights", f"errs {err_plus:.1e}/{err_minus:.1e}", elapsed, 1e-3)


def test_criterion_03_root_vs_minimization():
    t0 = time.perf_counter()
    worst = 0.0
    for q, h in ((1.0, 2.0), (1.0, 0.5), (2.0, 1.5), (0.5, 2.2)):
        by_root = solve_support(PointChargeField(q, h)).alpha0
        by_min = golden_section_support(PointChargeField(q, h)).alpha0
        worst = max(worst, abs(by_root - by_min))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    _report(3, "root vs minimization", f"worst gap {worst:.1e}", elapsed, 1.0)


def test_criterion_04_on_sphere_limit():
    t0 = time.perf_counter()
    worst = 0.0
    for q in (0.5, 1.0, 2.0):
        exact = solve_support(PointChargeField(q, 1.0)).alpha0
        for h in (1.0 - 1e-9, 1.0 + 1e-9):
            worst = max(worst, abs(solve_support(PointChargeField(q, h)).alpha0 - exact))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    _report(4, "on-sphere charge limit", f"worst gap {worst:.1e}", elapsed, 1.0)


def test_criterion_05_pipeline_vs_closed_form():
    t0 = time.perf_counter()
    cap = SphericalCap(ALPHA0_PC_12)
    grid = boundary_clustered_grid(cap, 64)
    assert len(grid.nodes) == 64
    computed = density_general(PointChargeField(1.0, 2.0), cap, grid)
    exact = pointcharge_density(1.0, 2.0, ALPHA0_PC_12, np.asarray(grid.nodes))[0]
    err_pc = float(np.max(np.abs(np.asarray(computed.values) - exact)))

    cap = SphericalCap(ALPHA0_QUAD)
    grid = boundary_clustered_grid(cap, 64)
    computed = density_general(QuadraticField(1.0, 2.5, 2.0), cap, grid)
    exact = quadratic_density(1.0, 2.5, 2.0, ALPHA0_QUAD, np.asarray(grid.nodes))[0]
    err_quad = float(np.max(np.abs(np.asarray(computed.values) - exact)))
    elapsed = time.perf_counter() - t0

    assert err_pc <= 1e-5
    assert err_quad <= 1e-5
    _report(5, "pipeline vs closed form", f"node errs {err_pc:.1e}/{err_quad:.1e}", elapsed, 30.0)


def test_criterion_06_unit_mass():
    t0 = time.perf_counter()
    densities = [("bare cap", a, lambda p, a=a: nofield_density(a, p))
                 for a in (PI / 6, PI / 3, PI / 2, 2 * PI / 3)]
    for q, h, a0 in (
        (1.0, 2.0, ALPHA0_PC_12),
        (1.0, 0.5, ALPHA0_PC_1HALF),
        (2.0, 1.5, ALPHA0_PC_2_15),
        (1.0, 1.0, ALPHA0_NP_1),
    ):
        name = "on-sphere charge" if h == 1.0 else f"charge q={q} h={h}"
        densities.append(
            (name, a0, lambda p, q=q, h=h, a0=a0: pointcharge_density(q, h, a0, p)[0])
        )
    densities.append(
        ("quadratic", ALPHA0_QUAD, lambda p: quadratic_density(1.0, 2.5, 2.0, ALPHA0_QUAD, p)[0])
    )
    masses = [(name, mass_by_quadrature(density, alpha)) for name, alpha, density in densities]
    worst = max(abs(mass - 1.0) for _, mass in masses)
    elapsed = time.perf_counter() - t0
    for name, mass in masses:
        assert abs(mass - 1.0) <= 1e-6, f"{name}: mass {mass!r}"
    _report(6, "unit mass", f"{len(masses)} densities, worst {worst:.1e}", elapsed, 10.0)


def test_criterion_07_variational_inequalities():
    t0 = time.perf_counter()
    pairs = [
        ("axis charge", PointChargeField(1.0, 2.0), ALPHA0_PC_12),
        ("on-sphere charge", PointChargeField(1.0, 1.0), ALPHA0_NP_1),
        ("quadratic", QuadraticField(1.0, 2.5, 2.0), ALPHA0_QUAD),
    ]
    for name, field, a0 in pairs:
        for shift in (0.0, 0.2, -0.2):
            cap = SphericalCap(a0 + shift)
            profile = density_general(field, cap, boundary_clustered_grid(cap, 48))
            report = verify_equilibrium(field, profile, tol=1e-4)
            if shift == 0.0:
                assert report.verdict, f"{name} at its support angle: {report}"
            else:
                assert not report.verdict, f"{name} shifted by {shift:+.1f}: {report}"
    elapsed = time.perf_counter() - t0
    _report(7, "variational inequalities", "3 fields x {0, +0.2, -0.2}", elapsed, 60.0)


def test_criterion_08_collocation_oracle():
    t0 = time.perf_counter()
    errs = {}
    for n in (64, 128):
        profile = nystrom_solve(ZeroField(), SphericalCap(PI / 3), n)
        exact = nofield_density(PI / 3, np.asarray(profile.grid.nodes))
        errs[n] = float(np.max(np.abs(np.asarray(profile.values) - exact) / exact))
    profile = nystrom_solve(PointChargeField(1.0, 2.0), SphericalCap(ALPHA0_PC_12), 96)
    exact = pointcharge_density(1.0, 2.0, ALPHA0_PC_12, np.asarray(profile.grid.nodes))[0]
    err_pc = float(np.max(np.abs(np.asarray(profile.values) - exact) / exact))
    elapsed = time.perf_counter() - t0

    assert errs[64] <= 1e-2
    assert errs[64] >= 2.0 * errs[128], f"refinement gain {errs[64] / errs[128]:.2f}x"
    assert err_pc <= 1e-2
    _report(
        8,
        "collocation oracle",
        f"bare {errs[64]:.1e} -> {errs[128]:.1e}, charged {err_pc:.1e}",
        elapsed,
        60.0,
    )


def test_criterion_09_support_emergence():
    t0 = time.perf_counter()
    n = 64
    result = discrete_energy_minimize(PointChargeField(1.0, 2.0), n)
    angles, weights = result.angles, result.weights
    above = angles < ALPHA0_PC_12 - 2.0 * (PI / n)
    assert above.any()
    leak = float(weights[above].max())
    assert leak < 1e-6, f"weight {leak!r} survives above the support rim"

    smallest = float(discrete_energy_minimize(PointChargeField(1.0, 3.0), n).weights.min())
    assert smallest > 0.0, "support collapsed for a charge beyond its critical height"
    elapsed = time.perf_counter() - t0
    _report(
        9,
        "support emergence",
        f"rim leak {leak:.1e}, full-sphere min weight {smallest:.1e}",
        elapsed,
        120.0,
    )


def test_criterion_10_rim_cancellation():
    t0 = time.perf_counter()
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    slopes = {}
    for name, a0, density in (
        ("axis charge", ALPHA0_PC_12, lambda a, e: pointcharge_density(1.0, 2.0, a, a + e)[0]),
        ("quadratic", ALPHA0_QUAD, lambda a, e: quadratic_density(1.0, 2.5, 2.0, a, a + e)[0]),
    ):
        for shift in (0.0, 0.2):
            f = np.array([density(a0 + shift, e) for e in eps])
            slope = float(np.polyfit(np.log(eps), np.log(np.abs(f)), 1)[0])
            slopes[name, shift] = slope
            if shift == 0.0:
                assert slope > -0.1, f"{name}: slope {slope:.3f} at the support angle"
            else:
                assert slope <= -0.45, f"{name}: slope {slope:.3f} off the support angle"
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k[0]}{'+' if k[1] else ''} {v:+.2f}" for k, v in slopes.items())
    _report(10, "rim cancellation", detail, elapsed, 5.0)
