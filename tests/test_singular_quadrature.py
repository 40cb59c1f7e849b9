"""Inverse-square-root quadrature and the two Abel transform stages.

Reference values labelled "frozen" were computed with mpmath at 40-digit
precision directly from the defining integrals; the script lives in
tests/oracles/compute_reference_values.py.
"""

import math

import numpy as np
import pytest

from capfield.fields import (
    PointChargeField,
    QuadraticField,
    ReflectedField,
    ShiftedField,
    ZeroField,
)
from capfield.geometry import Orientation, north_cap, south_cap
from capfield.singular_quadrature import (
    _TABLE_START_DEGREE,
    _TABLE_TAIL_TOL,
    Endpoint,
    NonconvergenceError,
    SingularIntegrand,
    abel_stage_F,
    desingularized,
    first_stage_table,
    integrate_sqrt_singular,
)

PI = math.pi

# frozen: d/dt of the point-charge first-stage integral at t = 2, q = 1, h = 2
G_POINTCHARGE_T2 = -0.042627736225968174


def uniform_first_stage(t: float) -> float:
    # first Abel stage of the unit constant field on a south cap
    return -math.sqrt(2.0) * math.sin(0.5 * t) / (4.0 * PI)


def stage_g(field, t: float, cap) -> float:
    # table-backed first stage; a north cap is solved as the reflected
    # south cap, as density_general does
    if cap.orientation is Orientation.SOUTH_CENTERED:
        return float(first_stage_table(field, cap.alpha)(t))
    table = first_stage_table(ReflectedField(field), PI - cap.alpha)
    return float(-table(PI - t))


def edge_profile(alpha: float, phi: float) -> float:
    # inverse-square-root edge behavior shared by all cap densities
    r = (1.0 - math.cos(alpha)) / (math.cos(alpha) - math.cos(phi))
    return 1.0 + (2.0 / PI) * (math.sqrt(r) - math.atan(math.sqrt(r)))


class TestIntegrateSqrtSingular:
    def test_sine_over_lower_singularity(self):
        # integral of sin(x)/sqrt(cos(t) - cos(x)) over [t, pi] equals
        # 2*sqrt(1 + cos(t))
        for t in (0.3, PI / 2, 2.8):
            integrand = SingularIntegrand(math.sin, t, PI, Endpoint.LOWER)
            expected = 2.0 * math.sqrt(1.0 + math.cos(t))
            assert integrate_sqrt_singular(integrand) == pytest.approx(
                expected, abs=1e-10
            )

    def test_sine_over_upper_singularity(self):
        # integral of sin(x)/sqrt(cos(x) - cos(t)) over [0, t] equals
        # 2*sqrt(1 - cos(t))
        for t in (0.4, PI / 2, 2.9):
            integrand = SingularIntegrand(math.sin, 0.0, t, Endpoint.UPPER)
            expected = 2.0 * math.sqrt(1.0 - math.cos(t))
            assert integrate_sqrt_singular(integrand) == pytest.approx(
                expected, abs=1e-10
            )

    def test_edge_density_mass_factor(self):
        # integral of sqrt(1-cos(a)) * sin(x) / sqrt(cos(a)-cos(x)) over
        # [a, pi]: the closed form 2*sqrt(1-cos(a))*sqrt(1+cos(a)) collapses
        # to 2*sin(a)
        a = PI / 3
        k = math.sqrt(1.0 - math.cos(a))
        integrand = SingularIntegrand(
            lambda x: k * math.sin(x), a, PI, Endpoint.LOWER
        )
        assert integrate_sqrt_singular(integrand) == pytest.approx(
            2.0 * math.sin(a), abs=1e-10
        )

    def test_desingularized_is_bounded_at_zero(self):
        integrand = SingularIntegrand(math.sin, 0.5, PI, Endpoint.LOWER)
        psi, smax = desingularized(integrand)
        assert smax == pytest.approx(
            math.sqrt(math.cos(0.5) + 1.0), rel=1e-14
        )
        vals = [psi(s) for s in (1e-8, 1e-4, 0.5 * smax, smax * (1.0 - 1e-12))]
        assert all(math.isfinite(v) for v in vals)
        # limit at the singular end: 2*smooth(lo)/sin(lo)
        assert vals[0] == pytest.approx(2.0, rel=1e-6)

    def test_unresolvable_oscillation_raises_nonconvergence(self):
        integrand = SingularIntegrand(
            lambda x: math.sin(1e7 * x * x), 1.0, 2.0, Endpoint.LOWER
        )
        with pytest.raises(NonconvergenceError) as exc:
            integrate_sqrt_singular(integrand, tol=1e-12)
        assert exc.value.error_bound > 1e-12

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            SingularIntegrand(math.sin, 2.0, 1.0, Endpoint.LOWER)
        with pytest.raises(ValueError):
            SingularIntegrand(math.sin, -0.5, 1.0, Endpoint.LOWER)


class TestAbelStageG:
    def test_zero_field_gives_zero(self):
        cap = south_cap(0.5)
        assert stage_g(ZeroField(), 1.7, cap) == 0.0

    def test_uniform_field_south_closed_form(self):
        cap = south_cap(0.2)
        f = ShiftedField(ZeroField(), 1.0)
        for t in (0.5, PI / 2, 2.5):
            assert stage_g(f, t, cap) == pytest.approx(
                uniform_first_stage(t), abs=1e-10
            )

    def test_uniform_field_north_closed_form(self):
        cap = north_cap(2.9)
        f = ShiftedField(ZeroField(), 1.0)
        for t in (0.4, 1.5, 2.7):
            expected = math.sqrt(2.0) * math.cos(0.5 * t) / (4.0 * PI)
            assert stage_g(f, t, cap) == pytest.approx(expected, abs=1e-10)

    def test_point_charge_frozen_value(self):
        cap = south_cap(0.7)
        g = stage_g(PointChargeField(q=1.0, h=2.0), 2.0, cap)
        assert g == pytest.approx(G_POINTCHARGE_T2, abs=1e-8)

    def test_linear_in_the_field(self):
        cap = south_cap(0.5)
        f1 = PointChargeField(q=1.0, h=2.0)
        f2 = PointChargeField(q=2.0, h=2.0)
        t = 1.3
        assert stage_g(f2, t, cap) == pytest.approx(
            2.0 * stage_g(f1, t, cap), rel=1e-10
        )

    def test_constant_shift_adds_uniform_profile(self):
        cap = south_cap(0.5)
        base = PointChargeField(q=1.0, h=2.0)
        shifted = ShiftedField(base, 3.0)
        t = 2.1
        expected = stage_g(base, t, cap) + 3.0 * uniform_first_stage(t)
        assert stage_g(shifted, t, cap) == pytest.approx(expected, abs=1e-9)


class TestFirstStageTable:
    def test_smooth_field_stops_at_start_degree(self):
        table = first_stage_table(QuadraticField(1.0, 2.5, 2.0), 1.9)
        assert table.degree == _TABLE_START_DEGREE
        assert table.tail <= _TABLE_TAIL_TOL

    def test_degree_grows_for_north_pole_charge(self):
        # Q = q / sqrt(2 - 2*x3) is unbounded at x3 = 1, just past the table
        # domain [-1, cos(alpha)], so the coefficients decay slowly
        table = first_stage_table(PointChargeField(q=0.5, h=1.0), 0.6)
        assert table.degree > _TABLE_START_DEGREE
        assert table.tail <= _TABLE_TAIL_TOL

    def test_rejects_empty_cap(self):
        with pytest.raises(ValueError):
            first_stage_table(ZeroField(), PI)


class TestAbelStageF:
    def test_zero_input_gives_zero(self):
        cap = south_cap(PI / 3)
        assert abel_stage_F(lambda t: 0.0, 2.0, cap) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_two_stage_south(self):
        # feeding the first-stage profile of the unit field through the
        # second stage must produce -edge_profile/(4*pi)
        alpha = PI / 3
        cap = south_cap(alpha)
        for phi in (1.3, 2.0, 2.8, PI):
            got = abel_stage_F(uniform_first_stage, phi, cap)
            expected = -edge_profile(alpha, phi) / (4.0 * PI)
            assert got == pytest.approx(expected, abs=2e-8)

    def test_regular_at_far_pole(self):
        cap = south_cap(0.9)
        got = abel_stage_F(uniform_first_stage, PI, cap)
        assert math.isfinite(got)
        assert got == pytest.approx(-edge_profile(0.9, PI) / (4.0 * PI), abs=2e-8)

    def test_rim_guard(self):
        cap = south_cap(1.0)
        with pytest.raises(ValueError):
            abel_stage_F(lambda t: 1.0, 1.0 + 1e-10, cap)

    def test_round_trip_recovers_smooth_profile(self):
        # push a smooth profile through the forward half-integral, then
        # invert through the second stage on a north cap; tolerance 1e-6
        alpha = 2.0
        cap = north_cap(alpha)

        def profile(x: float) -> float:
            return 1.0 + math.cos(x) ** 2

        def forward(z: float) -> float:
            integrand = SingularIntegrand(
                lambda x: 0.5 * profile(x) * math.sin(x),
                z,
                alpha,
                Endpoint.LOWER,
            )
            return integrate_sqrt_singular(integrand, tol=1e-12)

        for xi in (0.4, 1.0, 1.6):
            recovered = -abel_stage_F(forward, xi, cap)
            assert recovered == pytest.approx(profile(xi), abs=1e-6)
