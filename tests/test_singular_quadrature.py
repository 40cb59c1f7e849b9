"""Inverse-square-root quadrature and the two Abel transform stages.

Reference values labelled "frozen" were computed with mpmath at 40-digit
precision directly from the defining integrals; the script lives in
tests/oracles/compute_reference_values.py.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebder, chebval
from scipy.integrate import quad

from capfield.fields import (
    ExternalField,
    PointChargeField,
    QuadraticField,
    TabulatedField,
    ZeroField,
)
from capfield.geometry import SphericalCap
from capfield._numerics import _TABLE_START_DEGREE, _TABLE_TAIL_TOL, NonconvergenceError
from capfield import fields, singular_quadrature
from capfield.singular_quadrature import (
    FirstStageTable,
    _first_stage_integral,
    _second_stage_integral,
    _stage_F_south_vec,
    first_stage_table,
)
from conftest import ShiftedField

PI = math.pi

# frozen: d/dt of the point-charge first-stage integral at t = 2, q = 1, h = 2
G_POINTCHARGE_T2 = -0.042627736225968174


def uniform_first_stage(t):
    # first Abel stage of the unit constant field on a south cap
    return -math.sqrt(2.0) * np.sin(0.5 * t) / (4.0 * PI)


class SmoothFactor:
    """A first stage g = -sqrt(1-c) * p(c) / (4*pi) given by p and dp/dc.

    Like a FirstStageTable, calling it gives p and `_integrand` gives the
    second-stage integrand p - 2*(1-c)*p'.
    """

    def __init__(self, p, slope) -> None:
        self._p = p
        self._slope = slope

    def __call__(self, c):
        return self._p(np.asarray(c, dtype=float))

    def _integrand(self, c):
        c = np.asarray(c, dtype=float)
        return self._p(c) - 2.0 * (1.0 - c) * self._slope(c)


UNIFORM = SmoothFactor(np.ones_like, np.zeros_like)  # the unit constant field


def stage_F(p, phi: float, alpha: float) -> float:
    # second stage at one angle of the south cap with rim alpha
    return float(_stage_F_south_vec(p, np.array([phi]), SphericalCap(alpha))[0])


def stage_g(field, t: float, cap) -> float:
    # table-backed first stage at the angle t
    c = math.cos(t)
    return -math.sqrt(1.0 - c) * float(first_stage_table(field, cap.alpha)(c)) / (4.0 * PI)


def edge_profile(alpha: float, phi: float) -> float:
    # inverse-square-root edge behavior shared by all cap densities
    r = (1.0 - math.cos(alpha)) / (math.cos(alpha) - math.cos(phi))
    return 1.0 + (2.0 / PI) * (math.sqrt(r) - math.atan(math.sqrt(r)))


class OscillatingField(ExternalField):
    """sin(1e4 * x3): far beyond what a degree-1024 table resolves."""

    def value_at_x3(self, x3):
        return np.sin(1e4 * np.asarray(x3, dtype=float))

    def slope_at_x3(self, x3):
        return 1e4 * np.cos(1e4 * np.asarray(x3, dtype=float))


class TestIntegrateSqrtSingular:
    # p(c) and G(m) are the two stages' inverse-square-root integrals with
    # the singular endpoint removed by substitution

    def test_sine_over_lower_singularity(self):
        # integral of Qhat(cos(x)) sin(x) / sqrt(cos(t) - cos(x)) over
        # [t, pi] is 2*sqrt(1+c)*H(c) with c = cos(t), and p is
        # sqrt(1+c) times its derivative in c, p = H + 2*(1+c)*H'; for
        # Qhat = a*x^2 + b*x + k, w = c - cos(x) gives
        # H(c) = Qhat(c) - (2ac + b)*L/3 + a*L^2/5 with L = 1 + c
        a, b, k = 1.0, 2.5, 2.0
        field = QuadraticField(a, b, k)
        c = np.cos(np.array([0.3, PI / 2, 2.8]))
        span = 1.0 + c
        h = field.value_at_x3(c) - (2.0 * a * c + b) * span / 3.0 + a * span**2 / 5.0
        dh = (2.0 * a * c + b) - (2.0 * a * span + 2.0 * a * c + b) / 3.0 + 2.0 * a * span / 5.0
        expected = h + 2.0 * span * dh
        assert np.allclose(_first_stage_integral(field, c), expected, rtol=0.0, atol=1e-13)

    def test_sine_over_upper_singularity(self):
        # integral of g(x) sin(x) / sqrt(cos(x) - cos(phi)) over [alpha, phi]
        # is 2*sqrt(m)*G(m) with m = cos(alpha) - cos(phi); for g = cos,
        # w = cos(x) - cos(phi) gives G(m) = cos(alpha) - 2m/3
        alpha = 0.7
        m = np.array([0.05, 0.8, 1.0 + math.cos(alpha)])
        expected = math.cos(alpha) - 2.0 * m / 3.0
        # the rule's variable tau has sqrt(m) * dy = sqrt(1-c) * dtau
        got = _second_stage_integral(lambda c: c * np.sqrt(1.0 - c), m, SphericalCap(alpha))
        got /= np.sqrt(m)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-13)

    def test_edge_density_mass_factor(self):
        # integral of sqrt(1-cos(a)) * sin(x) / sqrt(cos(a)-cos(x)) over
        # [a, pi]: the closed form 2*sqrt(1-cos(a))*sqrt(1+cos(a)) collapses
        # to 2*sin(a); for a constant field the half-integral is
        # 2*sqrt(1+c) times p, which is the constant itself
        a = PI / 3
        k = math.sqrt(1.0 - math.cos(a))
        p = _first_stage_integral(ShiftedField(ZeroField(), k), np.array([math.cos(a)]))
        assert 2.0 * math.sqrt(1.0 + math.cos(a)) * p[0] == pytest.approx(
            2.0 * math.sin(a), abs=1e-10
        )

    def test_desingularized_is_bounded_at_zero(self):
        # where the interval shrinks to its singular endpoint p tends to
        # the field's value there
        field = PointChargeField(q=1.0, h=2.0)
        p = _first_stage_integral(field, np.array([-1.0, -1.0 + 1e-12]))
        assert np.all(np.isfinite(p))
        assert p == pytest.approx(field.value_at_x3(-1.0), rel=1e-11)
        # the second stage's range in tau shrinks to tau_max, with
        # tan(tau_max) = sqrt(m / (1 - cos(alpha)))
        m = np.array([0.0, 1e-12])
        tau_max = np.arctan(np.sqrt(m / (1.0 - math.cos(0.5))))
        g = _second_stage_integral(lambda c: c, m, SphericalCap(0.5))
        assert np.all(np.isfinite(g))
        assert g == pytest.approx(tau_max * math.cos(0.5), rel=1e-11)

    def test_unresolvable_oscillation_raises_nonconvergence(self):
        with pytest.raises(NonconvergenceError) as exc:
            first_stage_table(OscillatingField(), 1.0)
        assert exc.value.error_bound > 1e-12

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            first_stage_table(ZeroField(), -0.5)
        with pytest.raises(ValueError):
            first_stage_table(ZeroField(), 4.0)


class TestFirstStageIntegral:
    # p(c) = Q(-1) + 2*sqrt(1+c) * (integral over s in [0, sqrt(1+c)] of
    # Q'(c - s^2)), from the field's slope

    @pytest.mark.parametrize("h", [0.3, 0.9, 0.99, 1.01, 2.0, 5.0])
    def test_point_charge_closed_form(self, h):
        # the point charge q/sqrt(1 + h^2 - 2*h*x3) has p = q*(h+1)/(1 + h^2 - 2*h*c)
        c = np.array([-1.0, -0.999, -0.5, 0.0, 0.5, 0.9, 0.99])
        got = _first_stage_integral(PointChargeField(0.7, h), c)
        expected = 0.7 * (h + 1.0) / (1.0 + h * h - 2.0 * h * c)
        assert np.allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_quadratic_closed_form(self):
        # Q' = 2*a*x3 + b integrates to 2*a*c + b - 2*a*(1+c)/3 in v = s/sqrt(1+c)
        a, b, k = 0.9, 2.3, 1.7
        c = np.linspace(-1.0, 1.0, 9)
        expected = (a - b + k) + 2.0 * (1.0 + c) * (2.0 * a * c + b - 2.0 * a * (1.0 + c) / 3.0)
        got = _first_stage_integral(QuadraticField(a, b, k), c)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("samples", [3, 21, 401])
    def test_table_pieces_match_quad(self, samples):
        # the per-piece sums against adaptive quad with the knots, mapped
        # to s = sqrt(c - x_k), as break points
        x = np.linspace(-1.0, 1.0, samples)
        table = TabulatedField(x, 1.0 / np.sqrt(5.0 - 4.0 * x))
        c = np.array([-0.999, -0.3, 0.0, 0.1234, 0.7, 0.95, 1.0])
        got = _first_stage_integral(table, c)
        for ci, pi_ in zip(c, got):
            top = math.sqrt(1.0 + ci)
            edges = [0.0, *sorted(math.sqrt(ci - xk) for xk in x if -1.0 < xk < ci), top]
            integral = sum(
                quad(lambda s: table.slope_at_x3(ci - s * s), lo, hi, epsabs=0.0, epsrel=1e-13)[0]
                for lo, hi in zip(edges[:-1], edges[1:])
            )
            expected = table.value_at_x3(-1.0) + 2.0 * top * integral
            assert pi_ == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_fine_table_is_near_its_field(self):
        # the PCHIP's pieces are not the sampled quadratic itself, but on
        # 1601 samples its p agrees with the field's to 4.4e-9
        x = np.linspace(-1.0, 1.0, 1601)
        table = TabulatedField(x, x * x + 2.5 * x + 2.0)
        c = np.linspace(-1.0, 0.9, 7)
        exact = _first_stage_integral(QuadraticField(1.0, 2.5, 2.0), c)
        assert np.allclose(_first_stage_integral(table, c), exact, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("block", [1, 1601, 1 << 16])
    def test_table_sums_do_not_depend_on_the_block(self, monkeypatch, block):
        # a block holds whole rows of per-piece terms, so its size changes
        # no bit of the sums
        x = np.linspace(-1.0, 1.0, 1601)
        table = TabulatedField(x, 1.0 / np.sqrt(5.0 - 4.0 * x))
        c = np.cos(np.pi * np.arange(65) / 64) * 0.935 - 0.065
        expected = _first_stage_integral(table, c)
        monkeypatch.setattr(fields, "_PIECE_BLOCK", block)
        assert np.array_equal(_first_stage_integral(table, c), expected)

    def test_table_range_is_checked(self):
        table = TabulatedField(np.array([-1.0, 0.0, 0.5]), np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ValueError, match="outside tabulated range"):
            _first_stage_integral(table, np.array([0.0, 0.6]))

    def test_table_samples_each_point_once(self, monkeypatch):
        # the table's samples are the only points the first stage takes
        sizes = []
        integral = singular_quadrature._first_stage_integral

        def counting(field, c):
            sizes.append(np.size(c))
            return integral(field, c)

        monkeypatch.setattr(singular_quadrature, "_first_stage_integral", counting)
        table = first_stage_table(PointChargeField(q=1.0, h=2.0), 0.7)
        assert sum(sizes) == table.coeffs.size


class TestAbelStageG:
    def test_zero_field_gives_zero(self):
        cap = SphericalCap(0.5)
        assert stage_g(ZeroField(), 1.7, cap) == 0.0

    def test_uniform_field_south_closed_form(self):
        cap = SphericalCap(0.2)
        f = ShiftedField(ZeroField(), 1.0)
        for t in (0.5, PI / 2, 2.5):
            assert stage_g(f, t, cap) == pytest.approx(
                uniform_first_stage(t), abs=1e-10
            )

    def test_point_charge_frozen_value(self):
        cap = SphericalCap(0.7)
        g = stage_g(PointChargeField(q=1.0, h=2.0), 2.0, cap)
        assert g == pytest.approx(G_POINTCHARGE_T2, abs=1e-8)

    def test_linear_in_the_field(self):
        cap = SphericalCap(0.5)
        f1 = PointChargeField(q=1.0, h=2.0)
        f2 = PointChargeField(q=2.0, h=2.0)
        t = 1.3
        assert stage_g(f2, t, cap) == pytest.approx(
            2.0 * stage_g(f1, t, cap), rel=1e-10
        )

    def test_constant_shift_adds_uniform_profile(self):
        cap = SphericalCap(0.5)
        base = PointChargeField(q=1.0, h=2.0)
        shifted = ShiftedField(base, 3.0)
        t = 2.1
        expected = stage_g(base, t, cap) + 3.0 * uniform_first_stage(t)
        assert stage_g(shifted, t, cap) == pytest.approx(expected, abs=1e-9)


class TestFirstStageTable:
    def test_smooth_field_stops_at_start_degree(self):
        table = first_stage_table(QuadraticField(1.0, 2.5, 2.0), 1.9)
        assert table.coeffs.size - 1 == _TABLE_START_DEGREE
        assert table.tail <= _TABLE_TAIL_TOL

    def test_degree_grows_for_north_pole_charge(self):
        # Q = q / sqrt(2 - 2*x3) is unbounded at x3 = 1, just past the table
        # domain [-1, cos(alpha)], so the coefficients decay slowly
        table = first_stage_table(PointChargeField(q=0.5, h=1.0), 0.6)
        assert table.coeffs.size - 1 > _TABLE_START_DEGREE
        assert table.tail <= _TABLE_TAIL_TOL

    def test_integrand_is_built_from_the_table_derivative(self):
        # the fused series is p - 2*(1-c)*p' for the table's own p; the
        # slope it implies matches a central difference of the table, and
        # the derivative series that numpy forms from the coefficients
        table = first_stage_table(PointChargeField(q=1.0, h=2.0), 0.7)
        c = np.array([-0.95, -0.2, 0.5, math.cos(0.7) - 1e-3])
        implied = (table(c) - table._integrand(c)) / (2.0 * (1.0 - c))
        step = 1e-5
        central = (table(c + step) - table(c - step)) / (2.0 * step)
        assert np.allclose(implied, central, rtol=1e-8, atol=0.0)
        x = (2.0 * c + 1.0 - table.c_max) / (1.0 + table.c_max)
        exact = chebval(x, chebder(table.coeffs)) * 2.0 / (1.0 + table.c_max)
        assert np.allclose(implied, exact, rtol=1e-12, atol=0.0)

    def test_integrand_with_trailing_zero_coefficients(self):
        # a table whose last coefficients are exactly zero, as a polynomial
        # field's table can be: the fused series keeps the table's length
        coeffs = np.array([0.5, -0.25, 0.125, 0.0, 0.0])
        table = FirstStageTable(coeffs=coeffs, c_max=0.3, tail=0.0)
        c = np.linspace(-1.0, 0.3, 7)
        x = (2.0 * c + 1.0 - 0.3) / 1.3
        slope = chebval(x, chebder(coeffs)) * 2.0 / 1.3
        expected = chebval(x, coeffs) - 2.0 * (1.0 - c) * slope
        assert np.allclose(table._integrand(c), expected, rtol=0.0, atol=1e-15)

    def test_rejects_empty_cap(self):
        with pytest.raises(ValueError):
            first_stage_table(ZeroField(), PI)


class TestAbelStageF:
    def test_zero_input_gives_zero(self):
        zero = SmoothFactor(np.zeros_like, np.zeros_like)
        assert stage_F(zero, 2.0, PI / 3) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_two_stage_south(self):
        # feeding the first-stage profile of the unit field through the
        # second stage must produce -edge_profile/(4*pi)
        alpha = PI / 3
        for phi in (1.3, 2.0, 2.8, PI):
            got = stage_F(UNIFORM, phi, alpha)
            expected = -edge_profile(alpha, phi) / (4.0 * PI)
            assert got == pytest.approx(expected, abs=2e-8)

    def test_regular_at_far_pole(self):
        got = stage_F(UNIFORM, PI, 0.9)
        assert math.isfinite(got)
        assert got == pytest.approx(-edge_profile(0.9, PI) / (4.0 * PI), abs=2e-8)

    def test_round_trip_recovers_smooth_profile(self):
        # the second stage inverts the Abel transform
        # g(c) = 1/2 * integral over w in [c, cos(alpha)] of F(acos(w)) / sqrt(w - c):
        # push g = -sqrt(1-c) * p(c) / (4*pi) with a smooth p through it,
        # then back through that transform, on the whole sphere, a small
        # rim and a large one; F carries the rim's 1/sqrt(cos(alpha) - w),
        # which the quadrature weight takes out
        p = SmoothFactor(lambda c: 1.0 + c * c, lambda c: 2.0 * c)
        for alpha in (0.0, 0.05, 2.0):
            ca = math.cos(alpha)
            rim = -math.sqrt(2.0) * math.sin(0.5 * alpha) * (1.0 + ca * ca) / (2.0 * PI * PI)

            def weighted(w: float) -> float:
                # F(acos(w)) * sqrt(cos(alpha) - w), with its limit at the rim
                phi = math.acos(w)
                if phi <= alpha:
                    return rim
                return stage_F(p, phi, alpha) * math.sqrt(ca - w)

            for c in (-0.9, ca - 0.5, ca - 1e-3):
                value, _ = quad(
                    weighted, c, ca, weight="alg", wvar=(-0.5, -0.5), epsabs=1e-13, epsrel=1e-12
                )
                expected = -math.sqrt(1.0 - c) * (1.0 + c * c) / (4.0 * PI)
                assert 0.5 * value == pytest.approx(expected, abs=1e-10)
