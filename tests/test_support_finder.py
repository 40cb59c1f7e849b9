"""Support rim angles, F-functionals, and critical charge heights.

Frozen reference values computed with mpmath (40 digits) in
tests/oracles/compute_reference_values.py.
"""

import math
import random

import mpmath
import numpy as np
import pytest

from capfield.fields import PointChargeField, QuadraticField, TabulatedField, ZeroField
from capfield._numerics import NonconvergenceError
from capfield.geometry import capacity_south_cap
from capfield.support_finder import (
    SupportMethod,
    _rim_equation,
    _rim_root,
    ffunctional,
    ffunctional_numeric,
    ffunctional_pointcharge,
    ffunctional_quadratic,
    gonchar_heights,
    solve_support,
)
from conftest import ShiftedField, golden_section_support

PI = math.pi

# frozen support angles
ALPHA0_PC_12 = 0.7270148450291979835692054
ALPHA0_PC_1HALF = 1.071329656580780854469236
ALPHA0_PC_2_15 = 1.25666806673354352428419
ALPHA0_NP = {
    0.5: 0.8696163153468067148907662,
    1.0: 1.1217246238633008265287,
    2.0: 1.393156162592728460723816,
}
ALPHA0_QUAD = 1.905121063815038955604994

# frozen Robin constants
FQ_PC_12 = 1.491533425110004003327
FQ_PC_1HALF = 1.945417876306199508307
FQ_PC_2_15 = 2.152354424566164676970262
FQ_QUAD = 2.375621847562275707877242

# frozen F-functional values at rim angle 1.0
FF_PC_12_AT_1 = 1.499752751127168435835
FF_PC_1HALF_AT_1 = 1.946362480713819183708
FF_QUAD_AT_1 = 2.971200326891697139886

# frozen critical heights
H_PLUS = {0.5: 2.1245702690647746696, 1.0: 2.6180339887498948482, 2.0: 3.3234042760864776258}
H_MINUS = {0.5: 1.0 / 3.0, 1.0: 0.21922359359558486254, 2.0: 0.13148290817867023563}


class TestGoncharHeights:
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_frozen_values(self, q):
        gh = gonchar_heights(q)
        assert gh.h_plus == pytest.approx(H_PLUS[q], rel=1e-12)
        assert gh.h_minus == pytest.approx(H_MINUS[q], rel=1e-12)

    def test_unit_charge_closed_forms(self):
        gh = gonchar_heights(1.0)
        assert gh.h_plus == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)
        assert gh.h_minus == pytest.approx((5.0 - math.sqrt(17.0)) / 4.0, rel=1e-14)

    @pytest.mark.parametrize("q", [0.25, 1.0, 3.0])
    def test_roots_satisfy_defining_equations(self, q):
        gh = gonchar_heights(q)
        h = gh.h_plus
        assert ((h - 2.0) * h + (1.0 - 3.0 * q)) * h + q == pytest.approx(0.0, abs=1e-12)
        h = gh.h_minus
        assert (1.0 + q) * h * h - (2.0 + 3.0 * q) * h + 1.0 == pytest.approx(
            0.0, abs=1e-12
        )
        assert 1.0 < gh.h_plus
        assert 0.0 < gh.h_minus < 1.0

    def test_monotone_in_charge(self):
        qs = [0.1, 0.5, 1.0, 2.0, 5.0]
        hp = [gonchar_heights(q).h_plus for q in qs]
        hm = [gonchar_heights(q).h_minus for q in qs]
        assert all(a < b for a, b in zip(hp, hp[1:]))
        assert all(a > b for a, b in zip(hm, hm[1:]))

    def test_rejects_bad_charge(self):
        with pytest.raises(ValueError):
            gonchar_heights(0.0)
        with pytest.raises(ValueError):
            gonchar_heights(-1.0)
        for q in (1.01e300, math.inf, math.nan):
            with pytest.raises(ValueError, match="charge must"):
                gonchar_heights(q)

    def test_across_the_charge_range(self):
        # q = 10^k for k = -300 ... 300 against 80-digit roots.  h_minus is
        # the smaller root of (1+q)h^2 - (2+3q)h + 1, rationalized; h_plus
        # the root above 1 of h^3 - 2h^2 + (1-3q)h + q, which in
        # h = 1 + sqrt(q)*v is v^2 = (2 + 3 sqrt(q) v)/(1 + sqrt(q) v), v in (0, 2)
        with mpmath.workdps(80):
            for k in range(-300, 301):
                q = 10.0**k
                exact_q = mpmath.mpf(q)
                r = mpmath.sqrt(exact_q)
                v = mpmath.findroot(lambda v: v * v - (2 + 3 * r * v) / (1 + r * v),
                                    (mpmath.mpf(0), mpmath.mpf(2)), solver="anderson")
                h_plus = 1 + r * v
                h_minus = 2 / ((2 + 3 * exact_q) + mpmath.sqrt(exact_q * (9 * exact_q + 8)))
                gh = gonchar_heights(q)
                assert abs(gh.h_plus - h_plus) <= 2e-16 * h_plus, q
                assert abs(gh.h_minus - h_minus) <= 2.5e-16 * h_minus, q


class TestFFunctionalClosedForms:
    def test_frozen_point_charge_values(self):
        assert ffunctional_pointcharge(1.0, 2.0, 1.0) == pytest.approx(
            FF_PC_12_AT_1, rel=1e-12
        )
        assert ffunctional_pointcharge(1.0, 0.5, 1.0) == pytest.approx(
            FF_PC_1HALF_AT_1, rel=1e-12
        )

    def test_frozen_quadratic_value(self):
        assert ffunctional_quadratic(1.0, 2.5, 2.0, 1.0) == pytest.approx(
            FF_QUAD_AT_1, rel=1e-12
        )

    def test_full_sphere_limits(self):
        # at rim angle 0 the functional is 1 plus the uniform field average
        assert ffunctional_pointcharge(1.0, 2.0, 0.0) == pytest.approx(
            1.5, rel=1e-14
        )
        assert ffunctional_pointcharge(1.0, 0.5, 0.0) == pytest.approx(
            2.0, rel=1e-14
        )
        assert ffunctional_quadratic(1.0, 2.5, 2.0, 0.0) == pytest.approx(
            1.0 + (1.0 + 6.0) / 3.0, rel=1e-14
        )

    def test_continuous_at_zero_rim(self):
        for f in (
            lambda a: ffunctional_pointcharge(1.0, 2.0, a),
            lambda a: ffunctional_quadratic(1.0, 2.5, 2.0, a),
        ):
            assert f(1e-8) == pytest.approx(f(0.0), abs=1e-6)


class TestFFunctionalNumeric:
    def test_matches_point_charge_closed_form(self):
        got = ffunctional_numeric(PointChargeField(1.0, 2.0), 1.0)
        assert got == pytest.approx(FF_PC_12_AT_1, abs=1e-9)
        got = ffunctional_numeric(PointChargeField(1.0, 0.5), 1.0)
        assert got == pytest.approx(FF_PC_1HALF_AT_1, abs=1e-9)

    def test_matches_quadratic_closed_form(self):
        got = ffunctional_numeric(QuadraticField(1.0, 2.5, 2.0), 1.0)
        assert got == pytest.approx(FF_QUAD_AT_1, abs=1e-9)

    def test_zero_field_gives_inverse_capacity(self):
        for alpha in (0.0, 0.7, PI / 2, 2.4):
            got = ffunctional_numeric(ZeroField(), alpha)
            expected = PI / (PI - alpha + math.sin(alpha))
            assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-4, 1e-2, 1.0, 3.0])
    @pytest.mark.parametrize("h", [0.5, 0.9, 1.1, 2.0])
    def test_point_charge_at_small_and_large_rims(self, h, alpha):
        # near h = 1 the field turns over on the scale |1 - h| at the pole,
        # and at small rims the edge weight on the scale sqrt(1 - cos alpha)
        got = ffunctional_numeric(PointChargeField(1.0, h), alpha)
        assert got == pytest.approx(ffunctional_pointcharge(1.0, h, alpha), rel=0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-4, 1e-2, 1.0, 3.0])
    def test_quadratic_at_small_and_large_rims(self, alpha):
        got = ffunctional_numeric(QuadraticField(1.0, 2.5, 2.0), alpha)
        assert got == pytest.approx(
            ffunctional_quadratic(1.0, 2.5, 2.0, alpha), rel=0, abs=1e-8
        )

    def test_coarse_table_matches_closed_form(self):
        # the panels break at the knots of the 401-sample PCHIP, whose
        # pieces are exact here: the quadratic is one cubic between knots
        x = np.linspace(-1.0, 1.0, 401)
        field = TabulatedField(x, x * x + 2.5 * x + 2.0)
        got = ffunctional_numeric(field, 1.0)
        assert got == pytest.approx(FF_QUAD_AT_1, rel=0, abs=1e-10)


def _rim_residual(field, alpha):
    fq, p, _ = _rim_equation(field)
    return fq(alpha) - p(alpha)


def _table(field, samples):
    x = np.linspace(-1.0, 1.0, samples)
    return TabulatedField(x, field.value_at_x3(x))


# fine tables of the closed-form fields, with their frozen rims
FINE_TABLES = [
    (PointChargeField(1.0, 2.0), ALPHA0_PC_12, FQ_PC_12),
    (PointChargeField(1.0, 0.5), ALPHA0_PC_1HALF, FQ_PC_1HALF),
    (PointChargeField(2.0, 1.5), ALPHA0_PC_2_15, FQ_PC_2_15),
    (QuadraticField(1.0, 2.5, 2.0), ALPHA0_QUAD, FQ_QUAD),
]
FINE_TABLE_IDS = ["pc-1-2", "pc-1-0.5", "pc-2-1.5", "quad"]


class TestSolveSupportTabulated:
    @pytest.mark.parametrize("field,alpha0,fq", FINE_TABLES, ids=FINE_TABLE_IDS)
    def test_fine_table_rim(self, field, alpha0, fq):
        table = _table(field, 1601)
        sol = solve_support(table)
        assert sol.method is SupportMethod.TRANSCENDENTAL_ROOT
        assert sol.alpha0 == pytest.approx(alpha0, rel=0, abs=1e-8)
        assert sol.robin_constant == pytest.approx(fq, rel=1e-9)
        assert abs(sol.residual) < 1e-12
        assert 0 < sol.iterations <= 20
        # golden section over the same rule agrees
        by_min = golden_section_support(table)
        assert not by_min.full_sphere
        assert by_min.alpha0 == pytest.approx(sol.alpha0, rel=0, abs=1e-6)

    @pytest.mark.parametrize("field", [f for f, _, _ in FINE_TABLES], ids=FINE_TABLE_IDS)
    def test_residual_changes_sign_once(self, field):
        # the two-end bracket relies on a single sign change, from
        # negative at 0+ to positive toward pi
        table = _table(field, 1601)
        scan = np.array([_rim_residual(table, a) for a in np.linspace(1e-12, PI - 1e-6, 64)])
        assert scan[0] < 0.0 < scan[-1]
        assert np.count_nonzero(np.diff(np.sign(scan))) == 1

    def test_residual_vanishes_at_closed_form_rim(self):
        table = _table(PointChargeField(1.0, 2.0), 1601)
        fq, _ = ffunctional(table, ALPHA0_PC_12)
        assert fq == pytest.approx(FQ_PC_12, rel=1e-9)
        assert abs(_rim_residual(table, ALPHA0_PC_12)) < 1e-8

    def test_linear_table_full_sphere(self):
        # the functional is flat at 0 and golden section once stalled on it
        table = TabulatedField(np.array([-1.0, 0.0, 1.0]), np.array([0.2, 0.3, 0.4]))
        sol = solve_support(table)
        assert sol.method is SupportMethod.FULL_SPHERE
        assert sol.alpha0 == 0.0
        assert sol.iterations == 0
        assert sol.robin_constant == pytest.approx(1.3, rel=0, abs=1e-12)
        assert sol.residual >= 0.0

    def test_no_sign_change_raises(self, monkeypatch):
        table = _table(PointChargeField(1.0, 2.0), 201)
        monkeypatch.setattr(
            "capfield.support_finder._rim_equation",
            lambda field: (lambda a: 1.0, lambda a: 2.0, "Numeric"),
        )
        with pytest.raises(NonconvergenceError, match="rim equation"):
            solve_support(table)


class TestSolveSupportNumeric:
    @pytest.mark.parametrize(
        "base,alpha0",
        [
            (PointChargeField(1.0, 2.0), ALPHA0_PC_12),
            (PointChargeField(1.0, 0.5), ALPHA0_PC_1HALF),
            (QuadraticField(1.0, 2.5, 2.0), ALPHA0_QUAD),
        ],
        ids=["pc-1-2", "pc-1-0.5", "quad"],
    )
    def test_shifted_field_keeps_its_rim(self, base, alpha0):
        # a constant added to the field moves F_Q and p alike, so a field
        # with no closed form of its own solves the same rim equation
        sol = solve_support(ShiftedField(base, 0.75))
        assert sol.method is SupportMethod.TRANSCENDENTAL_ROOT
        assert sol.alpha0 == pytest.approx(alpha0, rel=0, abs=1e-12)
        assert abs(sol.residual) < 1e-12

    def test_shifted_weak_charge_full_sphere(self):
        sol = solve_support(ShiftedField(PointChargeField(0.5, 2.2), 0.3))
        assert sol.method is SupportMethod.FULL_SPHERE
        assert sol.alpha0 == 0.0
        assert sol.robin_constant == pytest.approx(1.0 + 0.3 + 0.5 / 2.2, rel=1e-12)


class TestSolveSupportPointCharge:
    def test_frozen_outside_charge(self):
        sol = solve_support(PointChargeField(1.0, 2.0))
        assert sol.method is SupportMethod.TRANSCENDENTAL_ROOT
        assert sol.alpha0 == pytest.approx(ALPHA0_PC_12, abs=1e-12)
        assert sol.robin_constant == pytest.approx(FQ_PC_12, rel=1e-12)
        assert abs(sol.residual) < 1e-10
        assert sol.iterations > 0

    def test_frozen_inside_charge(self):
        sol = solve_support(PointChargeField(1.0, 0.5))
        assert sol.alpha0 == pytest.approx(ALPHA0_PC_1HALF, abs=1e-12)
        assert sol.robin_constant == pytest.approx(FQ_PC_1HALF, rel=1e-12)

    def test_frozen_strong_charge(self):
        sol = solve_support(PointChargeField(2.0, 1.5))
        assert sol.alpha0 == pytest.approx(ALPHA0_PC_2_15, abs=1e-12)
        assert sol.robin_constant == pytest.approx(FQ_PC_2_15, rel=1e-12)

    def test_weak_far_charge_full_sphere(self):
        sol = solve_support(PointChargeField(0.5, 2.2))
        assert sol.method is SupportMethod.FULL_SPHERE
        assert sol.alpha0 == 0.0

    def test_critical_height_transition(self):
        gh = gonchar_heights(1.0)
        just_below = solve_support(PointChargeField(1.0, gh.h_plus - 1e-3))
        just_above = solve_support(PointChargeField(1.0, gh.h_plus + 1e-3))
        assert just_below.method is SupportMethod.TRANSCENDENTAL_ROOT
        assert just_below.alpha0 > 0.0
        assert just_above.method is SupportMethod.FULL_SPHERE
        # inside the sphere the inequality flips
        below = solve_support(PointChargeField(1.0, gh.h_minus - 1e-3))
        above = solve_support(PointChargeField(1.0, gh.h_minus + 1e-3))
        assert below.method is SupportMethod.FULL_SPHERE
        assert above.method is SupportMethod.TRANSCENDENTAL_ROOT

    def test_on_sphere_height_delegates(self):
        sol = solve_support(PointChargeField(1.0, 1.0))
        assert sol.alpha0 == pytest.approx(ALPHA0_NP[1.0], abs=1e-12)


class TestSolveSupportNorthpole:
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_frozen_values(self, q):
        sol = solve_support(PointChargeField(q, 1.0))
        assert sol.method is SupportMethod.TRANSCENDENTAL_ROOT
        assert sol.alpha0 == pytest.approx(ALPHA0_NP[q], abs=1e-12)
        assert abs(sol.residual) < 1e-12

    def test_never_full_sphere(self):
        for q in (1e-4, 0.1, 10.0, 1e4):
            sol = solve_support(PointChargeField(q, 1.0))
            assert sol.method is SupportMethod.TRANSCENDENTAL_ROOT
            assert 0.0 < sol.alpha0 < PI

    @pytest.mark.parametrize("q", [1e-24, 1e-20, 1e-16, 1e-10, 1e-4, 0.5, 2.0, 1e4])
    def test_rim_to_rounding(self, q):
        # the rim of a weak charge is about sqrt(2q), so 1 - cos(alpha) is
        # far below one ulp of 1 (at q = 1e-24 the rim, 1.4e-12, is just
        # above the bracket's left end); the reference solves
        # pi*(1 - cos a) - q*(pi - a)*cos a - q*sin a = 0 at 40 digits
        sol = solve_support(PointChargeField(q, 1.0))
        with mpmath.workdps(40):
            qq = mpmath.mpf(q)

            def residual(a):
                return (2 * mpmath.pi * mpmath.sin(a / 2) ** 2
                        - qq * (mpmath.pi - a) * mpmath.cos(a) - qq * mpmath.sin(a))

            root = mpmath.findroot(residual, mpmath.mpf(sol.alpha0))
            assert abs(sol.alpha0 - float(root)) < 5e-14

    def test_matches_near_unit_heights(self):
        sol = solve_support(PointChargeField(1.0, 1.0))
        for h in (1.0 + 1e-9, 1.0 - 1e-9):
            near = solve_support(PointChargeField(1.0, h))
            assert near.alpha0 == pytest.approx(sol.alpha0, abs=1e-6)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0])
    def test_point_charge_rim_tends_to_it_linearly(self, q, side):
        # the rim is continuous through h = 1 from either side: each tenfold
        # step of h toward 1 shrinks the gap to the on-sphere rim tenfold
        on_sphere = solve_support(PointChargeField(q, 1.0)).alpha0
        steps = [10.0**-k for k in (2, 3, 4)]
        gaps = [abs(solve_support(PointChargeField(q, 1.0 + side * e)).alpha0 - on_sphere)
                for e in steps]
        assert all(0.0 < g < e for g, e in zip(gaps, steps))
        for k in range(len(steps) - 1):
            assert gaps[k + 1] <= 1.1 * gaps[k] * steps[k + 1] / steps[k]


class TestSolveSupportQuadratic:
    def test_frozen_value(self):
        sol = solve_support(QuadraticField(1.0, 2.5, 2.0))
        assert sol.method is SupportMethod.TRANSCENDENTAL_ROOT
        assert sol.alpha0 == pytest.approx(ALPHA0_QUAD, abs=1e-12)
        assert sol.robin_constant == pytest.approx(FQ_QUAD, rel=1e-12)

    def test_near_constant_field_full_sphere(self):
        # a tiny admissible quadratic perturbation keeps the support whole
        sol = solve_support(QuadraticField(1e-4, 1e-3, 0.1))
        assert sol.method is SupportMethod.FULL_SPHERE
        assert sol.alpha0 == 0.0

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            solve_support(QuadraticField(1.0, 1.0, 2.0))

    @pytest.mark.parametrize(
        "a,b,c",
        [
            (0.08730614006443245, 0.23640129254397999, 0.6969844506423071),
            (0.0759, 0.2519, 0.5686),
        ],
        ids=["rim-0.021", "rim-0.13"],
    )
    def test_small_rim_to_rounding(self, a, b, c):
        # the rim equation F_Q(alpha) = p(cos(alpha)) has no spurious root
        # at alpha = 0, so a small rim keeps its digits; the reference
        # takes p from its defining integral at 40 digits
        sol = solve_support(QuadraticField(a, b, c))
        with mpmath.workdps(40):
            qa, qb, qc = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)

            def residual(al):
                x = mpmath.cos(al)
                bracket = (
                    mpmath.tan(al / 2)
                    * (32 * qa * x**3 + 4 * (2 * qa + 9 * qb) * x**2
                       + 4 * (9 * qc - 5 * qa) * x + 4 * qa - 36 * qb + 36 * qc)
                    + 12 * (qa + 3 * qc) * (mpmath.pi - al)
                    + 36 * mpmath.pi
                )
                fq = bracket / (36 * (mpmath.pi - al + mpmath.sin(al)))
                top = mpmath.sqrt(1 + x)
                slope = mpmath.quad(lambda s: 2 * qa * (x - s * s) + qb, [0, top])
                return fq - (qa - qb + qc + 2 * top * slope)

            root = mpmath.findroot(residual, mpmath.mpf(sol.alpha0))
            assert abs(sol.alpha0 - float(root)) < 1e-13


class TestMinimizeFFunctional:
    # golden section over the F-functional, the tests' reference route
    @pytest.mark.parametrize(
        "q,h,alpha_ref",
        [
            (1.0, 2.0, ALPHA0_PC_12),
            (1.0, 0.5, ALPHA0_PC_1HALF),
        ],
    )
    def test_agrees_with_root_solver(self, q, h, alpha_ref):
        sol = golden_section_support(PointChargeField(q, h))
        assert not sol.full_sphere
        assert sol.alpha0 == pytest.approx(alpha_ref, abs=1e-6)
        assert sol.iterations > 0

    def test_full_sphere_case(self):
        sol = golden_section_support(PointChargeField(0.5, 2.2))
        assert sol.full_sphere
        assert sol.alpha0 == 0.0

    def test_quadratic_agrees_with_root_solver(self):
        sol = golden_section_support(QuadraticField(1.0, 2.5, 2.0))
        assert sol.alpha0 == pytest.approx(ALPHA0_QUAD, abs=1e-6)

    def test_minimum_value_is_robin_constant(self):
        sol = golden_section_support(PointChargeField(1.0, 2.0))
        assert sol.robin_constant == pytest.approx(FQ_PC_12, rel=1e-9)


class TestRimRoot:
    def test_point_charge_full_sphere_exactly_beyond_critical_heights(self):
        # the sign of the residual at the two bracket ends decides the
        # method; it must match the critical heights on both sides of the
        # sphere, away from the transitions themselves
        rng = random.Random(14001)
        draws = 0
        while draws < 600:
            q, h = rng.uniform(0.05, 5.0), rng.uniform(0.05, 6.0)
            gh = gonchar_heights(q)
            if min(abs(h - gh.h_plus), abs(h - gh.h_minus)) < 1e-3:
                continue
            draws += 1
            sol = solve_support(PointChargeField(q, h))
            full = h >= gh.h_plus or h <= gh.h_minus
            assert (sol.method is SupportMethod.FULL_SPHERE) == full, (q, h)
            assert (sol.alpha0 == 0.0) == full, (q, h)

    def test_quadratics_agree_with_golden_section(self):
        rng = random.Random(14002)
        for _ in range(200):
            a = rng.uniform(0.05, 3.0)
            b = a * rng.uniform(2.01, 4.0)
            c = b * b / (4.0 * a) + rng.uniform(0.0, 3.0)
            by_root = solve_support(QuadraticField(a, b, c))
            by_min = golden_section_support(QuadraticField(a, b, c))
            full = by_root.method is SupportMethod.FULL_SPHERE
            assert by_min.full_sphere == full, (a, b, c)
            assert by_root.alpha0 == pytest.approx(by_min.alpha0, rel=0, abs=1e-6), (a, b, c)

    def test_residual_keeping_its_sign_raises(self):
        with pytest.raises(NonconvergenceError, match="keeps its sign"):
            _rim_root(lambda a: (1.0, -1.0 - a), 1e-7, PI - 1e-6)


PC_TABLE = _table(PointChargeField(1.0, 2.0), 201)
SHIFTED = ShiftedField(PointChargeField(1.0, 2.0), 0.5)

ROOT = SupportMethod.TRANSCENDENTAL_ROOT
FULL = SupportMethod.FULL_SPHERE

# one field of every kind that solve_support and ffunctional tell apart,
# with its support (method, rim and the rim's tolerance) and the
# F-functional form it must reduce to
DISPATCH = [
    (PointChargeField(1.0, 2.0), (ROOT, ALPHA0_PC_12, 1e-12),
     lambda a: (ffunctional_pointcharge(1.0, 2.0, a), "ClosedForm")),
    (PointChargeField(0.5, 2.2), (FULL, 0.0, 0.0),
     lambda a: (ffunctional_pointcharge(0.5, 2.2, a), "ClosedForm")),
    (PointChargeField(2.0, 1.0), (ROOT, ALPHA0_NP[2.0], 1e-12),
     lambda a: (ffunctional_pointcharge(2.0, 1.0, a), "ClosedForm")),
    (QuadraticField(1.0, 2.5, 2.0), (ROOT, ALPHA0_QUAD, 1e-12),
     lambda a: (ffunctional_quadratic(1.0, 2.5, 2.0, a), "ClosedForm")),
    (PC_TABLE, (ROOT, ALPHA0_PC_12, 1e-6),
     lambda a: (ffunctional_numeric(PC_TABLE, a), "Numeric")),
    (SHIFTED, (ROOT, ALPHA0_PC_12, 1e-12),
     lambda a: (ffunctional_numeric(SHIFTED, a), "Numeric")),
    (ZeroField(), (FULL, 0.0, 0.0),
     lambda a: (1.0 / capacity_south_cap(a), "ClosedForm")),
]
DISPATCH_IDS = ["pc", "pc-full", "north-pole", "quad", "table", "shifted", "zero"]


class TestDispatch:
    @pytest.mark.parametrize("field,expected,form", DISPATCH, ids=DISPATCH_IDS)
    def test_solve_support_is_the_specific_solver(self, field, expected, form):
        # the rim of the field's own equation, whose Robin constant is the
        # field's F-functional form at that rim
        method, alpha0, tol = expected
        sol = solve_support(field)
        assert sol.method is method
        assert sol.alpha0 == pytest.approx(alpha0, rel=0, abs=tol)
        assert sol.robin_constant == form(sol.alpha0)[0]
        assert (sol.iterations == 0) == (method is FULL)

    @pytest.mark.parametrize("field,_,form", DISPATCH, ids=DISPATCH_IDS)
    def test_ffunctional_is_the_specific_form(self, field, _, form):
        for alpha in (0.0, 1.0):
            assert ffunctional(field, alpha) == form(alpha)

    def test_zero_field_support_is_the_whole_sphere(self):
        sol = solve_support(ZeroField())
        assert sol.method is SupportMethod.FULL_SPHERE
        assert sol.robin_constant == 1.0
