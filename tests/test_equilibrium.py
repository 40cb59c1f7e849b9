"""Closed-form densities, the general pipeline, capacities, and masses.

Frozen reference values come from tests/oracles/compute_reference_values.py
(mpmath, 40 digits).  Each closed form is pinned at two angles; masses are
checked against independent scipy quadrature in the desingularizing
variable s = sqrt(cos(alpha) - cos(phi)).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from capfield._numerics import PiecewiseCubic
from capfield.equilibrium import (
    DensityProfile,
    density_general,
    edge_factor,
    nofield_density,
    pointcharge_density,
    profile_from_callable,
    quadratic_density,
)
from capfield.fields import (
    ExternalField,
    PointChargeField,
    QuadraticField,
    TabulatedField,
    ZeroField,
)
from capfield import singular_quadrature
from capfield.geometry import SphericalCap, boundary_clustered_grid, capacity_south_cap
from capfield._numerics import NonconvergenceError
from capfield.oracle import nystrom_solve
from capfield.support_finder import gonchar_heights, solve_support
from conftest import ShiftedField, uniform_grid

PI = math.pi

# frozen support angles and Robin constants (see tests/oracles/)
ALPHA0_PC_12 = 0.7270148450291979835692054
FQ_PC_12 = 1.491533425110004003327
ALPHA0_PC_1HALF = 1.071329656580780854469236
FQ_PC_1HALF = 1.945417876306199508307
ALPHA0_NP_1 = 1.1217246238633008265287
ALPHA0_QUAD = 1.905121063815038955604994
FQ_QUAD = 2.375621847562275707877242


class CountingField(ExternalField):
    """Delegates to a base field and counts the points it evaluates,
    values and slopes alike."""

    def __init__(self, base: ExternalField) -> None:
        self.base = base
        self.points = 0

    def value_at_x3(self, x3):
        self.points += np.size(x3)
        return self.base.value_at_x3(x3)

    def slope_at_x3(self, x3):
        self.points += np.size(x3)
        return self.base.slope_at_x3(x3)


class KinkField(ExternalField):
    """Q = 5*max(0, x3 - 0.2): nondecreasing and convex, with a kink."""

    def value_at_x3(self, x3):
        return 5.0 * np.maximum(0.0, np.asarray(x3, dtype=float) - 0.2)

    def slope_at_x3(self, x3):
        return np.where(np.asarray(x3, dtype=float) > 0.2, 5.0, 0.0)


def _northpole_case(q: float):
    sol = solve_support(PointChargeField(q, 1.0))
    return (
        PointChargeField(q, 1.0),
        sol.alpha0,
        lambda p: (pointcharge_density(q, 1.0, sol.alpha0, p)[0], sol.robin_constant),
    )


# (field, support rim, closed form returning (density, Robin constant))
CLOSED_FORM_CASES = {
    "point-charge-h2": lambda: (
        PointChargeField(1.0, 2.0),
        ALPHA0_PC_12,
        lambda p: pointcharge_density(1.0, 2.0, ALPHA0_PC_12, p),
    ),
    "point-charge-h0.5": lambda: (
        PointChargeField(1.0, 0.5),
        ALPHA0_PC_1HALF,
        lambda p: pointcharge_density(1.0, 0.5, ALPHA0_PC_1HALF, p),
    ),
    "north-pole-q0.5": lambda: _northpole_case(0.5),
    "north-pole-q1": lambda: _northpole_case(1.0),
    "quadratic": lambda: (
        QuadraticField(1.0, 2.5, 2.0),
        ALPHA0_QUAD,
        lambda p: quadratic_density(1.0, 2.5, 2.0, ALPHA0_QUAD, p),
    ),
}


def _quadratic_density_mp(a, b, c, alpha0, phi) -> float:
    """`quadratic_density`'s closed form, F_Q included, at 40 digits."""
    with mp.workdps(40):
        a, b, c, al, p = (mp.mpf(v) for v in (a, b, c, alpha0, phi))
        pi = mp.pi
        ca, cp = mp.cos(al), mp.cos(p)
        r1, depth = 1 - ca, ca - cp
        fq = (
            mp.tan(al / 2)
            * (32 * a * ca**3 + 4 * (2 * a + 9 * b) * ca**2 + 4 * (9 * c - 5 * a) * ca
               + 4 * a - 36 * b + 36 * c)
            + 12 * (a + 3 * c) * (pi - al)
            + 36 * pi
        ) / (36 * (pi - al + mp.sin(al)))
        root = mp.sqrt(r1 / depth)
        edge = 1 + 2 / pi * (root - mp.atan(root))
        t1 = mp.sqrt(r1) * mp.sqrt(depth) * (20 * a * ca + 60 * a * cp + 10 * a + 27 * b)
        t2 = root * (
            8 * a * ca**2 + 10 * a * ca * cp + (4 * a + 9 * b) * ca + (20 * a + 27 * b) * cp
            + 15 * a * mp.cos(2 * p) + 9 * a + 18 * b + 18 * c
        )
        t3 = 6 * mp.atan(1 / root) * (15 * a * cp**2 + 9 * b * cp - 4 * a + 3 * c)
        return float(fq / (4 * pi) * edge + (t1 - t2 - t3) / (36 * pi**2))


def _pointcharge_density_mp(q, h, alpha0, phi) -> float:
    """`pointcharge_density`'s closed form, F_Q included, at 40 digits."""
    with mp.workdps(40):
        q, h, al, p = (mp.mpf(v) for v in (q, h, alpha0, phi))
        pi = mp.pi
        t = mp.atan(mp.cot(al / 2) * (h - 1) / (h + 1))
        fq = pi / (pi - al + mp.sin(al)) * (
            1 + q * (h + 1) / (2 * h) * (1 - al / pi) - q * (h - 1) / (pi * h) * t
        )
        root = mp.sqrt((1 - mp.cos(al)) / (mp.cos(al) - mp.cos(p)))
        edge = 1 + 2 / pi * (root - mp.atan(root))
        d2 = 1 + h**2 - 2 * h * mp.cos(p)
        term1 = root / d2
        term2 = (h - 1) / d2**1.5 * mp.atan((h - 1) / mp.sqrt(d2) / root)
        return float(fq / (4 * pi) * edge - q * (h + 1) / (2 * pi**2) * (term1 + term2))


@st.composite
def point_charges(draw):
    """(q, h) over both proper-cap height ranges, the critical heights
    h_minus and h_plus approached within 1e-3 relative, and the
    full-sphere heights beyond them."""
    q = draw(st.floats(0.2, 5.0))
    heights = gonchar_heights(q)
    lo, hi = heights.h_minus, heights.h_plus
    u = draw(st.floats(0.0, 1.0, exclude_max=True))
    region = draw(
        st.sampled_from(
            ["above", "inside", "near-above", "near-inside", "full-above", "full-inside"]
        )
    )
    h = {
        "above": 1.02 + u * (hi - 1.02),
        "inside": 0.98 - u * (0.98 - lo),
        "near-above": hi * (1.0 - 1e-3 * (1.0 - u)),
        "near-inside": lo * (1.0 + 1e-3 * (1.0 - u)),
        "full-above": hi * (1.0 + u),
        "full-inside": lo * (1.0 - 0.9 * u),
    }[region]
    return q, h


def mass_by_quadrature(f, alpha: float) -> float:
    # independent mass integral in the edge variable s
    smax = math.sqrt(1.0 + math.cos(alpha))

    def sigma(s: float) -> float:
        u = min(1.0, max(-1.0, math.cos(alpha) - s * s))
        return f(math.acos(u)) * s

    val, err = quad(sigma, 0.0, smax, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-9
    return 4.0 * PI * val


class TestCapacity:
    def test_hemisphere(self):
        assert capacity_south_cap(PI / 2) == pytest.approx(0.5 + 1.0 / PI, abs=1e-15)

    def test_full_sphere(self):
        assert capacity_south_cap(0.0) == 1.0

    def test_decreasing_in_alpha(self):
        alphas = np.linspace(0.0, 3.0, 40)
        caps = [capacity_south_cap(a) for a in alphas]
        assert all(c1 > c2 for c1, c2 in zip(caps, caps[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            capacity_south_cap(-0.1)
        with pytest.raises(ValueError):
            capacity_south_cap(3.5)


class TestEdgeFactor:
    def test_full_sphere_is_flat(self):
        assert edge_factor(0.0, 1.3) == pytest.approx(1.0, abs=1e-15)

    def test_blows_up_at_rim(self):
        assert math.isinf(edge_factor(1.0, 1.0))

    def test_decreasing_into_the_cap(self):
        vals = edge_factor(1.0, np.linspace(1.001, PI, 50))
        assert np.all(np.diff(vals) < 0.0)

    def test_domain_error_outside(self):
        with pytest.raises(ValueError):
            edge_factor(1.0, 0.5)

    @pytest.mark.parametrize(
        "at",
        [
            lambda phi: edge_factor(1.0, phi),
            lambda phi: nofield_density(1.0, phi),
            lambda phi: pointcharge_density(1.0, 2.0, ALPHA0_PC_12, phi),
            lambda phi: pointcharge_density(1.0, 1.0, 1.1, phi),
            lambda phi: quadratic_density(1.0, 2.5, 2.0, 1.9, phi),
        ],
        ids=["edge-factor", "no-field", "point-charge", "north-pole", "quadratic"],
    )
    def test_nan_angle_refused(self, at):
        # a NaN angle passes every range comparison, so the validator
        # asks for finite angles first
        with pytest.raises(ValueError, match=r"\[0, pi\]"):
            at(math.nan)
        with pytest.raises(ValueError, match=r"\[0, pi\]"):
            at(np.array([2.5, math.nan]))


class TestNofieldDensity:
    def test_frozen_values(self):
        assert nofield_density(PI / 3, 2.0) == pytest.approx(
            0.08995746479437276376408, rel=1e-12
        )
        assert nofield_density(PI / 3, PI) == pytest.approx(
            0.08733719259277348798255, rel=1e-12
        )

    def test_full_sphere_uniform(self):
        for phi in (0.0, 1.0, 2.5, PI):
            assert nofield_density(0.0, phi) == pytest.approx(
                1.0 / (4.0 * PI), rel=1e-15
            )

    def test_unit_mass(self):
        for alpha in (PI / 6, PI / 3, PI / 2, 2 * PI / 3):
            m = mass_by_quadrature(lambda p: nofield_density(alpha, p), alpha)
            assert m == pytest.approx(1.0, abs=1e-8)

    def test_infinite_at_rim_and_error_outside(self):
        assert math.isinf(nofield_density(1.0, 1.0))
        with pytest.raises(ValueError):
            nofield_density(1.0, 0.9)

    def test_vectorized(self):
        phis = np.array([1.5, 2.0, 3.0])
        vals = nofield_density(1.0, phis)
        assert vals.shape == (3,)
        assert vals[0] > vals[1] > vals[2]


class TestPointChargeDensity:
    def test_frozen_values_outside_charge(self):
        f, fq = pointcharge_density(1.0, 2.0, ALPHA0_PC_12, 2.0)
        assert fq == pytest.approx(FQ_PC_12, rel=1e-12)
        assert f == pytest.approx(0.1042004241410041774847, rel=1e-12)
        f_pi, _ = pointcharge_density(1.0, 2.0, ALPHA0_PC_12, PI)
        assert f_pi == pytest.approx(0.1094956483080645889806, rel=1e-12)

    def test_frozen_values_inside_charge(self):
        f, fq = pointcharge_density(1.0, 0.5, ALPHA0_PC_1HALF, 2.0)
        assert fq == pytest.approx(FQ_PC_1HALF, rel=1e-12)
        assert f == pytest.approx(0.1226749744444645462227, rel=1e-12)

    def test_unit_mass(self):
        m = mass_by_quadrature(
            lambda p: pointcharge_density(1.0, 2.0, ALPHA0_PC_12, p)[0], ALPHA0_PC_12
        )
        assert m == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative_on_support(self):
        phis = np.linspace(ALPHA0_PC_12 + 1e-6, PI, 500)
        f, _ = pointcharge_density(1.0, 2.0, ALPHA0_PC_12, phis)
        assert np.min(f) > 0.0

    def test_domain_and_parameter_errors(self):
        with pytest.raises(ValueError):
            pointcharge_density(1.0, 2.0, ALPHA0_PC_12, ALPHA0_PC_12)
        with pytest.raises(ValueError):
            pointcharge_density(1.0, 2.0, ALPHA0_PC_12, 0.3)
        with pytest.raises(ValueError):
            pointcharge_density(1.0, 1.0, 0.0, 2.0)  # on-sphere charge, support at the pole
        with pytest.raises(ValueError):
            pointcharge_density(-1.0, 2.0, 1.0, 2.0)


class TestNorthPoleDensity:
    @pytest.mark.parametrize("q", [1e-8, 1e-6, 1e-4])
    def test_small_rims_match_the_closed_form_at_40_digits(self, q):
        # a small charge on the sphere excavates a small rim, where
        # 1 + h^2 - 2h cos(phi) cancels; the squared distance must keep full
        # relative accuracy next to the rim and deep inside the cap
        alpha0 = solve_support(PointChargeField(q, 1.0)).alpha0
        phis = [alpha0 * k for k in (1.001, 1.01, 1.1, 2.0, 5.0, 10.0)]
        for phi in phis + [0.5 * (alpha0 + PI), PI]:
            f, _ = pointcharge_density(q, 1.0, alpha0, phi)
            exact = _pointcharge_density_mp(q, 1.0, alpha0, phi)
            assert f == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_frozen_values(self):
        assert pointcharge_density(1.0, 1.0, ALPHA0_NP_1, 2.0)[0] == pytest.approx(
            0.1232170264597183753232, rel=1e-12
        )
        assert pointcharge_density(1.0, 1.0, ALPHA0_NP_1, PI)[0] == pytest.approx(
            0.1307413264392488944952, rel=1e-12
        )

    def test_unit_mass(self):
        m = mass_by_quadrature(
            lambda p: pointcharge_density(1.0, 1.0, ALPHA0_NP_1, p)[0], ALPHA0_NP_1
        )
        assert m == pytest.approx(1.0, abs=1e-8)

    def test_matches_near_unit_height_point_charge(self):
        # the density of a charge at h = 1 +/- eps converges to the
        # on-sphere closed form
        for h in (1.0 + 1e-9, 1.0 - 1e-9):
            f, _ = pointcharge_density(1.0, h, ALPHA0_NP_1, 2.2)
            assert f == pytest.approx(
                pointcharge_density(1.0, 1.0, ALPHA0_NP_1, 2.2)[0], rel=1e-6
            )


class TestQuadraticDensity:
    def test_frozen_values(self):
        f, fq = quadratic_density(1.0, 2.5, 2.0, ALPHA0_QUAD, 3.0)
        assert fq == pytest.approx(FQ_QUAD, rel=1e-12)
        assert f == pytest.approx(0.2801667301400183547967, rel=1e-12)
        f2, _ = quadratic_density(1.0, 2.5, 2.0, ALPHA0_QUAD, 2.2)
        assert f2 == pytest.approx(0.245563136437323126397, rel=1e-12)

    def test_unit_mass(self):
        m = mass_by_quadrature(
            lambda p: quadratic_density(1.0, 2.5, 2.0, ALPHA0_QUAD, p)[0], ALPHA0_QUAD
        )
        assert m == pytest.approx(1.0, abs=1e-8)

    def test_rejects_inadmissible_coefficients(self):
        with pytest.raises(ValueError):
            quadratic_density(1.0, 1.5, 2.0, 2.0, 2.5)

    @pytest.mark.parametrize("alpha0", [1e-5, 1e-7])
    def test_small_rims_match_the_closed_form_at_40_digits(self, alpha0):
        # 1 - cos(alpha0) cancels at a small rim; the closed form must keep
        # full relative accuracy next to the rim and deep inside the cap
        for phi in (2.0 * alpha0, 10.0 * alpha0, 0.5, 2.0):
            f, _ = quadratic_density(1.0, 2.5, 2.0, alpha0, phi)
            assert f == pytest.approx(_quadratic_density_mp(1, 2.5, 2, alpha0, phi), rel=1e-13)


class TestDensityGeneral:
    def test_zero_field_reduces_to_nofield(self):
        alpha = PI / 3
        cap = SphericalCap(alpha)
        grid = boundary_clustered_grid(cap, 24)
        prof = density_general(ZeroField(), cap, grid)
        expected = nofield_density(alpha, grid.nodes)
        assert np.max(np.abs(prof.values - expected)) < 1e-10
        assert prof.robin_constant == pytest.approx(
            1.0 / capacity_south_cap(alpha), rel=1e-12
        )
        assert prof.negative_nodes == ()

    def test_constant_field_shifts_robin_only(self):
        # adding a constant to the field must leave the density unchanged
        # and shift the Robin constant by exactly that constant
        alpha = PI / 3
        cap = SphericalCap(alpha)
        grid = boundary_clustered_grid(cap, 16)
        prof = density_general(ShiftedField(ZeroField(), 1.0), cap, grid)
        expected = nofield_density(alpha, grid.nodes)
        assert np.max(np.abs(prof.values - expected)) < 1e-7
        assert prof.robin_constant == pytest.approx(
            1.0 / capacity_south_cap(alpha) + 1.0, abs=1e-8
        )

    def test_point_charge_matches_closed_form(self):
        cap = SphericalCap(ALPHA0_PC_12)
        grid = boundary_clustered_grid(cap, 16)
        prof = density_general(PointChargeField(1.0, 2.0), cap, grid)
        expected, fq = pointcharge_density(1.0, 2.0, ALPHA0_PC_12, grid.nodes)
        assert np.max(np.abs(prof.values - expected)) < 1e-5
        assert prof.robin_constant == pytest.approx(fq, abs=1e-6)
        assert prof.mass == pytest.approx(1.0, abs=1e-6)

    def test_tabulated_point_charge_matches_closed_form(self):
        x = np.linspace(-1.0, 1.0, 801)
        field = TabulatedField(x, PointChargeField(1.0, 2.0).value_at_x3(x))
        cap = SphericalCap(ALPHA0_PC_12)
        grid = boundary_clustered_grid(cap, 12)
        prof = density_general(field, cap, grid)
        expected, _ = pointcharge_density(1.0, 2.0, ALPHA0_PC_12, grid.nodes)
        assert np.max(np.abs(prof.values - expected)) < 1e-4

    def test_full_sphere_zero_field(self):
        cap = SphericalCap(0.0)
        grid = uniform_grid(0.0, PI, 20)
        prof = density_general(ZeroField(), cap, grid)
        assert np.max(np.abs(prof.values - 1.0 / (4.0 * PI))) < 1e-10
        assert prof.robin_constant == pytest.approx(1.0, abs=1e-12)

    def test_rejects_grid_outside_cap(self):
        cap = SphericalCap(1.0)
        bad = uniform_grid(0.5, 2.0, 8)
        with pytest.raises(ValueError):
            density_general(ZeroField(), cap, bad)

    def test_rejects_grid_in_guard_band(self):
        cap = SphericalCap(1.0)
        nodes = np.array([1.0 + 1e-8, 2.0, 3.0])
        from capfield.geometry import PhiGrid

        grid = PhiGrid(nodes)
        with pytest.raises(ValueError):
            density_general(ZeroField(), cap, grid)


class TestFirstStageTableInPipeline:
    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_matches_closed_form(self, case):
        field, alpha0, closed_form = CLOSED_FORM_CASES[case]()
        cap = SphericalCap(alpha0)
        grid = boundary_clustered_grid(cap, 16)
        prof = density_general(field, cap, grid)
        expected, fq = closed_form(grid.nodes)
        assert np.max(np.abs(prof.values - expected)) < 1e-5
        assert prof.robin_constant == pytest.approx(fq, abs=1e-6)
        assert prof.mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "q,h,alpha0,n",
        [
            # charge far enough out that the whole sphere is the support
            (0.5, 2.2, 0.0, 32),
            # 1e-3 above the lower critical height, where the rim is small
            (5.0, 0.06015838194201617, 0.05206713760220365, 32),
            (5.0, 0.06015838194201617, 0.05206713760220365, 64),
        ],
    )
    def test_small_and_empty_rims(self, q, h, alpha0, n):
        # the first stage's sqrt(1-c) turns over on the scale
        # 1 - cos(alpha0), which the second stage must resolve
        cap = SphericalCap(alpha0)
        grid = boundary_clustered_grid(cap, n)
        prof = density_general(PointChargeField(q, h), cap, grid)
        expected, fq = pointcharge_density(q, h, alpha0, grid.nodes)
        assert np.max(np.abs(prof.values - expected)) < 1e-8
        assert prof.robin_constant == pytest.approx(fq, abs=1e-8)
        assert prof.mass == pytest.approx(1.0, abs=1e-8)

    @given(charge=point_charges())
    @example(charge=(1.875, 0.1383662278567187))  # at h_minus(1.875), a full sphere
    @settings(max_examples=40, deadline=None)
    def test_point_charges_match_closed_form(self, charge):
        q, h = charge
        alpha0 = solve_support(PointChargeField(q, h)).alpha0
        cap = SphericalCap(alpha0)
        grid = boundary_clustered_grid(cap, 16)
        prof = density_general(PointChargeField(q, h), cap, grid)
        expected, fq = pointcharge_density(q, h, alpha0, grid.nodes)
        assert np.max(np.abs(prof.values - expected)) < 1e-5
        assert prof.robin_constant == pytest.approx(fq, abs=1e-6)
        assert prof.mass == pytest.approx(1.0, abs=1e-6)

    def test_first_stage_tabulated_once(self):
        # the per-node first stage made 1.45e8 field evaluations here
        field = CountingField(PointChargeField(1.0, 2.0))
        cap = SphericalCap(ALPHA0_PC_12)
        density_general(field, cap, boundary_clustered_grid(cap, 64))
        assert 0 < field.points < 1_000_000

    def test_one_series_per_second_stage_point(self, monkeypatch):
        # every second-stage integrand point costs one evaluation of one
        # Chebyshev series: 64 nodes and a sigma table of 33 points, 96
        # each, plus the pole.  Sampling sigma at 256 points would add
        # 24,576; a second series per point would double the count
        points = []
        evaluate = singular_quadrature.chebval

        def counting(x, c):
            points.append(np.size(x))
            return evaluate(x, c)

        monkeypatch.setattr(singular_quadrature, "chebval", counting)
        cap = SphericalCap(ALPHA0_PC_12)
        prof = density_general(PointChargeField(1.0, 2.0), cap, boundary_clustered_grid(cap, 64))
        assert sum(points) < 15_000
        assert prof.mass == pytest.approx(1.0, abs=1e-11)

    def test_kink_resolves_or_raises(self):
        cap = SphericalCap(0.5)
        grid = boundary_clustered_grid(cap, 16)
        try:
            prof = density_general(KinkField(), cap, grid)
        except NonconvergenceError as err:
            assert err.error_bound > 0.0
        else:
            assert prof.mass == pytest.approx(1.0, abs=1e-6)
            assert prof.negative_nodes == ()


def _node_profile(cap, grid, values, robin_constant):
    """A profile backed by node values only, as the Nystrom oracle builds
    it: sigma is the PCHIP of s*f through the nodes."""
    s = np.asarray(cap.s_of_phi(grid.nodes))
    return DensityProfile(cap, grid, values, robin_constant, PiecewiseCubic.pchip(s, values * s))


class TestProfilesAndMass:
    def test_closed_form_profile_mass(self):
        cap = SphericalCap(ALPHA0_PC_12)
        grid = boundary_clustered_grid(cap, 48)
        prof = profile_from_callable(
            cap,
            grid,
            lambda p: pointcharge_density(1.0, 2.0, ALPHA0_PC_12, p)[0],
            FQ_PC_12,
        )
        assert prof.mass == pytest.approx(1.0, abs=1e-8)

    def test_node_only_profile_mass(self):
        cap = SphericalCap(PI / 3)
        grid = boundary_clustered_grid(cap, 64)
        values = nofield_density(PI / 3, grid.nodes)
        prof = _node_profile(cap, grid, values, 1.0 / capacity_south_cap(PI / 3))
        assert prof.mass == pytest.approx(1.0, abs=1e-5)

    def test_scaling_scales_mass(self):
        cap = SphericalCap(PI / 3)
        grid = boundary_clustered_grid(cap, 64)
        values = nofield_density(PI / 3, grid.nodes)
        prof = _node_profile(cap, grid, 2.0 * values, 0.0)
        assert prof.mass == pytest.approx(2.0, abs=2e-5)

    def test_negative_values_flagged_not_clamped(self):
        cap = SphericalCap(1.0)
        grid = uniform_grid(1.1, 3.0, 5)
        values = np.array([0.1, 0.2, -0.05, 0.2, 0.1])
        prof = _node_profile(cap, grid, values, 1.0)
        assert prof.negative_nodes == (2,)
        assert prof.values[2] == -0.05

    def test_mismatched_lengths_rejected(self):
        cap = SphericalCap(1.0)
        grid = uniform_grid(1.1, 3.0, 5)
        sigma = _node_profile(cap, grid, np.ones(5), 1.0).sigma
        with pytest.raises(ValueError):
            DensityProfile(cap, grid, np.ones(4), 1.0, sigma)

    def test_nofield_profile_mass(self):
        cap = SphericalCap(PI / 3)
        grid = boundary_clustered_grid(cap, 48)
        prof = profile_from_callable(
            cap,
            grid,
            lambda p: nofield_density(PI / 3, p),
            1.0 / capacity_south_cap(PI / 3),
        )
        assert prof.mass == pytest.approx(1.0, abs=1e-7)


class TestSigmaTable:
    @pytest.mark.parametrize("alpha", [0.3, 0.1, 1e-2, 1e-3, 1e-4, 0.0])
    def test_small_rim_mass(self, alpha):
        # the edge part turns over on the scale sqrt(1 - cos(alpha)), which
        # the graded table resolves however small the rim
        cap = SphericalCap(alpha)
        prof = profile_from_callable(
            cap,
            boundary_clustered_grid(cap, 64),
            lambda p: pointcharge_density(0.5, 2.2, alpha, p)[0],
            pointcharge_density(0.5, 2.2, alpha, PI)[1],
        )
        assert abs(prof.mass - 1.0) <= 1e-12

    @pytest.mark.parametrize("h", [3.0, (1.0 + math.sqrt(5.0)) / 2.0 + 1.0])
    def test_full_sphere_pipeline_mass(self, h):
        # beyond and at the critical height of a unit charge
        cap = SphericalCap(0.0)
        grid = boundary_clustered_grid(cap, 64)
        prof = density_general(PointChargeField(1.0, h), cap, grid)
        expected, _ = pointcharge_density(1.0, h, 0.0, grid.nodes)
        assert np.max(np.abs(prof.values - expected)) < 1e-8
        assert abs(prof.mass - 1.0) <= 1e-11

    def test_spline_matches_the_density(self):
        # values and slopes of the Hermite spline come from the table, so it
        # reproduces sigma between its knots too
        alpha = 0.05
        cap = SphericalCap(alpha)
        prof = profile_from_callable(
            cap, boundary_clustered_grid(cap, 16), lambda p: nofield_density(alpha, p),
            PI / cap.normalizer,
        )
        # s from phi by the product form of cos(alpha) - cos(phi), which
        # keeps its relative accuracy at the rim
        phi = np.linspace(alpha + 1e-5, PI, 1001)
        s = np.sqrt(2.0 * np.sin(0.5 * (phi + alpha)) * np.sin(0.5 * (phi - alpha)))
        expected = s * nofield_density(alpha, phi)
        assert np.max(np.abs(prof.sigma(s) - expected)) <= 1e-11 * np.max(expected)

    def test_unresolved_density_raises(self):
        cap = SphericalCap(0.5)
        with pytest.raises(NonconvergenceError, match="sigma table unresolved"):
            profile_from_callable(
                cap, boundary_clustered_grid(cap, 8), lambda p: np.sin(1e4 * p), 1.0
            )


def _graded_knots(s_lo, smax, n):
    """Knots graded toward s_lo > 0, like the sigma table's."""
    return s_lo + (smax - s_lo) * np.linspace(0.0, 1.0, n) ** 2


PCHIP_DATA = {
    "monotone": (np.array([0.1, 0.15, 0.3, 0.32, 0.6, 0.9, 1.4]),
                 np.array([0.0, 0.2, 0.25, 0.9, 1.0, 3.0, 3.1])),
    "flat": (np.array([0.1, 0.4, 0.5, 0.9, 1.2]), np.array([1.0, 1.0, 1.0, 2.0, 2.0])),
    "sign-changing": (np.linspace(0.05, 1.3, 12), np.sin(7.0 * np.linspace(0.05, 1.3, 12))),
    "two-sample": (np.array([0.2, 0.7]), np.array([1.5, -0.5])),
    "three-sample": (np.array([0.2, 0.3, 0.7]), np.array([1.5, 1.0, 3.0])),
    # the one-sided end slopes: clamped to three secants, and zeroed
    "three-sample-peak": (np.array([0.2, 1.2, 1.3]), np.array([0.0, 1.0, 0.0])),
    "three-sample-kink": (np.array([0.1, 1.0, 1.1]), np.array([0.0, 1.0, 11.0])),
}


class TestPiecewiseCubic:
    """scipy's splines referee the numpy one that every profile holds."""

    def test_hermite_matches_scipy(self):
        # knots from s_lo > 0, as in the sigma table: the first piece also
        # covers [0, s_lo], and the mass integrates from 0
        s_lo, smax = 2e-3, 1.3
        s = _graded_knots(s_lo, smax, 41)
        values, slopes = np.cos(3.0 * s) * s, np.cos(3.0 * s) - 3.0 * s * np.sin(3.0 * s)
        ours = PiecewiseCubic.hermite(s, values, slopes)
        ref = CubicHermiteSpline(s, values, slopes)
        probe = np.concatenate((np.linspace(0.0, s_lo, 7), np.linspace(0.0, smax + 0.1, 501), s))
        tol = 8.0 * np.finfo(float).eps
        np.testing.assert_allclose(ours(probe), ref(probe), rtol=0, atol=tol)
        assert ours(probe.reshape(3, -1)).shape == (3, probe.size // 3)
        for a, b in [(0.0, smax), (0.0, s_lo), (0.0, 0.5), (0.4, 0.41), (smax, smax + 0.1)]:
            assert ours.integrate(a, b) == pytest.approx(float(ref.integrate(a, b)), rel=0, abs=tol)

    @pytest.mark.parametrize("s, y", PCHIP_DATA.values(), ids=PCHIP_DATA.keys())
    def test_pchip_matches_scipy(self, s, y):
        ours = PiecewiseCubic.pchip(s, y)
        ref = PchipInterpolator(s, y, extrapolate=True)
        # rows of powers 1, t, t^2, t^3 over the pieces: the first two are
        # the PCHIP's knot values and slopes
        expected = ref.c[::-1]
        tol = 8.0 * np.finfo(float).eps * np.max(np.abs(expected), axis=1, keepdims=True)
        assert np.all(np.abs(ours._coefficients - expected) <= tol)
        # values in every piece and extrapolated past both ends
        probe = np.linspace(s[0] - 0.1, s[-1] + 0.1, 401)
        np.testing.assert_allclose(ours(probe), ref(probe), rtol=0, atol=1e-14)
        assert ours.integrate(0.0, s[-1] + 0.1) == pytest.approx(
            float(ref.integrate(0.0, s[-1] + 0.1)), rel=0, abs=1e-14
        )

    @pytest.mark.parametrize(
        "s, y", [([0.1, 0.1, 0.2], [0.0, 1.0, 2.0]), ([0.1], [0.0]), ([0.1, 0.2], [0.0])]
    )
    def test_bad_knots_refused(self, s, y):
        with pytest.raises(ValueError):
            PiecewiseCubic.pchip(s, y)

    def test_profile_sigma_is_the_node_pchip(self):
        # the Nystrom oracle's profile: sigma is the PCHIP of s*f through
        # its nodes, extrapolated to the rim and to smax
        cap = SphericalCap(1.0)
        prof = nystrom_solve(ZeroField(), cap, 24)
        s = np.asarray(cap.s_of_phi(prof.grid.nodes))
        ref = PchipInterpolator(s, prof.values * s)
        probe = np.linspace(0.0, cap.smax, 301)
        np.testing.assert_allclose(prof.sigma(probe), ref(probe), rtol=1e-14, atol=0)
        assert prof.mass == pytest.approx(4.0 * PI * float(ref.integrate(0.0, cap.smax)),
                                          rel=1e-14)
