"""Tests for the independent equilibrium solvers.

Closed-form reference values reproduced by tests/oracles/compute_reference_values.py.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.interpolate import CubicSpline, PchipInterpolator, PPoly

import capfield.oracle
import capfield.potential

from capfield._numerics import PiecewiseCubic
from capfield.equilibrium import nofield_density, pointcharge_density, quadratic_density
from capfield.fields import PointChargeField, QuadraticField, ZeroField
from capfield.geometry import SphericalCap, boundary_clustered_grid
from capfield.potential import kernel_layout, kernel_rule, ring_kernel
from capfield.oracle import (
    _drop_ring,
    _free_ring,
    _solve_tridiagonal,
    _spd_inverse,
    discrete_energy_minimize,
    nystrom_solve,
    ring_energy_system,
)
from capfield._numerics import NonconvergenceError

PI = math.pi

ALPHA0_PC_12 = 0.7270148450291979835692054
FQ_PC_12 = 1.491533425110004003327
ALPHA0_QUAD = 1.905121063815038955604994
FQ_QUAD = 2.375621847562275707877242


class TestRingEnergySystem:
    def test_matrix_symmetric_positive_definite(self):
        _, _, interaction = ring_energy_system(48)
        assert np.allclose(interaction, interaction.T, rtol=0, atol=1e-13)
        assert np.linalg.eigvalsh(interaction).min() > 0.0

    def test_uniform_weights_reproduce_sphere_energy(self):
        # calibration contract: area weights give potential 1 at every ring,
        # hence total energy exactly W(S^2) = 1
        _, a, interaction = ring_energy_system(64)
        np.testing.assert_allclose(interaction @ a, 1.0, rtol=0, atol=1e-12)
        assert abs(a @ (interaction @ a) - 1.0) <= 1e-12

    def test_interior_effective_width_near_delta_over_pi(self):
        # the thin-ring self-energy log(8 sin(phi) / width) / (pi sin(phi))
        # solved for the width that the calibrated diagonal implies
        angles, _, interaction = ring_energy_system(64)
        sines = np.sin(angles)
        widths = 8.0 * sines * np.exp(-PI * sines * np.diag(interaction))
        mid = widths[20:-20] / (0.5 * PI / 64)
        np.testing.assert_allclose(mid, 1.0 / PI, rtol=2e-2)

    def test_area_weights_follow_sines(self):
        angles, area_weights, _ = ring_energy_system(32)
        s = np.sin(angles)
        np.testing.assert_allclose(area_weights, s / s.sum(), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_mirrored_pairs_equal_the_all_pairs_build(self, n):
        # the kernel is bitwise symmetric, so evaluating i < j and mirroring
        # loses nothing against evaluating every ordered pair
        phi, area_weights, mirrored = ring_energy_system(n)
        rows, cols = np.nonzero(~np.eye(n, dtype=bool))
        interaction = np.zeros((n, n))
        interaction[rows, cols] = ring_kernel(phi[rows], phi[cols]) / (2.0 * PI)
        off = interaction @ area_weights
        interaction[np.arange(n), np.arange(n)] = (1.0 - off) / area_weights
        assert np.array_equal(mirrored, interaction)


class TestNystromSolve:
    def test_zero_field_matches_closed_form(self):
        alpha = PI / 3
        profile = nystrom_solve(ZeroField(), SphericalCap(alpha), 64)
        assert abs(profile.robin_constant - PI / (PI - alpha + math.sin(alpha))) <= 1e-4
        nodes = np.asarray(profile.grid.nodes)
        exact = nofield_density(alpha, nodes)
        np.testing.assert_allclose(np.asarray(profile.values), exact, rtol=1e-2)

    def test_zero_field_profile_contract(self):
        profile = nystrom_solve(ZeroField(), SphericalCap(PI / 3), 32)
        assert profile.negative_nodes == ()
        assert abs(profile.mass - 1.0) <= 1e-4

    def test_self_convergence_zero_field(self):
        alpha = PI / 3

        def max_rel(n):
            profile = nystrom_solve(ZeroField(), SphericalCap(alpha), n)
            nodes = np.asarray(profile.grid.nodes)
            exact = nofield_density(alpha, nodes)
            return np.max(np.abs(np.asarray(profile.values) - exact) / exact)

        assert max_rel(48) >= 2.0 * max_rel(96)

    def test_point_charge_matches_closed_form(self):
        profile = nystrom_solve(PointChargeField(1.0, 2.0), SphericalCap(ALPHA0_PC_12), 96)
        assert abs(profile.robin_constant - FQ_PC_12) <= 1e-3
        nodes = np.asarray(profile.grid.nodes)
        exact, _ = pointcharge_density(1.0, 2.0, ALPHA0_PC_12, nodes)
        np.testing.assert_allclose(np.asarray(profile.values), exact, rtol=1e-2)

    def test_quadratic_matches_closed_form(self):
        profile = nystrom_solve(QuadraticField(1.0, 2.5, 2.0), SphericalCap(ALPHA0_QUAD), 64)
        assert abs(profile.robin_constant - FQ_QUAD) <= 1e-3
        nodes = np.asarray(profile.grid.nodes)
        exact, _ = quadratic_density(1.0, 2.5, 2.0, ALPHA0_QUAD, nodes)
        np.testing.assert_allclose(np.asarray(profile.values), exact, rtol=1e-2)

    def test_full_sphere_zero_field(self):
        profile = nystrom_solve(ZeroField(), SphericalCap(0.0), 48)
        assert abs(profile.robin_constant - 1.0) <= 1e-6
        np.testing.assert_allclose(
            np.asarray(profile.values), 1.0 / (4.0 * PI), rtol=1e-4
        )

    def test_non_finite_solution_raises(self, monkeypatch):
        monkeypatch.setattr(
            capfield.oracle, "dense_solve", lambda system, rhs: np.full(rhs.shape, np.inf)
        )
        with pytest.raises(NonconvergenceError):
            nystrom_solve(ZeroField(), SphericalCap(1.0), 16)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            nystrom_solve(ZeroField(), SphericalCap(PI / 3), 15)

    def test_rejects_degenerate_caps(self):
        with pytest.raises(ValueError):
            nystrom_solve(ZeroField(), SphericalCap(PI - 1e-9), 32)


def _reference_nystrom(field, cap, n):
    """The collocation solve with each row built as weights @ basis(points).

    This evaluates every basis spline, scipy's not-a-knot `CubicSpline`
    of the identity, at every quadrature point of every row; the oracle
    gets the same rows from product-integration moments and its own
    banded not-a-knot map.  Returns the node values, F_Q and the mass of
    scipy's PCHIP through the solved s*f.
    """
    grid = boundary_clustered_grid(cap, n)
    nodes = np.asarray(grid.nodes)
    knots = np.asarray(cap.s_of_phi(nodes))
    basis = CubicSpline(knots, np.eye(n), axis=0, bc_type="not-a-knot")
    layout = kernel_layout(cap, knots)
    system = np.zeros((n + 1, n + 1))
    for i in range(n):
        points, weights = kernel_rule(layout, nodes[i : i + 1])
        system[i, :n] = weights[0] @ basis(points[0])
    system[:n, n] = -1.0
    antiderivative = basis.antiderivative()
    system[n, :n] = 4.0 * PI * (antiderivative(cap.smax) - antiderivative(0.0))
    rhs = np.append(-field.value_at_x3(np.clip(np.cos(nodes), -1.0, 1.0)), 1.0)
    solution = scipy.linalg.solve(system, rhs)
    values, fq = solution[:n] / knots, float(solution[n])
    mass = 4.0 * PI * float(PchipInterpolator(knots, solution[:n]).integrate(0.0, cap.smax))
    return values, fq, mass


class TestNystromProductIntegration:
    def test_no_basis_evaluation_per_row(self, monkeypatch):
        # the rows and the unit-mass row come from moments through the
        # banded not-a-knot map: no spline is built or evaluated for them
        built, calls = [], []
        build = CubicSpline.__init__

        def counted_build(self, *args, **kwargs):
            built.append(1)
            return build(self, *args, **kwargs)

        def counting(evaluate):
            def counted(self, *args, **kwargs):
                calls.append(type(self).__name__)
                return evaluate(self, *args, **kwargs)
            return counted

        monkeypatch.setattr(CubicSpline, "__init__", counted_build)
        for spline in (PPoly, PiecewiseCubic):
            monkeypatch.setattr(spline, "__call__", counting(spline.__call__))
        counts = {}
        for n in (16, 64):
            calls.clear()
            nystrom_solve(PointChargeField(1.0, 2.0), SphericalCap(ALPHA0_PC_12), n)
            counts[n] = len(calls)
        assert built == []
        assert counts[64] == counts[16]
        assert counts[64] <= 4

    @pytest.mark.parametrize("n", [16, 37, 64])
    def test_kernel_work_per_solve(self, kernel_work, monkeypatch, n):
        # each row evaluates the kernel at the 8 (n + 1) shared GL-8 points
        # and 2 x 196 graded-side points, and one layout serves every block
        for block in (5, capfield.potential._ROW_BLOCK):
            monkeypatch.setattr(capfield.oracle, "_ROW_BLOCK", block)
            kernel_work.update(points=0, layouts=0)
            nystrom_solve(PointChargeField(1.0, 2.0), SphericalCap(ALPHA0_PC_12), n)
            assert kernel_work == {"points": n * (8 * (n + 1) + 2 * 196), "layouts": 1}

    def test_panel_rule_swaps_in_one_place(self, monkeypatch):
        # GL-16 shared panels in place of GL-8: the rule and the moment
        # binning both follow, and the node values agree to the GL-8 floor
        field, cap, n = PointChargeField(1.0, 2.0), SphericalCap(ALPHA0_PC_12), 64
        gl8 = nystrom_solve(field, cap, n)
        monkeypatch.setattr(capfield.potential, "_PANEL", capfield.potential._unit_gl(16))
        points, _ = kernel_rule(kernel_layout(cap, np.linspace(0.1, 1.0, n)), [2.0])
        assert points.shape == (1, 16 * (n + 1) + 2 * 196)
        gl16 = nystrom_solve(field, cap, n)
        rel = np.abs(gl16.values / gl8.values - 1.0).max()
        assert 0.0 < rel <= 1e-6
        assert abs(gl16.robin_constant / gl8.robin_constant - 1.0) <= 1e-6

    @given(
        kind=st.sampled_from(["zero", "point-charge", "quadratic"]),
        alpha=st.floats(0.2, 2.9),
        n=st.integers(16, 96),
        u=st.floats(0.0, 1.0),
        v=st.floats(0.0, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_basis_reference(self, kind, alpha, n, u, v):
        if kind == "zero":
            field = ZeroField()
        elif kind == "point-charge":
            field = PointChargeField(0.2 + 3.0 * u, 1.2 + 3.0 * v)
        else:
            b = 2.0 * (1.01 + 2.0 * u)
            field = QuadraticField(1.0, b, b * b / 4.0 + v)
        cap = SphericalCap(alpha)
        profile = nystrom_solve(field, cap, n)
        values, fq_ref, mass_ref = _reference_nystrom(field, cap, n)
        assert abs(profile.robin_constant - fq_ref) <= 1e-12
        assert abs(profile.mass - mass_ref) <= 1e-12
        scale = np.max(np.abs(values))
        assert np.max(np.abs(np.asarray(profile.values) - values)) <= 1e-10 * scale


    @pytest.mark.parametrize(
        "field,alpha",
        [(PointChargeField(1.0, 2.0), ALPHA0_PC_12), (ZeroField(), 0.0), (ZeroField(), 2.5)],
    )
    def test_row_blocks_match_basis_reference(self, field, alpha):
        # the first n is no multiple of the row block, so the last block is
        # short; 256 is the largest solve the benchmark runs
        cap = SphericalCap(alpha)
        for n in (2 * capfield.potential._ROW_BLOCK + 5, 256):
            with np.errstate(all="raise"):
                profile = nystrom_solve(field, cap, n)
                values, fq_ref, mass_ref = _reference_nystrom(field, cap, n)
            assert abs(profile.robin_constant - fq_ref) <= 1e-12
            assert abs(profile.mass - mass_ref) <= 1e-12
            scale = np.max(np.abs(values))
            assert np.max(np.abs(np.asarray(profile.values) - values)) <= 1e-10 * scale


def _not_a_knot_transposed(knots):
    """A^T of the not-a-knot slope system, in solve_banded's (1, 1) form,
    and as a dense matrix."""
    n, h = knots.size, np.diff(knots)
    banded = np.zeros((3, n))
    banded[0, 1:-1], banded[0, -1] = h[1:], knots[-1] - knots[-3]
    banded[1, 0], banded[1, 1:-1], banded[1, -1] = h[1], 2.0 * (h[:-1] + h[1:]), h[-2]
    banded[2, 0], banded[2, 1:-1] = knots[2] - knots[0], h[:-1]
    dense = np.diag(banded[1]) + np.diag(banded[0, 1:], 1) + np.diag(banded[2, :-1], -1)
    return banded, dense


def _random_knots(n):
    return np.sort(np.random.default_rng(n).uniform(0.0, 1.0, n))


def _clustered_knots(n, alpha=ALPHA0_PC_12):
    cap = SphericalCap(alpha)
    return np.asarray(cap.s_of_phi(np.asarray(boundary_clustered_grid(cap, n).nodes)))


class TestTridiagonalSolve:
    """The numpy elimination of the not-a-knot slopes against LAPACK's
    banded solve with partial pivoting.  A^T's end columns are not
    diagonally dominant, and LAPACK swaps rows at the first, so the
    elimination must match it in backward error as well as in value."""

    @pytest.mark.parametrize("n", [16, 37, 64, 128, 256])
    @pytest.mark.parametrize(
        "knots",
        [_clustered_knots, lambda n: _clustered_knots(n, 0.0),
         lambda n: _clustered_knots(n, 3.0), _random_knots],
        ids=["clustered", "clustered-full-sphere", "clustered-rim-3", "random"],
    )
    def test_matches_solve_banded(self, knots, n):
        banded, dense = _not_a_knot_transposed(knots(n))
        rhs = np.random.default_rng(n + 1).standard_normal((n + 1, n)).T
        ref = scipy.linalg.solve_banded((1, 1), banded, rhs)
        got = _solve_tridiagonal(banded, rhs)
        eps = np.finfo(float).eps
        size = np.max(np.abs(got), axis=0)
        backward = np.max(np.abs(dense @ got - rhs), axis=0) / (
            np.linalg.norm(dense, np.inf) * size
        )
        assert backward.max() <= 4.0 * eps
        forward = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert forward.max() <= 8.0 * eps * np.linalg.cond(dense, np.inf)


class TestDiscreteEnergyMinimize:
    def test_zero_field_weights_follow_ring_areas(self):
        result = discrete_energy_minimize(ZeroField(), 64)
        _, area_weights, _ = ring_energy_system(64)
        np.testing.assert_allclose(result.weights, area_weights, rtol=2e-2)
        assert result.robin_constant == pytest.approx(1.0, rel=0, abs=1e-14)
        assert result.min_slack is None

    def test_measure_layout(self):
        result = discrete_energy_minimize(ZeroField(), 32)
        assert result.angles.shape == result.weights.shape == (32,)
        assert result.angles[0] == pytest.approx(0.5 * PI / 32, rel=0, abs=1e-15)
        assert not (result.angles.flags.writeable or result.weights.flags.writeable)

    def test_point_charge_support_emerges(self):
        n = 64
        result = discrete_energy_minimize(PointChargeField(1.0, 2.0), n)
        phi, w = result.angles, result.weights
        spacing = PI / n
        assert np.all(w[phi < ALPHA0_PC_12 - 2 * spacing] < 1e-6)
        assert np.all(w[phi > ALPHA0_PC_12 + 2 * spacing] > 1e-8)

    def test_far_charge_keeps_full_support(self):
        # h = 3 lies beyond the large Gonchar height for q = 1
        assert discrete_energy_minimize(PointChargeField(1.0, 3.0), 64).weights.min() > 0.0

    def test_kkt_consistency_point_charge(self):
        n = 64
        field = PointChargeField(1.0, 2.0)
        w = discrete_energy_minimize(field, n).weights
        angles, _, interaction = ring_energy_system(n)
        station = interaction @ w + field.value_at_x3(np.cos(angles))
        active = w > 1e-6
        const = float(np.mean(station[active]))
        assert station[active].max() - station[active].min() <= 1e-2 * FQ_PC_12
        assert abs(const - FQ_PC_12) <= 1e-2 * FQ_PC_12
        assert np.all(station[~active] >= const - 1e-2 * FQ_PC_12)

    def test_mass_multiplier_matches_quadratic_robin(self):
        n = 64
        field = QuadraticField(1.0, 2.5, 2.0)
        w = discrete_energy_minimize(field, n).weights
        angles, _, interaction = ring_energy_system(n)
        station = interaction @ w + field.value_at_x3(np.cos(angles))
        active = w > 1e-6
        assert abs(float(np.mean(station[active])) - FQ_QUAD) <= 1e-2 * FQ_QUAD

    def test_deterministic(self):
        a = discrete_energy_minimize(PointChargeField(1.0, 2.0), 48)
        b = discrete_energy_minimize(PointChargeField(1.0, 2.0), 48)
        assert np.array_equal(a.weights, b.weights)
        assert (a.robin_constant, a.kkt_spread, a.min_slack) == (
            b.robin_constant, b.kkt_spread, b.min_slack
        )

    def test_kkt_spread_at_rounding_level(self):
        # the stationarity spread, recomputed from the weights, is at the
        # rounding level of F_Q
        n = 64
        field = PointChargeField(1.0, 2.0)
        result = discrete_energy_minimize(field, n)
        angles, _, interaction = ring_energy_system(n)
        w = result.weights
        station = interaction @ w + field.value_at_x3(np.cos(angles))
        assert np.ptp(station[w > 0.0]) <= 1e-13 * FQ_PC_12
        assert result.kkt_spread <= 1e-13 * result.robin_constant

    @given(
        kind=st.sampled_from(["outside", "inside", "on", "quadratic"]),
        u=st.floats(0.0, 1.0),
        v=st.floats(0.0, 1.0),
        strength=st.floats(0.2, 5.0),
        n=st.integers(32, 96),
    )
    @settings(max_examples=40, deadline=None)
    @example(kind="quadratic", u=0.625, v=0.0, strength=0.6171875, n=32)
    def test_kkt_conditions_hold(self, kind, u, v, strength, n):
        if kind == "outside":
            field = PointChargeField(strength, 1.05 + 3.0 * u)
        elif kind == "inside":
            field = PointChargeField(strength, 0.05 + 0.9 * u)
        elif kind == "on":
            field = PointChargeField(strength, 1.0)
        else:
            b = 2.0 * strength * (1.01 + 2.0 * u)
            c = b * b / (4.0 * strength) + v
            # at v = 0 the rounded c can leave 4ac one ulp below b^2
            while not b * b <= 4.0 * strength * c:
                c = np.nextafter(c, math.inf)
            field = QuadraticField(strength, b, c)
        result = discrete_energy_minimize(field, n)
        fq, spread, min_slack = result.robin_constant, result.kkt_spread, result.min_slack
        angles, _, interaction = ring_energy_system(n)
        w = result.weights
        assert np.all(w >= 0.0)
        assert abs(math.fsum(w) - 1.0) <= 1e-14
        station = interaction @ w + field.value_at_x3(np.cos(angles))
        free = w > 0.0
        assert np.ptp(station[free]) <= 1e-12 * fq
        assert spread <= 1e-12 * fq
        if free.all():
            assert min_slack is None
        else:
            assert (station[~free] - fq).min() >= -1e-12 * fq
            assert min_slack >= -1e-12 * fq

    def test_nonconvergence_reports_iterate(self, monkeypatch):
        monkeypatch.setattr(capfield.oracle, "_STEPS_PER_RING", 0.1)
        with pytest.raises(NonconvergenceError) as info:
            discrete_energy_minimize(PointChargeField(1.0, 2.0), 64)
        err = info.value
        assert err.error_bound > 0.0
        w = err.estimate
        assert w.shape == (64,)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-9

    def test_weights_off_a_unit_sum_raise(self, monkeypatch):
        # every ring of the zero field stays free, so the certifying solve
        # is the last step: weights scaled off a unit sum there must raise
        real_solve = capfield.oracle.dense_solve

        def scaled_solve(a, b):
            solution = real_solve(a, b)
            solution[:-1] *= 1.0 + 1e-9
            return solution

        monkeypatch.setattr(capfield.oracle, "dense_solve", scaled_solve)
        with pytest.raises(NonconvergenceError) as info:
            discrete_energy_minimize(ZeroField(), 32)
        err = info.value
        assert "not 1 within 1e-12" in str(err)
        assert err.estimate.shape == (32,)
        assert err.error_bound == pytest.approx(1e-9, rel=1e-3)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            discrete_energy_minimize(ZeroField(), 31)

    @pytest.mark.parametrize(
        "field", [QuadraticField(1.0, 2.5, 2.0), PointChargeField(1.0, 2.0)], ids=["quad", "pc"]
    )
    def test_one_dense_solve_at_256_rings(self, field, monkeypatch):
        # every active-set step goes through the kept inverse; the only
        # dense solve is the one that certifies the final free set
        calls = []
        real_solve = capfield.oracle.dense_solve

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(capfield.oracle, "dense_solve", counting_solve)
        result = discrete_energy_minimize(field, 256)
        assert len(calls) == 1
        assert result.weights.min() == 0.0
        assert result.kkt_spread <= 1e-13 * result.robin_constant
        assert result.min_slack >= 0.0


class TestConstantInQ:
    """A constant added to Q moves F_Q by that constant and nothing else:
    both oracles solve with the least sampled Q taken out."""

    def test_energy_keeps_its_active_set(self):
        base = discrete_energy_minimize(QuadraticField(1.0, 2.5, 2.0), 64)
        lifted = discrete_energy_minimize(QuadraticField(1.0, 2.5, 1e6), 64)
        active = lifted.weights > 0.0
        assert np.count_nonzero(active) == 25
        assert np.array_equal(active, base.weights > 0.0)
        assert lifted.angles[active][0] == base.angles[active][0]
        assert lifted.robin_constant - base.robin_constant == pytest.approx(
            1e6 - 2.0, rel=0, abs=1e-9
        )
        assert np.abs(lifted.weights - base.weights).max() <= 1e-9

    def test_nystrom_moves_only_its_robin_constant(self):
        cap = SphericalCap(ALPHA0_QUAD)
        base = nystrom_solve(QuadraticField(1.0, 2.5, 2.0), cap, 64)
        lifted = nystrom_solve(QuadraticField(1.0, 2.5, 1e6), cap, 64)
        assert lifted.robin_constant - base.robin_constant == pytest.approx(
            1e6 - 2.0, rel=0, abs=1e-9
        )
        assert abs(lifted.mass - base.mass) <= 1e-9

    def test_nystrom_on_a_constant_near_the_float_range(self):
        # Q rounds to 1e308 at every node, so the solve is the zero field's
        cap = SphericalCap(ALPHA0_QUAD)
        lifted = nystrom_solve(QuadraticField(1.0, 2.5, 1e308), cap, 64)
        zero = nystrom_solve(ZeroField(), cap, 64)
        assert np.array_equal(lifted.values, zero.values)
        assert lifted.robin_constant == 1e308
        assert abs(lifted.mass - 1.0) <= 1e-4


def _padded_inverse(interaction, free):
    expected = np.zeros_like(interaction)
    idx = np.flatnonzero(free)
    expected[np.ix_(idx, idx)] = np.linalg.inv(interaction[np.ix_(idx, idx)])
    return expected


class TestInverseUpdates:
    @pytest.mark.parametrize("n", [64, 256])
    def test_drops_then_frees_match_a_fresh_inverse(self, n):
        _, _, interaction = ring_energy_system(n)
        inverse = _spd_inverse(interaction)
        # the updates write in place, which needs Fortran order
        assert inverse.flags.f_contiguous
        free = np.ones(n, dtype=bool)
        expected = _padded_inverse(interaction, free)
        assert np.abs(inverse - expected).max() <= 1e-12 * np.abs(expected).max()
        rng = np.random.default_rng(n)
        dropped = rng.permutation(n)[: n // 2]
        for r in dropped:
            _drop_ring(inverse, int(r))
            free[r] = False
        expected = _padded_inverse(interaction, free)
        assert np.abs(inverse - expected).max() <= 1e-12 * np.abs(expected).max()
        for j in dropped[::2]:
            _free_ring(inverse, interaction, int(j))
            free[j] = True
        expected = _padded_inverse(interaction, free)
        assert np.abs(inverse - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.all(inverse[~free] == 0.0) and np.all(inverse[:, ~free] == 0.0)


def _closed_form_density_code(name: str) -> bool:
    return name.endswith("_density") or name == "edge_factor" or "density_general" in name


class TestOracleIndependence:
    def test_imports_nothing_from_the_density_code(self):
        # the oracles cross-check the closed forms and the Abel pipeline,
        # so they must not be built from either
        tree = ast.parse(Path(capfield.oracle.__file__).read_text())
        allowed_from_quadrature = {"NonconvergenceError"}
        offending = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").rsplit(".", 1)[-1]
                for alias in node.names:
                    name = alias.name
                    if (
                        _closed_form_density_code(name)
                        or name == "singular_quadrature"
                        or (module == "singular_quadrature" and name not in allowed_from_quadrature)
                    ):
                        offending.append(f"{module}.{name}")
            elif isinstance(node, ast.Import):
                offending.extend(
                    alias.name for alias in node.names if "singular_quadrature" in alias.name
                )
            elif isinstance(node, ast.Attribute) and _closed_form_density_code(node.attr):
                offending.append(node.attr)
        assert offending == []
