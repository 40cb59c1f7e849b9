"""Tests for the independent equilibrium solvers.

Closed-form reference values reproduced by tests/oracles/compute_reference_values.py.
"""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.linalg
from numpy.polynomial.chebyshev import chebvander
from scipy.interpolate import BarycentricInterpolator, CubicSpline, PPoly

import capfield.oracle
import capfield.potential

from capfield._numerics import GradedSeries
from capfield.equilibrium import (
    density_general,
    nofield_density,
    pointcharge_density,
    quadratic_density,
)
from capfield.fields import (
    ExternalField, PointChargeField, QuadraticField, TabulatedField, ZeroField,
)
from capfield.geometry import SphericalCap, boundary_clustered_grid
from capfield.potential import kernel_layout, kernel_rule, ring_kernel
from capfield.oracle import discrete_energy_minimize, nystrom_solve, ring_energy_system
from capfield._numerics import NonconvergenceError
from capfield.support_finder import solve_support

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

    @pytest.mark.parametrize("n", [32, 33, 63, 64, 100, 255, 256])
    def test_mirrored_pairs_equal_the_all_pairs_build(self, n):
        # the kernel is bitwise symmetric, so evaluating i < j and mirroring
        # loses nothing against evaluating every ordered pair; from 91 rings
        # on the matrix is built in bands, 100 and 255 with a short last one,
        # and the kernel's AGM takes its step count from the least parameter
        # of each call, which must not move a bit either
        phi, area_weights, mirrored = ring_energy_system(n)
        rows, cols = np.nonzero(~np.eye(n, dtype=bool))
        interaction = np.zeros((n, n))
        interaction[rows, cols] = ring_kernel(phi[rows], phi[cols]) / (2.0 * PI)
        off = interaction @ area_weights
        interaction[np.arange(n), np.arange(n)] = (1.0 - off) / area_weights
        assert np.array_equal(mirrored, interaction)

    @pytest.mark.parametrize("n", [64, 256, 1000])
    def test_kernel_calls_hold_one_band(self, monkeypatch, n):
        # each call evaluates at most _BAND_ENTRIES entries, and every pair
        # i < j exactly once
        sizes = []

        def recording(*args):
            values = ring_kernel(*args)
            sizes.append(values.size)
            return values

        monkeypatch.setattr(capfield.oracle, "ring_kernel", recording)
        ring_energy_system(n)
        assert max(sizes) <= capfield.oracle._BAND_ENTRIES
        assert sum(sizes) == n * (n - 1) // 2

    def test_assembly_peak_memory(self):
        # the banded build holds no n x n temporary beside the matrix
        # itself (0.5 MiB at 256 rings); the whole-triangle build peaked
        # at 3.78 MiB
        ring_energy_system(256)
        tracemalloc.start()
        try:
            ring_energy_system(256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2**20


class TestNystromSolve:
    def test_one_row_block_alive_at_a_time(self):
        # the previous block's points and weights (0.37 MiB at n = 256) are
        # freed before the next block's kernel rule runs; with both alive
        # the solve peaked at 1.96 MiB
        field, cap = PointChargeField(1.0, 2.0), SphericalCap(ALPHA0_PC_12)
        nystrom_solve(field, cap, 256)
        tracemalloc.start()
        try:
            nystrom_solve(field, cap, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 2**20

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


# the worst relative node error and |mass - 1| of the not-a-knot spline
# Nystrom that the Chebyshev collocation replaced, on the zero field
# against `nofield_density`, by rim angle and n (rounded up to three
# digits)
_SPLINE_RIM_GRID = {
    (0.0, 16): (1.28e-7, 2.27e-10),
    (0.0, 64): (1.65e-7, 1.51e-12),
    (0.0, 256): (1.62e-7, 1.34e-15),
    (1e-8, 16): (1.28e-7, 2.27e-10),
    (1e-8, 64): (1.65e-7, 1.51e-12),
    (1e-8, 256): (1.65e-7, 1.56e-15),
    (1e-6, 16): (1.28e-7, 2.27e-10),
    (1e-6, 64): (1.65e-7, 1.52e-12),
    (1e-6, 256): (1.53e-5, 1.48e-14),
    (1e-3, 16): (2.70e-4, 1.10e-8),
    (1e-3, 64): (1.88e-2, 1.35e-8),
    (1e-3, 256): (1.26e-2, 5.98e-9),
    (0.01, 16): (1.23e-2, 1.24e-6),
    (0.01, 64): (2.30e-2, 8.86e-7),
    (0.01, 256): (1.73e-4, 1.08e-9),
    (0.1, 16): (3.05e-2, 1.08e-4),
    (0.1, 64): (2.33e-4, 1.26e-6),
    (0.1, 256): (3.27e-6, 4.30e-8),
    (1.0, 16): (2.23e-4, 6.10e-5),
    (1.0, 64): (3.31e-6, 4.32e-6),
    (1.0, 256): (1.73e-7, 7.91e-8),
    (2.5, 16): (1.94e-6, 3.18e-5),
    (2.5, 64): (1.65e-7, 5.95e-7),
    (2.5, 256): (1.22e-7, 9.56e-9),
    (3.1, 16): (1.30e-7, 1.50e-7),
    (3.1, 64): (1.68e-7, 2.57e-9),
    (3.1, 256): (8.39e-7, 4.10e-11),
    (PI - 1e-3, 16): (1.30e-7, 1.12e-10),
    (PI - 1e-3, 64): (1.66e-7, 1.59e-12),
    (PI - 1e-3, 256): (3.37e-5, 1.23e-14),
    (PI - 1e-5, 16): (1.18e-7, 1.31e-11),
    (PI - 1e-5, 64): (2.84e-6, 1.68e-12),
    (PI - 1e-5, 256): (5.97e-4, 2.09e-12),
}


class TestNystromRimGrid:
    @pytest.mark.parametrize("alpha,n", list(_SPLINE_RIM_GRID))
    def test_no_worse_than_the_spline_oracle(self, alpha, n):
        # nor worse than 1e-8, from rims at the north pole to rims 1e-5
        # from the south pole
        profile = nystrom_solve(ZeroField(), SphericalCap(alpha), n)
        exact = nofield_density(alpha, np.asarray(profile.grid.nodes))
        node_error = np.max(np.abs(np.asarray(profile.values) - exact) / exact)
        spline_node, spline_mass = _SPLINE_RIM_GRID[alpha, n]
        assert node_error <= max(spline_node, 1e-8)
        assert abs(profile.mass - 1.0) <= max(spline_mass, 1e-8)


def _graded_variable(cap):
    """(c, A) of the oracle's graded variable s = c sinh(A u), u in [0, 1]."""
    c = min(max(cap.sqrt_r1, 3e-3), cap.smax)
    return c, math.asinh(cap.smax / c)


def _reference_nystrom(field, cap, n):
    """The collocation solve with each row built as weights @ basis(points).

    The unknowns are sigma at the d = max(16, n // 4) collocation knots,
    the rim variables of the first-kind Chebyshev points' angles.  The
    basis is scipy's `BarycentricInterpolator` of the identity in the
    graded variable u, with the weights of those knots, evaluated at every
    quadrature point of every row; the oracle gets the same rows from
    Chebyshev polynomials, a block of rows at a time.  The mass row is the
    interpolatory rule at the first-kind points, from the moments of the
    Chebyshev polynomials.  Returns the node values, F_Q, the mass, the
    interpolant's integral by numpy's 200-point Gauss-Legendre rule in u,
    and the interpolant as a function of s.
    """
    d = max(16, n // 4)
    c, stretch = _graded_variable(cap)

    def u_of(s):
        return np.arcsinh(s / c) / stretch

    theta = (np.arange(d, 0, -1) - 0.5) * (PI / d)
    u = 0.5 * (1.0 + np.cos(theta))
    angles = cap.phi_of_s(c * np.sinh(stretch * u))
    knots = cap.s_of_phi(angles)
    basis = BarycentricInterpolator(u_of(knots), np.eye(d))
    layout = kernel_layout(cap, knots)
    system = np.zeros((d + 1, d + 1))
    for i in range(d):
        points, weights = kernel_rule(layout, angles[i : i + 1])
        system[i, :d] = weights[0] @ basis(u_of(points[0]))
    system[:d, d] = -1.0
    j = np.arange(d)
    moments = np.zeros(d)  # int_0^1 T_j(2u - 1) du
    moments[::2] = 1.0 / (1.0 - j[::2] ** 2)
    rule = np.linalg.solve(np.cos(np.outer(j, theta)), moments)
    ds_du = stretch * c * np.cosh(stretch * u)
    system[d, :d] = 4.0 * PI * (rule * ds_du) @ basis(u)
    rhs = np.append(-field.value_at_x3(np.cos(angles)), 1.0)
    solution = scipy.linalg.solve(system, rhs)
    interpolant = BarycentricInterpolator(u_of(knots), solution[:d])
    node_s = cap.s_of_phi(boundary_clustered_grid(cap, n).nodes)
    values = interpolant(u_of(node_s)) / node_s
    x, w = np.polynomial.legendre.leggauss(200)
    u = 0.5 * (x + 1.0)
    mass = 2.0 * PI * float(w @ (interpolant(u) * stretch * c * np.cosh(stretch * u)))
    return values, float(solution[d]), mass, lambda s: interpolant(u_of(s))


class TestNystromProductIntegration:
    def test_no_basis_evaluation_per_row(self, monkeypatch):
        # the rows and the unit-mass row come from Chebyshev polynomials at
        # the rule's points: no spline is built or evaluated for them, and
        # the solved series is read once, at the nodes
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
        for spline, method in ((PPoly, "__call__"), (TabulatedField, "_evaluate"),
                               (GradedSeries, "__call__")):
            monkeypatch.setattr(spline, method, counting(getattr(spline, method)))
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
        # each of the d = max(16, n // 4) rows evaluates the kernel at the
        # shared panels' points, one panel per interval of 0, the d knots
        # and smax, and at 2 x 196 graded-side points; one layout serves
        # every block
        d = max(16, n // 4)
        panel = capfield.potential._PANEL[0].size
        for block in (5, capfield.potential._ROW_BLOCK):
            monkeypatch.setattr(capfield.oracle, "_ROW_BLOCK", block)
            kernel_work.update(points=0, layouts=0)
            nystrom_solve(PointChargeField(1.0, 2.0), SphericalCap(ALPHA0_PC_12), n)
            assert kernel_work == {"points": d * (panel * (d + 1) + 2 * 196), "layouts": 1}

    def test_panel_rule_swaps_in_one_place(self, monkeypatch):
        # GL-24 shared panels in place of GL-16: the rule follows, and the
        # node values agree to the GL-16 floor
        field, cap, n = PointChargeField(1.0, 2.0), SphericalCap(ALPHA0_PC_12), 64
        gl16 = nystrom_solve(field, cap, n)
        monkeypatch.setattr(capfield.potential, "_PANEL", capfield.potential._unit_gl(24))
        points, _ = kernel_rule(kernel_layout(cap, np.linspace(0.1, 1.0, n)), [2.0])
        assert points.shape == (1, 24 * (n + 1) + 2 * 196)
        gl24 = nystrom_solve(field, cap, n)
        rel = np.abs(gl24.values / gl16.values - 1.0).max()
        assert 0.0 < rel <= 1e-6
        assert abs(gl24.robin_constant / gl16.robin_constant - 1.0) <= 1e-6

    def test_fold_reproduces_panel_polynomials(self):
        # each fold matrix carries every polynomial of degree below the
        # panel size from the panel's nodes to the side points, at
        # fraction 1 - u of the panel below the diagonal and u above it
        nodes, u = capfield.potential._PANEL[0], capfield.potential._SIDE_U
        below, above = capfield.potential._side_fold()
        powers = np.arange(nodes.size)
        for fold, at in ((below, 1.0 - u), (above, u)):
            assert fold.shape == (u.size, nodes.size)
            np.testing.assert_allclose(
                fold @ nodes[:, None] ** powers, at[:, None] ** powers, rtol=0, atol=1e-14
            )

    @pytest.mark.parametrize("alpha", [0.0, ALPHA0_PC_12, 2.5])
    @pytest.mark.parametrize("n", [64, 148, 256])
    def test_folded_rows_match_per_point_projection(self, monkeypatch, alpha, n):
        # the rows with their graded sides folded onto the panels beside
        # the diagonal against weights @ T(points) over all of a row's
        # kernel points; the rows do not depend on the field
        systems = []

        def solve(system, rhs):
            systems.append(system.copy())
            return np.linalg.solve(system, rhs)

        monkeypatch.setattr(capfield.oracle, "dense_solve", solve)
        cap = SphericalCap(alpha)
        nystrom_solve(ZeroField(), cap, n)
        d = max(16, n // 4)
        c, stretch = _graded_variable(cap)
        theta = (np.arange(d, 0, -1) - 0.5) * (PI / d)
        angles = cap.phi_of_s(c * np.sinh(0.5 * stretch * (1.0 + np.cos(theta))))
        layout = kernel_layout(cap, cap.s_of_phi(angles))
        points, weights = kernel_rule(layout, angles)
        x = (2.0 / stretch) * np.arcsinh(points / c) - 1.0
        rows = np.einsum("rp,rpk->rk", weights, chebvander(x, d - 1))
        moved = np.abs(systems[0][:d, :d] - rows).max(axis=1) / np.abs(rows).max(axis=1)
        assert moved.max() <= 1e-13

    @pytest.mark.parametrize("n", [16, 128, 256])
    def test_chebyshev_values_per_solve(self, monkeypatch, n):
        # the basis is evaluated at the 16 (d + 1) shared nodes alone: the
        # graded sides reach it through the fold, with no values of their own
        computed = []

        def counted(x, degree):
            values = chebvander(x, degree)
            computed.append(values.size)
            return values

        monkeypatch.setattr(capfield.oracle, "chebvander", counted)
        nystrom_solve(PointChargeField(1.0, 2.0), SphericalCap(ALPHA0_PC_12), n)
        d = max(16, n // 4)
        assert sum(computed) == capfield.potential._PANEL[0].size * (d + 1) * d

    def test_chebvander_is_the_three_term_recurrence(self):
        # numpy's Vandermonde matrix multiplies in the recurrence's order,
        # 2x T_k - T_(k-1), so the shared nodes' values keep their bits
        x = np.concatenate(([-1.0, 0.0, 1.0], np.random.default_rng(7).uniform(-1, 1, 999)))
        previous, current, twice = np.ones_like(x), x, 2.0 * x
        columns = []
        for _ in range(64):
            columns.append(previous)
            following = twice * current
            following -= previous
            previous, current = current, following
        assert np.array_equal(chebvander(x, 63), np.stack(columns, axis=1))

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
        values, fq_ref, mass_ref, _ = _reference_nystrom(field, cap, n)
        assert abs(profile.robin_constant - fq_ref) <= 1e-12
        assert abs(profile.mass - mass_ref) <= 1e-12
        scale = np.max(np.abs(values))
        assert np.max(np.abs(np.asarray(profile.values) - values)) <= 1e-10 * scale


    @pytest.mark.parametrize(
        "field,alpha",
        [(PointChargeField(1.0, 2.0), ALPHA0_PC_12), (ZeroField(), 0.0), (ZeroField(), 2.5)],
    )
    def test_row_blocks_match_basis_reference(self, field, alpha):
        # the first n gives d = 37, no multiple of the row block, so the
        # last block is short; 256 is the largest solve the benchmark runs
        cap = SphericalCap(alpha)
        for n in (4 * (2 * capfield.potential._ROW_BLOCK + 5), 256):
            with np.errstate(all="raise"):
                profile = nystrom_solve(field, cap, n)
                values, fq_ref, mass_ref, _ = _reference_nystrom(field, cap, n)
            assert abs(profile.robin_constant - fq_ref) <= 1e-12
            assert abs(profile.mass - mass_ref) <= 1e-12
            scale = np.max(np.abs(values))
            assert np.max(np.abs(np.asarray(profile.values) - values)) <= 1e-10 * scale

    def test_profile_sigma_is_the_collocation_series(self):
        # sigma is the solved series itself, the interpolant through its
        # values at the collocation knots, over all of [0, smax]
        cap = SphericalCap(1.0)
        prof = nystrom_solve(ZeroField(), cap, 24)
        _, _, mass_ref, ref = _reference_nystrom(ZeroField(), cap, 24)
        probe = np.linspace(0.0, cap.smax, 301)
        np.testing.assert_allclose(prof.sigma(probe), ref(probe), rtol=1e-12, atol=0)
        assert prof.mass == pytest.approx(mass_ref, rel=1e-12)


class TestRimCondition:
    """sigma(0) = lim s f(phi(s)) at the rim is the weight of the density's
    inverse-square-root edge: it vanishes on the true support, is negative
    on a cap too wide and positive on one too narrow, read from the
    pipeline's profile and the Nystrom oracle's alike."""

    @pytest.mark.parametrize(
        "field",
        [PointChargeField(1.0, 2.0), PointChargeField(0.8, 1.7), QuadraticField(1.0, 2.5, 2.0)],
        ids=["pc-1-2", "pc-0.8-1.7", "quadratic"],
    )
    def test_sigma_at_the_rim_reads_the_rim_condition(self, field):
        rim = solve_support(field).alpha0
        for shift in (-0.2, 0.0, 0.2):
            cap = SphericalCap(rim + shift)
            pipeline = density_general(field, cap, boundary_clustered_grid(cap, 64)).sigma
            nystrom = nystrom_solve(field, cap, 128).sigma
            top = np.max(np.abs(pipeline(np.linspace(0.0, cap.smax, 201))))
            at_rim, oracle_at_rim = float(pipeline(0.0)), float(nystrom(0.0))
            assert abs(at_rim - oracle_at_rim) <= 1e-12 * top
            if shift < 0.0:
                assert at_rim < 0.0 and oracle_at_rim < 0.0
            elif shift > 0.0:
                assert at_rim > 0.0 and oracle_at_rim > 0.0
            else:
                assert abs(at_rim) <= 1e-14 * top
                assert abs(oracle_at_rim) <= 1e-12 * top


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
    def test_few_dense_solves_per_level_at_256_rings(self, field, monkeypatch):
        # 256 rings start from the support on 128, which starts from 64,
        # and that from a cold solve on 32: each level above the coarsest
        # only moves the rings beside the coarse rim
        events = []
        real_solve = capfield.oracle.dense_solve
        real_system = capfield.oracle.ring_energy_system

        def counting_solve(a, b):
            events[-1][1].append(a.shape[0])
            return real_solve(a, b)

        def marking_system(n):
            events.append((n, []))
            return real_system(n)

        monkeypatch.setattr(capfield.oracle, "dense_solve", counting_solve)
        monkeypatch.setattr(capfield.oracle, "ring_energy_system", marking_system)
        result = discrete_energy_minimize(field, 256)
        assert [n for n, _ in events] == [32, 64, 128, 256]
        assert max(events[0][1]) <= 33
        assert max(len(sizes) for _, sizes in events[1:]) <= 4, events
        assert result.weights.min() == 0.0
        assert result.kkt_spread <= 1e-13 * result.robin_constant
        assert result.min_slack >= 0.0


class _EquatorRidge(ExternalField):
    """Q = c (1 - x3^2), strongest on the equator: its support is two
    polar caps, not one."""

    def __init__(self, c):
        self.c = c

    def value_at_x3(self, x3):
        return self.c * (1.0 - np.asarray(x3) ** 2)

    def slope_at_x3(self, x3):
        return -2.0 * self.c * np.asarray(x3)


def _cold_start_minimum(field, n):
    """The plain active set from every ring free, on fresh bordered solves:
    (weights, F_Q, kkt_spread, min_slack), with each figure computed as
    the oracle computes it."""
    angles, w, interaction = ring_energy_system(n)
    q = field.value_at_x3(np.clip(np.cos(angles), -1.0, 1.0))
    floor = float(q.min())
    q = q - floor
    free = np.ones(n, dtype=bool)
    while True:
        idx = np.flatnonzero(free)
        bordered = np.ones((idx.size + 1, idx.size + 1))
        bordered[:-1, :-1] = interaction[np.ix_(idx, idx)]
        bordered[-1, -1] = 0.0
        solution = np.linalg.solve(bordered, np.append(-q[idx], 1.0))
        v, fq = solution[:-1], -float(solution[-1])
        if np.all(v >= 0.0):
            w[idx] = v
            station = interaction @ w + q
            slack = np.where(free, np.inf, station - fq)
            j = int(np.argmin(slack))
            if slack[j] >= -capfield.oracle._SLACK_RTOL * max(abs(fq), 1.0):
                min_slack = None if free.all() else float(slack[j])
                return w, fq + floor, float(np.ptp(station[free])), min_slack
            free[j] = True
        else:
            step = v - w[idx]
            blocking = np.flatnonzero(step < 0.0)
            ratios = w[idx[blocking]] / -step[blocking]
            k = int(np.argmin(ratios))
            w[idx] = np.maximum(w[idx] + ratios[k] * step, 0.0)
            w[idx[blocking[k]]] = 0.0
            free[idx[blocking[k]]] = False


class TestCoarseToFine:
    """The warm start from half as many rings changes the path, not the
    result: the final free set is the support of the QP's unique
    minimizer, and every output comes from the solve on it."""

    @pytest.mark.parametrize("n", [33, 63, 65, 128, 255])
    @pytest.mark.parametrize(
        "field",
        [PointChargeField(1.0, 2.0), PointChargeField(0.5, 0.8), PointChargeField(2.0, 1.0),
         QuadraticField(1.0, 2.5, 2.0), QuadraticField(2.0, 5.0, 4.0), _EquatorRidge(3.0)],
        ids=["pc-1-2", "pc-0.5-0.8", "north-pole-2", "quad", "quad-2-5-4", "ridge"],
    )
    def test_matches_the_cold_start_bitwise(self, field, n):
        result = discrete_energy_minimize(field, n)
        weights, fq, spread, min_slack = _cold_start_minimum(field, n)
        assert np.array_equal(result.weights, weights)
        assert (result.robin_constant, result.kkt_spread, result.min_slack) == (
            fq, spread, min_slack
        )

    def test_ridge_support_is_two_caps(self):
        # the case the warm start must not merge: mass at both poles and a
        # bound band around the equator
        carried = discrete_energy_minimize(_EquatorRidge(3.0), 128).weights > 0.0
        assert carried[0] and carried[-1] and not carried[64]
        assert np.count_nonzero(np.diff(carried.astype(int))) == 2

    def test_failed_coarse_solve_starts_cold(self, monkeypatch):
        # a coarse solve that raises leaves the fine level to start with
        # every ring free, which gives the same result
        real_minimize, real_solve = discrete_energy_minimize, capfield.oracle.dense_solve
        field = QuadraticField(1.0, 2.5, 2.0)
        sizes = []

        def failing_below_128(f, n):
            if n < 128:
                raise NonconvergenceError("coarse solve failed", None, math.inf)
            return real_minimize(f, n)

        def recording_solve(a, b):
            sizes.append(a.shape[0])
            return real_solve(a, b)

        monkeypatch.setattr(capfield.oracle, "discrete_energy_minimize", failing_below_128)
        monkeypatch.setattr(capfield.oracle, "dense_solve", recording_solve)
        result = failing_below_128(field, 128)
        assert sizes[0] == 129
        assert np.array_equal(result.weights, _cold_start_minimum(field, 128)[0])

    def test_coarse_support_sets_the_start(self, monkeypatch):
        # the first solve on 128 rings frees the support found on 64 and
        # the rings within one coarse spacing of it, not every ring
        first_sizes = {}
        real_solve = capfield.oracle.dense_solve
        real_system = capfield.oracle.ring_energy_system
        level = []

        def recording_solve(a, b):
            first_sizes.setdefault(level[-1], a.shape[0])
            return real_solve(a, b)

        def marking_system(n):
            level.append(n)
            return real_system(n)

        field = PointChargeField(1.0, 2.0)
        coarse = discrete_energy_minimize(field, 64)
        monkeypatch.setattr(capfield.oracle, "dense_solve", recording_solve)
        monkeypatch.setattr(capfield.oracle, "ring_energy_system", marking_system)
        result = discrete_energy_minimize(field, 128)
        carried = coarse.angles[coarse.weights > 0.0]
        started = np.abs(result.angles[:, None] - carried).min(axis=1) <= PI / 64
        assert first_sizes[128] == np.count_nonzero(started) + 1 < 128
        assert np.count_nonzero(started) >= np.count_nonzero(result.weights > 0.0)


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
