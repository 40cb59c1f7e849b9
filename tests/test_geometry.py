"""Geometry layer: angles, caps, grids."""

import math

import mpmath as mp
import numpy as np
import pytest

from capfield.geometry import (
    PhiGrid,
    SphericalCap,
    _validated_angle,
    boundary_clustered_grid,
)
from conftest import uniform_grid

PI = math.pi


class TestPolarAngle:
    def test_accepts_interval_endpoints(self):
        assert _validated_angle(0.0) == 0.0
        assert _validated_angle(PI) == PI

    @pytest.mark.parametrize("bad", [-1e-12, PI + 1e-12, 7.0, -3.0, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            SphericalCap(bad)

    def test_float_coercion_round_trips(self):
        value = _validated_angle(np.float64(1.25))
        assert type(value) is float and value == 1.25


class TestSphericalCap:
    def test_south_cap_allows_zero_means_full_sphere(self):
        cap = SphericalCap(0.0)
        assert cap.is_full_sphere

    def test_south_cap_rejects_pi(self):
        with pytest.raises(ValueError):
            SphericalCap(PI)

    @pytest.mark.parametrize("alpha", [1e-8, 1.0, PI - 1e-8])
    def test_rim_quantities_keep_relative_accuracy_at_both_poles(self, alpha):
        cap = SphericalCap(alpha)
        with mp.workdps(40):
            a = mp.mpf(alpha)
            exact = {
                "r1": 1 - mp.cos(a),
                "sqrt_r1": mp.sqrt(1 - mp.cos(a)),
                "pole_depth": 1 + mp.cos(a),
                "smax": mp.sqrt(1 + mp.cos(a)),
                "normalizer": mp.pi - a + mp.sin(a),
            }
            for name, value in exact.items():
                assert getattr(cap, name) == pytest.approx(float(value), rel=4e-16), name
            phi = [alpha + 1e-9, 0.5 * (alpha + PI), PI]
            depth = [float(mp.cos(a) - mp.cos(mp.mpf(p))) for p in phi]
        assert cap.depth(np.array(phi)) == pytest.approx(depth, rel=1e-15)
        assert cap.s_of_phi(0.5 * alpha) == 0.0

    @pytest.mark.parametrize("alpha", [1e-6, 1.0, PI - 1e-3, PI - 1e-5])
    def test_phi_of_s_round_trips_to_the_angles_resolution(self, alpha):
        # s -> phi -> s loses no more than half an ulp of phi moves s, by
        # ds/dphi = sin(phi) / (2 s); arccos(cos(alpha) - s^2) lost all of
        # s = 1e-4 smax at a rim 1e-5 from the south pole
        cap = SphericalCap(alpha)
        s = cap.smax * np.array([1e-4, 1e-2, 0.3, 0.7071, 0.99])
        phi = cap.phi_of_s(s)
        resolution = 0.5 * np.spacing(phi) * np.sin(phi) / (2.0 * s)
        eps = np.finfo(float).eps
        assert np.all(np.abs(cap.s_of_phi(phi) - s) <= 4.0 * eps * s + 8.0 * resolution)


class TestPhiGrid:
    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            PhiGrid(np.array([0.5, 0.4, 0.6]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PhiGrid(np.array([0.5, 0.5, 0.6]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PhiGrid(np.array([-0.1, 0.5]))
        with pytest.raises(ValueError):
            PhiGrid(np.array([0.5, 3.2]))

    def test_uniform_grid_is_open(self):
        g = uniform_grid(1.0, 2.0, 5)
        assert len(g) == 5
        assert g.nodes[0] > 1.0 and g.nodes[-1] < 2.0
        steps = np.diff(g.nodes)
        assert np.allclose(steps, steps[0], rtol=1e-13)

    def test_boundary_clustered_south_stays_inside(self):
        cap = SphericalCap(PI / 3)
        g = boundary_clustered_grid(cap, 64)
        assert len(g) == 64
        assert g.nodes[0] > PI / 3
        assert g.nodes[-1] < PI
        # quadratic clustering toward the rim: first gap far smaller than the mean gap
        assert g.nodes[0] - PI / 3 < 0.1 * (PI - PI / 3) / 64

    def test_boundary_clustered_respects_rim_guard(self):
        cap = SphericalCap(1.0)
        g = boundary_clustered_grid(cap, 256)
        assert g.nodes[0] - 1.0 > 1e-6

    def test_full_sphere_grid(self):
        g = boundary_clustered_grid(SphericalCap(0.0), 16)
        assert np.all((g.nodes > 0.0) & (g.nodes < PI))
