"""Ring kernel, single-layer potentials, and equilibrium verification."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ellipk as scipy_ellipk, ellipkm1

import capfield.potential
from capfield.equilibrium import density_general
from capfield.fields import PointChargeField, QuadraticField, ZeroField
from capfield.geometry import SphericalCap, boundary_clustered_grid, capacity_south_cap
from capfield.potential import (
    EquilibriumReport,
    _kernel_parts,
    kernel_layout,
    kernel_rule,
    potential_on_sphere,
    ring_kernel,
    verify_equilibrium,
)
from capfield.support_finder import solve_support
from conftest import uniform_grid

PI = math.pi

ALPHA0_PC_12 = 0.7270148450291979835692054
FQ_PC_12 = 1.491533425110004003327


def uniform_profile(n=40):
    cap = SphericalCap(0.0)
    return density_general(ZeroField(), cap, uniform_grid(0.0, PI, n))


def nofield_profile(alpha, n=64):
    cap = SphericalCap(alpha)
    return density_general(ZeroField(), cap, boundary_clustered_grid(cap, n))


def pointcharge_profile(n=64, alpha=ALPHA0_PC_12):
    cap = SphericalCap(alpha)
    return density_general(PointChargeField(1.0, 2.0), cap, boundary_clustered_grid(cap, n))


def elliptic_k(k):
    # complete elliptic integral of the first kind, modulus k, as the
    # factor the ring kernel takes it from: with max(a^2, b^2) = 1 the
    # kernel is 4 K(k) at complementary parameter 2 |cos(xi) - cos(phi)|
    kp2 = (1.0 - k) * (1.0 + k)
    return _kernel_parts(1.0, 1.0, 1.0, 1.0, kp2)


def mp_ring_kernel(phi, xi):
    # int_0^2pi d(eta) / sqrt(A - B cos(eta)) = 4 K(m) / sqrt(A + B), with
    # A + B = 4 sin^2((phi + xi)/2) and 1 - m = sin^2((phi - xi)/2) / that;
    # 1 - m is formed from the half-angle sines, free of cancellation
    with mp.workdps(30):
        p, x = mp.mpf(float(phi)), mp.mpf(float(xi))
        plus = mp.sin((p + x) / 2) ** 2
        kp2 = mp.sin((p - x) / 2) ** 2 / plus
        with mp.workdps(30 + 30):  # 1 - k'^2 keeps k'^2's digits
            m = 1 - kp2
        return float(4 * mp.ellipk(m) / (2 * mp.sqrt(plus)))


class TestEllipticK:
    def test_zero_modulus_exact(self):
        assert elliptic_k(0.0) == pytest.approx(PI / 2, abs=0.0)

    @pytest.mark.parametrize(
        "k,ref",
        [
            (0.1, 1.574745561517355952669),
            (0.5, 1.685750354812596042871),
            (0.9, 2.280549138422770204614),
        ],
    )
    def test_frozen_values(self, k, ref):
        assert elliptic_k(k) == pytest.approx(ref, rel=1e-14)

    def test_matches_scipy_parameter_convention(self):
        for k in np.linspace(0.01, 0.99, 23):
            assert elliptic_k(k) == pytest.approx(float(scipy_ellipk(k * k)), rel=1e-14)

    @pytest.mark.parametrize("kp", np.geomspace(1e-12, 1.0, 25))
    def test_matches_mpmath_down_the_log_diagonal(self, kp):
        # the factor, with the complementary modulus k' given directly;
        # k' -> 0 is the kernel's logarithmic diagonal
        factor = _kernel_parts(1.0, 1.0, 1.0, 1.0, kp * kp)
        with mp.workdps(30 + 30):
            ref = mp.ellipk(1 - mp.mpf(kp) ** 2)
        assert factor == pytest.approx(float(ref), rel=1e-14)

    @pytest.mark.parametrize("least", [0.35, 1e-2, 1e-5, 1e-300])
    def test_agm_within_4_ulps_of_mpmath(self, least):
        # K(1 - p) = pi / (2 AGM(1, sqrt(p))) at 80 digits, on log-uniform
        # p in [least, 1]: the least p of the array sets the AGM's steps.
        # The widest range also takes both sides of the switch to the
        # logarithmic asymptote and the least subnormal
        p = np.geomspace(least, 1.0, 301)
        if least < capfield.potential._K_LOG_BELOW:
            switch = capfield.potential._K_LOG_BELOW
            p = np.concatenate((
                p, switch * np.array([1e-4, 0.5, 1.0 - 2**-52, 1.0, 1.0 + 2**-52, 2.0, 1e4]),
                [np.nextafter(1.0, 0.0), 5e-324],
            ))
        got = capfield.potential._ellipkm1(p.copy())
        with mp.workdps(80):
            ref = [float(mp.pi / (2 * mp.agm(1, mp.sqrt(mp.mpf(float(x)))))) for x in p]
        ulps = np.abs(got - ref) / np.spacing(np.array(ref))
        assert ulps.max() <= 4.0

    def test_agm_within_4_ulps_of_cephes(self):
        # scipy's ellipkm1, which the kernel took K from before
        p = 10.0 ** np.random.default_rng(7).uniform(-300.0, 0.0, 100_000)
        ref = ellipkm1(p)
        got = capfield.potential._ellipkm1(p.copy())
        assert np.max(np.abs(got - ref) / np.spacing(ref)) <= 4.0

    @pytest.mark.parametrize(
        "phi,xi",
        [
            (0.0, 0.4),
            (0.0, 2.0),
            (PI, 2.0),
            (PI, 0.3),
            (1.2, 1.2 + 1e-12),
            (2.0, 2.0 - 1e-9),
            (0.7, 0.7 + 1e-5),
            (0.7, 1.9),
        ],
    )
    def test_ring_kernel_matches_mpmath(self, phi, xi):
        # the whole kernel, at both poles and close to the diagonal
        assert ring_kernel(phi, xi) == pytest.approx(mp_ring_kernel(phi, xi), rel=1e-14)


class TestRingKernel:
    def test_at_south_pole(self):
        # observation point at phi = pi sees the ring at constant distance
        assert ring_kernel(PI, 2.0) == pytest.approx(PI / math.cos(1.0), rel=1e-13)

    def test_at_north_pole(self):
        assert ring_kernel(0.0, 2.0) == pytest.approx(PI / math.sin(1.0), rel=1e-13)

    def test_pole_to_pole(self):
        # antipodal point at distance 2: azimuthal average is 2*pi/2
        assert ring_kernel(0.0, PI) == pytest.approx(PI, rel=1e-14)

    def test_symmetry(self):
        for phi, xi in [(0.3, 2.2), (1.0, 1.5), (2.9, 0.4)]:
            assert ring_kernel(phi, xi) == pytest.approx(
                ring_kernel(xi, phi), rel=1e-13
            )

    def test_against_direct_azimuthal_quadrature(self):
        # brute-force the azimuth integral of the inverse chord length
        from scipy.integrate import quad

        for phi, xi in [(0.7, 1.9), (2.4, 1.1), (1.3, 1.303)]:
            def chord_inv(eta):
                g = math.cos(phi) * math.cos(xi) + math.sin(phi) * math.sin(
                    xi
                ) * math.cos(eta)
                return 1.0 / math.sqrt(max(2.0 - 2.0 * g, 1e-300))

            ref = quad(chord_inv, 0.0, 2.0 * PI, epsabs=1e-12, limit=400)[0]
            assert ring_kernel(phi, xi) == pytest.approx(ref, rel=1e-9)

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            ring_kernel(1.3, 1.3)
        with pytest.raises(ValueError):
            ring_kernel(0.0, 0.0)

    def test_vectorized_second_argument(self):
        xi = np.array([0.5, 1.5, 2.5])
        vals = ring_kernel(1.0, xi)
        assert vals.shape == (3,)
        for v, x in zip(vals, xi):
            assert v == pytest.approx(ring_kernel(1.0, float(x)), rel=1e-14)

    def test_index_pairs_match_gathered_angles_bitwise(self):
        # with pairs, 1 -+ cos of each ring is taken once and gathered
        phi = np.array([0.0, 0.3, 1.2, 2.0, PI])
        xi = np.array([0.1, 1.0, 2.9])
        rows, cols = np.array([0, 1, 4, 2, 3, 0]), np.array([1, 2, 0, 0, 2, 2])
        assert np.array_equal(ring_kernel(phi, xi, (rows, cols)),
                              ring_kernel(phi[rows], xi[cols]))
        with pytest.raises(ValueError, match="singular on the diagonal"):
            ring_kernel(phi, phi, (rows, rows))

    @pytest.mark.parametrize(
        "phi,xi",
        [
            (0.0, 2.0**-480),
            (2.0**-481, 2.0**-480),
            (2.0**-480 * (1.0 - 2.0**-52), 2.0**-480),
            (2.0**-480, 2.0**-480 * (1.0 + 2.0**-52)),
            (0.0, 1e-100),
            (1e-300, 1e-3),
            (0.0, 1e-12),
        ],
    )
    def test_rings_near_the_north_pole_match_mpmath(self, phi, xi):
        # down to the bound, 1 - cos of the outer ring and the gap stay
        # normal floats; the warning filter turns any stray underflow into
        # an error
        assert ring_kernel(phi, xi) == pytest.approx(mp_ring_kernel(phi, xi), rel=1e-14)
        assert ring_kernel(xi, phi) == ring_kernel(phi, xi)

    @pytest.mark.parametrize(
        "phi,xi", [(0.0, 1e-300), (1e-300, 2e-300), (0.0, 1e-160), (2.0**-481, 2.0**-480.5)]
    )
    def test_rings_both_past_the_pole_bound_refused(self, phi, xi):
        # past the bound the kernel loses digits and then turns to nan: it
        # read nan at (0, 1e-300) and 6.283220e160 for 2 pi 1e160 at
        # (0, 1e-160); a pair just inside the bound is refused too
        with pytest.raises(ValueError, match=r"3\.2e-145 \(2\*\*-480\) from the north pole"):
            ring_kernel(phi, xi)
        pairs = (np.array([0, 1]), np.array([1, 0]))
        with pytest.raises(ValueError, match="from the north pole"):
            ring_kernel(np.array([phi, xi]), np.array([phi, xi]), pairs)

    def test_pole_bound_is_per_pair(self):
        # the bound holds per pair: a ring on the pole is fine beside a ring
        # beyond the bound, in one call with other pairs
        got = ring_kernel(np.array([0.0, 1e-200]), np.array([1.0, 0.5]))
        assert got == pytest.approx([mp_ring_kernel(0.0, 1.0), mp_ring_kernel(1e-200, 0.5)],
                                    rel=1e-14)


class TestPotentialOnSphere:
    def test_uniform_measure_unit_potential(self):
        prof = uniform_profile()
        for phi in (0.0, 0.4, 1.2, 2.0, 2.9, PI):
            assert potential_on_sphere(prof, phi) == pytest.approx(1.0, abs=1e-8)

    def test_nofield_cap_constant_on_support(self):
        alpha = PI / 3
        prof = nofield_profile(alpha)
        w = 1.0 / capacity_south_cap(alpha)
        for phi in (1.3, 2.0, 2.6, PI):
            assert potential_on_sphere(prof, phi) == pytest.approx(w, abs=2e-6)

    def test_nofield_cap_strictly_smaller_off_support(self):
        # the conductor-cap potential drops below the Robin constant away
        # from the cap (maximum principle); reference values from a 30-digit
        # adaptive quadrature of the same closed-form density
        alpha = PI / 3
        prof = nofield_profile(alpha)
        w = 1.0 / capacity_south_cap(alpha)
        assert potential_on_sphere(prof, 0.0) == pytest.approx(
            0.707465408385, abs=2e-6
        )
        assert potential_on_sphere(prof, 0.3) == pytest.approx(
            0.720989369337, abs=2e-6
        )
        assert potential_on_sphere(prof, 1.0) == pytest.approx(
            0.951436395416, abs=2e-6
        )
        for phi in (0.0, 0.3, 0.8):
            assert potential_on_sphere(prof, phi) < w - 1e-3

    def test_point_charge_equilibrium_condition(self):
        # U + Q must be the Robin constant on the support
        prof = pointcharge_profile()
        field = PointChargeField(1.0, 2.0)
        for phi in (1.0, 1.8, 2.6, PI):
            u = potential_on_sphere(prof, phi)
            assert u + field.value_at_x3(math.cos(phi)) == pytest.approx(FQ_PC_12, abs=1e-4)

    def test_rejects_bad_angle(self):
        prof = uniform_profile()
        with pytest.raises(ValueError):
            potential_on_sphere(prof, -0.1)

    def test_nofield_cap_across_the_rim(self):
        # U meets the Robin constant at the rim from inside the cap and
        # falls below it like the square root of the distance outside
        alpha = PI / 3
        prof = nofield_profile(alpha)
        w = 1.0 / capacity_south_cap(alpha)
        for phi in (alpha, alpha + 1e-9, alpha + 1e-3):
            assert potential_on_sphere(prof, phi) == pytest.approx(w, abs=2e-6)
        near = w - potential_on_sphere(prof, alpha - 1e-9)
        far = w - potential_on_sphere(prof, alpha - 1e-3)
        assert 0.0 < near < far
        assert far / near == pytest.approx(1e3, rel=1e-2)

    @pytest.mark.parametrize("phi", [PI, PI - 1e-9])
    def test_nofield_cap_at_the_south_pole_for_a_rim_near_pi(self, phi):
        # with the rim near pi, cos(alpha) - cos(phi) rounds past smax^2 at
        # the pole; a diagonal left beyond smax ended the last shared panel on
        # the log singularity and gave U 113% too large at phi = pi
        alpha = 3.1
        prof = nofield_profile(alpha)
        w = 1.0 / capacity_south_cap(alpha)
        assert potential_on_sphere(prof, phi) == pytest.approx(w, rel=1e-6)

    def test_one_layout_and_fixed_points_per_angle(self, kernel_work, monkeypatch):
        # without knots every angle sees one shared panel and 2 x 196
        # graded-side points; one layout serves every block of angles
        prof = nofield_profile(PI / 3)
        angles = np.linspace(0.0, PI, 101)
        panel = capfield.potential._PANEL[0].size
        for block in (7, capfield.potential._ROW_BLOCK):
            monkeypatch.setattr(capfield.potential, "_ROW_BLOCK", block)
            kernel_work.update(points=0, layouts=0)
            potential_on_sphere(prof, angles)
            assert kernel_work == {"points": angles.size * (panel + 2 * 196), "layouts": 1}

    def test_vectorized_angles(self):
        # more angles than one application of the rule takes
        prof = nofield_profile(PI / 3)
        angles = np.linspace(0.0, PI, 39).reshape(3, 13)
        values = potential_on_sphere(prof, angles)
        assert values.shape == (3, 13)
        for phi, value in zip(angles.ravel(), values.ravel()):
            assert value == pytest.approx(potential_on_sphere(prof, float(phi)), rel=1e-14)


def smooth_sigma(s):
    return np.cos(s) + s * s


class TestKernelRule:
    def test_diagonal_snaps_onto_a_knot_one_ulp_away(self):
        # the diagonal of node phi must land on its own knot even when the
        # knot was rounded differently; a shared panel next to an unresolved
        # log singularity would otherwise cost many digits
        cap = SphericalCap(0.9)
        phi = 1.7
        s0 = float(cap.s_of_phi(phi))
        knots = np.sort(np.append(np.linspace(0.05, 0.95, 7) * cap.smax, s0))
        i = int(np.flatnonzero(knots == s0)[0])

        def potential(k):
            points, weights = kernel_rule(kernel_layout(cap, k), [phi])
            return float(weights[0] @ smooth_sigma(points[0]))

        exact = potential(knots)
        for toward in (-np.inf, np.inf):
            nudged = knots.copy()
            nudged[i] = np.nextafter(s0, toward)
            assert potential(nudged) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.9, 2.4, 3.1])
    @pytest.mark.parametrize("with_knots", [False, True])
    def test_batched_rows_match_one_angle_at_a_time(self, alpha, with_knots):
        cap = SphericalCap(alpha)
        nodes = boundary_clustered_grid(cap, 20).nodes
        knots = cap.s_of_phi(nodes) if with_knots else ()
        angles = [
            0.0,
            0.5 * alpha,  # off the support, or the north pole again
            alpha,  # the rim
            alpha + 1e-9,
            nodes[3],  # on a knot
            np.nextafter(nodes[3], PI),  # one ulp off it
            nodes[3] + 1e-3,
            nodes[-1],
            np.nextafter(PI, 0.0),
            PI,
        ]
        layout = kernel_layout(cap, knots)
        with np.errstate(all="raise"):
            points, weights = kernel_rule(layout, angles)
            assert points.shape == weights.shape
            assert points.shape[0] == len(angles)
            batched = np.sum(weights * smooth_sigma(points), axis=1)
            for phi, value in zip(angles, batched):
                p1, w1 = kernel_rule(layout, [phi])
                assert p1.shape == (1, points.shape[1])
                single = float(w1[0] @ smooth_sigma(p1[0]))
                assert np.isfinite(single)
                assert value == pytest.approx(single, rel=1e-14)

    def test_shared_columns_are_the_same_for_every_row(self):
        cap = SphericalCap(0.9)
        knots = cap.s_of_phi(boundary_clustered_grid(cap, 12).nodes)
        points, weights = kernel_rule(kernel_layout(cap, knots), [0.0, 1.3, 2.0, PI])
        panel = capfield.potential._PANEL[0].size
        shared = panel * (len(knots) + 1)
        assert np.all(points[:, :shared] == points[0, :shared])
        # each row leaves out the one or two panels that meet its diagonal
        dead = np.sum(weights[:, :shared].reshape(4, -1, panel) == 0.0, axis=(1, 2))
        assert np.all((dead == panel) | (dead == 2 * panel))
        assert np.all(weights[:, shared:] >= 0.0)

    def test_zero_width_sides_add_nothing(self):
        # off the support and at phi = pi one graded side has zero width
        with np.errstate(all="raise"):
            points, weights = kernel_rule(kernel_layout(SphericalCap(0.9)), [0.3, PI])
        assert np.all(np.isfinite(weights))
        sides = weights[:, capfield.potential._PANEL[0].size :].reshape(2, 2, -1)
        assert np.all(sides[0, 0] == 0.0)  # below s0 = 0
        assert np.all(sides[1, 1] == 0.0)  # above s0 = smax
        assert np.all(sides[0, 1] > 0.0) and np.all(sides[1, 0] > 0.0)


class TestVerifyEquilibrium:
    def test_accepts_point_charge_triple(self):
        prof = pointcharge_profile()
        report = verify_equilibrium(PointChargeField(1.0, 2.0), prof, tol=1e-4)
        assert isinstance(report, EquilibriumReport)
        assert report.verdict
        assert report.sup_deviation_on_support < 1e-4
        assert report.min_slack_off_support > -1e-4
        assert report.mass_error < 1e-6

    def test_conductor_cap_rejected_on_slack(self):
        # a prescribed cap without a field is not the minimizer of the
        # weighted energy (that would be the whole sphere), so the potential
        # is constant on the cap yet sinks below the Robin constant off it
        prof = nofield_profile(PI / 3)
        report = verify_equilibrium(ZeroField(), prof, tol=1e-4)
        assert report.sup_deviation_on_support < 1e-5
        assert report.min_slack_off_support == pytest.approx(-0.3537, abs=5e-3)
        assert not report.verdict

    def test_accepts_quadratic_triple(self):
        cap = SphericalCap(1.905121063815038955604994)
        prof = density_general(QuadraticField(1.0, 2.5, 2.0), cap, boundary_clustered_grid(cap, 64))
        report = verify_equilibrium(QuadraticField(1.0, 2.5, 2.0), prof, tol=1e-4)
        assert report.verdict

    @pytest.mark.parametrize("q, h", [(0.05, 1.2), (0.001, 1.001)])
    def test_accepts_pipeline_density_on_a_small_rim(self, q, h):
        # rims of 0.234 and 0.045: the on-support deviation grows as the
        # rim shrinks (4.4e-10 and 1.1e-6 at n = 32, against 6.6e-14 at
        # the rim 0.727 of the charge (1, 2)), but stays within tol
        field = PointChargeField(q, h)
        cap = SphericalCap(solve_support(field).alpha0)
        prof = density_general(field, cap, boundary_clustered_grid(cap, 32))
        report = verify_equilibrium(field, prof, tol=1e-4)
        assert report.verdict
        assert abs(prof.mass - 1.0) <= 1e-10

    def test_full_sphere_has_no_off_support_region(self):
        prof = uniform_profile()
        report = verify_equilibrium(ZeroField(), prof, tol=1e-4)
        assert report.verdict
        assert report.min_slack_off_support is None

    def test_rejects_support_guessed_too_small(self):
        # rim pushed outward: the variational inequality fails off support
        prof = pointcharge_profile(alpha=ALPHA0_PC_12 + 0.2)
        report = verify_equilibrium(PointChargeField(1.0, 2.0), prof, tol=1e-4)
        assert not report.verdict
        assert report.min_slack_off_support < -1e-4

    def test_rejects_support_guessed_too_large(self):
        # rim pulled inward: the density develops a negative lobe
        prof = pointcharge_profile(alpha=ALPHA0_PC_12 - 0.2)
        report = verify_equilibrium(PointChargeField(1.0, 2.0), prof, tol=1e-4)
        assert not report.verdict
        assert len(prof.negative_nodes) > 0
