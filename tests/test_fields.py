"""External field construction, evaluation, and south-cap admissibility."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from capfield import fields
from capfield.fields import (
    PointChargeField,
    QuadraticField,
    TabulatedField,
    ZeroField,
    _monotone_step,
)
from conftest import ShiftedField

PI = math.pi


class TestZeroField:
    def test_vanishes_everywhere(self):
        f = ZeroField()
        for phi in (0.0, 1.0, PI):
            assert f.value_at_x3(math.cos(phi)) == 0.0

    def test_vectorized_values(self):
        f = ZeroField()
        assert np.all(f.value_at_x3(np.linspace(-1, 1, 7)) == 0.0)


class TestPointChargeField:
    def test_pole_values(self):
        # distance from the north pole to a charge at height h is h - 1,
        # and to the south pole h + 1
        f = PointChargeField(q=1.0, h=2.0)
        assert f.value_at_x3(math.cos(0.0)) == pytest.approx(1.0, rel=1e-15)
        assert f.value_at_x3(math.cos(PI)) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_inside_charge_pole_values(self):
        f = PointChargeField(q=1.0, h=0.5)
        assert f.value_at_x3(math.cos(0.0)) == pytest.approx(2.0, rel=1e-15)
        assert f.value_at_x3(math.cos(PI)) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("q,h", [(0.0, 2.0), (-1.0, 2.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive_parameters(self, q, h):
        with pytest.raises(ValueError):
            PointChargeField(q=q, h=h)

    @pytest.mark.parametrize(
        "q,h,bound",
        [(1.0, 1.0000001e100, "at most 1e+100"), (1e-300, 1e300, "at most 1e+100"),
         (1e308, 1.0000001, "q * max(h, 1/h) <= 1e+300"),
         (1e201, 1e100, "q * max(h, 1/h) <= 1e+300"),
         (1.0, 1e-301, "q * max(h, 1/h) <= 1e+300"),
         (1.0, 5e-324, "q * max(h, 1/h) <= 1e+300")],
    )
    def test_refuses_parameters_that_overflow(self, q, h, bound):
        with pytest.raises(ValueError, match=re.escape(bound)):
            PointChargeField(q=q, h=h)

    @pytest.mark.parametrize("q,h", [(1e300, 1.0), (1e200, 1e100), (1.0, 1e-300),
                                     (5e-324, 1e100)])
    def test_keeps_parameters_on_the_bounds(self, q, h):
        assert PointChargeField(q=q, h=h).q == q

    def test_charge_on_sphere_is_singular_at_north_pole(self):
        f = PointChargeField(q=1.0, h=1.0)
        assert f.value_at_x3(1.0) == math.inf
        # finite away from the pole
        assert math.isfinite(f.value_at_x3(math.cos(1e-3)))

    @given(
        q=st.floats(0.1, 10.0),
        h=st.floats(0.1, 10.0),
        phi=st.floats(0.0, PI),
    )
    @settings(max_examples=120, deadline=None)
    def test_inverse_distance_identity(self, q, h, phi):
        # Q(phi) * dist(x, charge) == q for every point on the sphere
        d2 = 1.0 + h * h - 2.0 * h * math.cos(phi)
        if d2 < 1e-20:
            return
        f = PointChargeField(q=q, h=h)
        assert f.value_at_x3(math.cos(phi)) * math.sqrt(d2) == pytest.approx(q, rel=1e-13)


class TestQuadraticField:
    def test_example_values(self):
        f = QuadraticField(a=1.0, b=2.5, c=2.0)
        assert f.value_at_x3(math.cos(0.0)) == pytest.approx(5.5, rel=1e-15)
        assert f.value_at_x3(math.cos(PI)) == pytest.approx(0.5, rel=1e-15)
        assert f.value_at_x3(math.cos(PI / 2)) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize(
        "a,b,c",
        [
            (1.0, 1.9, 2.0),  # 4a^2 >= b^2
            (1.0, 2.5, 1.5),  # b^2 > 4ac
            (-1.0, 2.5, 2.0),
            (1.0, -2.5, 2.0),
            (0.0, 2.5, 2.0),
        ],
    )
    def test_rejects_inadmissible_coefficients(self, a, b, c):
        with pytest.raises(ValueError):
            QuadraticField(a=a, b=b, c=c)

    @pytest.mark.parametrize(
        "a,b,c", [(1.0, math.inf, math.inf), (1.0, 2.5, math.inf), (math.nan, 2.5, 2.0)]
    )
    def test_rejects_non_finite_coefficients(self, a, b, c):
        # 4a^2 < b^2 <= 4ac holds for b = c = inf; finiteness is its own check
        with pytest.raises(ValueError, match="finite"):
            QuadraticField(a=a, b=b, c=c)

    def test_boundary_of_admissible_region_allowed(self):
        # b^2 == 4ac is allowed; the field then vanishes at x3 = -b/2a
        QuadraticField(a=1.0, b=2.5, c=2.5**2 / 4.0)

    def test_nonnegative_on_sphere(self):
        f = QuadraticField(a=1.0, b=2.5, c=2.0)
        x = np.linspace(-1.0, 1.0, 1001)
        assert np.min(f.value_at_x3(x)) >= 0.0


class TestTabulatedField:
    def test_reproduces_samples(self):
        x = np.linspace(-1.0, 1.0, 21)
        y = 2.0 + x
        f = TabulatedField(x, y)
        for xi, yi in zip(x, y):
            assert f.value_at_x3(xi) == pytest.approx(yi, abs=1e-15)

    def test_monotone_samples_give_monotone_interpolant(self):
        x = np.linspace(-1.0, 1.0, 15)
        y = np.exp(x)
        f = TabulatedField(x, y)
        fine = f.value_at_x3(np.linspace(-1.0, 1.0, 2001))
        assert np.all(np.diff(fine) >= -1e-14)

    def test_rejects_non_increasing_abscissae(self):
        with pytest.raises(ValueError):
            TabulatedField(np.array([-1.0, 0.5, 0.5, 1.0]), np.zeros(4))

    def test_rejects_out_of_range_abscissae(self):
        with pytest.raises(ValueError):
            TabulatedField(np.array([-1.5, 0.0, 1.0]), np.zeros(3))

    def test_out_of_range_evaluation_errors(self):
        f = TabulatedField(np.array([-0.5, 0.0, 0.5]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            f.value_at_x3(0.75)
        with pytest.raises(ValueError):
            f.value_at_x3(math.cos(PI))  # x3 = -1 below the table

    def test_slope_is_the_derivative_of_the_pieces(self):
        # one cubic between knots, so one Richardson step on central
        # differences is exact up to rounding
        x = np.linspace(-1.0, 1.0, 9)
        f = TabulatedField(x, 1.0 / np.sqrt(5.0 - 4.0 * x))
        probe = np.linspace(-0.99, 0.99, 97)
        probe = probe[np.min(np.abs(probe[:, None] - x[None, :]), axis=1) > 1e-3]

        def central(eps):
            return (f.value_at_x3(probe + eps) - f.value_at_x3(probe - eps)) / (2.0 * eps)

        extrapolated = (4.0 * central(5e-4) - central(1e-3)) / 3.0
        assert np.max(np.abs(f.slope_at_x3(probe) - extrapolated)) < 1e-9
        # continuous across the knots, and checked against the range
        inner = x[1:-1]
        assert np.allclose(f.slope_at_x3(inner - 1e-12), f.slope_at_x3(inner + 1e-12),
                           rtol=0, atol=1e-9)
        with pytest.raises(ValueError):
            f.slope_at_x3(1.5)

    def test_knots_are_the_abscissae_and_read_only(self):
        x = np.linspace(-1.0, 0.5, 7)
        f = TabulatedField(x, 2.0 + x)
        x[0] = -0.9  # the field keeps its own copy
        assert f.knots[0] == -1.0
        assert f.knots.size == 7
        with pytest.raises(ValueError):
            f.knots[0] = 0.0

    def test_negative_samples_warn_but_construct(self):
        with pytest.warns(UserWarning):
            TabulatedField(np.array([-1.0, 0.0, 1.0]), np.array([1.0, -0.25, 1.0]))

    def test_csv_round_trip(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 9)
        y = 1.0 / np.sqrt(5.0 - 4.0 * x)
        path = tmp_path / "field.csv"
        with open(path, "w", newline="\n") as fh:
            fh.write("x3,Q\n")
            for xi, yi in zip(x, y):
                fh.write(f"{float(xi)!r},{float(yi)!r}\n")
        f = TabulatedField.from_csv(path)
        for xi, yi in zip(x, y):
            assert f.value_at_x3(xi) == pytest.approx(yi, abs=1e-15)

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "bare.csv"
        with open(path, "w", newline="\n") as fh:
            fh.write("-1.0,3.0\n0.0,2.0\n1.0,3.5\n")
        f = TabulatedField.from_csv(path)
        assert f.value_at_x3(0.0) == pytest.approx(2.0)

    def test_csv_skips_blank_lines_and_extra_columns(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("x3,Q,note\n\n-1.0,3.0,a\n\n0.0,2.0,b\n1.0,3.5,c\n\n")
        f = TabulatedField.from_csv(path)
        assert f.knots.tolist() == [-1.0, 0.0, 1.0]
        assert f.value_at_x3(1.0) == 3.5

    @pytest.mark.parametrize("bad", ["0.5,abc", "0.5", "0.5,", "x3,Q", "   "])
    def test_csv_malformed_row_named(self, tmp_path, bad):
        # rows count every line, blank ones and the header included
        path = tmp_path / "bad.csv"
        path.write_text(f"x3,Q\n-1.0,3.0\n\n0.0,2.0\n{bad}\n1.0,3.5\n")
        with pytest.raises(ValueError, match=f"^malformed CSV row 5: {bad!r}$"):
            TabulatedField.from_csv(path)

    def test_csv_without_samples(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x3,Q\n\n")
        with pytest.raises(ValueError, match="at least two samples"):
            TabulatedField.from_csv(path)

    @pytest.mark.parametrize(
        "values", [[0.0, 1e308, 1.7e308], [-1e308, 1e308, 1e308], [0.0, 1e-310, 1.0]],
        ids=["steep", "difference-overflows", "reciprocal-overflows"],
    )
    def test_overflowing_interpolant_refused(self, values):
        # refused before the PCHIP is built, so no arithmetic warning
        with pytest.raises(ValueError, match="interpolant would overflow: Q = "):
            TabulatedField(np.array([-1.0, 0.0, 1.0]), np.array(values))

    def test_large_but_representable_table_accepted(self):
        x = np.linspace(-1.0, 1.0, 1601)
        f = TabulatedField(x, 1e290 * (x + 2.0))
        assert f.value_at_x3(0.0) == pytest.approx(2e290)

    def test_constant_shift_commutes_with_interpolation(self):
        # sample values chosen exactly representable so the shifted table
        # has bit-identical divided differences; only the final addition
        # order can differ, leaving at most one ulp
        x = np.linspace(-1.0, 1.0, 17)
        y = np.round(np.exp(x) * 16.0) / 16.0
        f0 = TabulatedField(x, y)
        f1 = TabulatedField(x, y + 1.0)
        probe = np.linspace(-1.0, 1.0, 301)
        diff = f1.value_at_x3(probe) - (f0.value_at_x3(probe) + 1.0)
        assert np.max(np.abs(diff)) < 1e-15


# tables of 1601, 3 and 2 samples: the benchmark's size, the smallest with
# an interior slope, and a line
_X1601 = np.linspace(-1.0, 1.0, 1601)
REFEREE_SAMPLES = {
    "1601": (_X1601, PointChargeField(1.0, 2.0).value_at_x3(_X1601)),
    "3": (np.array([-1.0, 0.1, 1.0]), np.array([0.5, 1.2, 3.0])),
    "2": (np.array([-0.5, 0.75]), np.array([1.0, 2.5])),
}


def _probes(knots):
    """Named inputs in the table's range: ascending, descending with ties,
    unsorted, scalar and 2-d, the knots themselves included."""
    rng = np.random.default_rng(1601)
    inside = np.sort(np.concatenate((knots, rng.uniform(knots[0], knots[-1], 997))))
    descending = np.repeat(inside[::-1], 2)
    return {
        "ascending": inside,
        "descending": descending,
        "unsorted": rng.permutation(inside),
        "scalar": inside[inside.size // 3],
        "2-d": rng.permutation(inside)[: 2 * (inside.size // 2)].reshape(2, -1),
    }


class TestTablePchipReferee:
    """scipy's PchipInterpolator and its derivative referee the table,
    bit for bit."""

    @pytest.mark.parametrize("x3, q", REFEREE_SAMPLES.values(), ids=REFEREE_SAMPLES.keys())
    def test_values_and_slopes_match_scipy_bitwise(self, x3, q):
        f = TabulatedField(x3, q)
        ref = PchipInterpolator(x3, q, extrapolate=False)
        slope = ref.derivative()
        # the slope's rows d, 2c, 3e, in scipy's order of powers
        assert np.array_equal(f._slopes[::-1], slope.c)
        for name, x in _probes(f.knots).items():
            value, rate = f.value_at_x3(x), f.slope_at_x3(x)
            assert np.shape(value) == np.shape(x) == np.shape(rate), name
            assert np.array_equal(value, ref(x)), name
            assert np.array_equal(rate, slope(x)), name

    @pytest.mark.parametrize("x3, q", REFEREE_SAMPLES.values(), ids=REFEREE_SAMPLES.keys())
    def test_sorted_locate_matches_binary_search(self, x3, q, monkeypatch):
        f = TabulatedField(x3, q)
        probes = _probes(f.knots)
        for name, x in probes.items():
            assert _monotone_step(np.asarray(x)) == {"ascending": 1, "descending": -1}.get(name, 0)
        located = {name: (f.value_at_x3(x), f.slope_at_x3(x)) for name, x in probes.items()}
        # every input by binary search alone
        monkeypatch.setattr(fields, "_monotone_step", lambda x: 0)
        for name, x in probes.items():
            value, rate = located[name]
            assert np.array_equal(f.value_at_x3(x), value), name
            assert np.array_equal(f.slope_at_x3(x), rate), name

    def test_range_is_checked_on_every_path(self):
        f = TabulatedField(np.array([-0.5, 0.0, 0.5]), np.array([1.0, 1.5, 2.5]))
        message = r"^x3 outside tabulated range \[-0\.5, 0\.5\]$"
        for x in (0.75, np.array([0.0, 0.6]), np.array([0.6, 0.0]),
                  np.array([0.0, -0.6, 0.1]), np.array([[0.0], [0.51]])):
            with pytest.raises(ValueError, match=message):
                f.value_at_x3(x)
            with pytest.raises(ValueError, match=message):
                f.slope_at_x3(x)
        assert f.value_at_x3(np.empty(0)).shape == (0,)
        assert np.isnan(f.value_at_x3(np.array([0.0, np.nan, 0.1]))[1])


SLOPE_FIELDS = {
    "zero": lambda: ZeroField(),
    "point-charge-outside": lambda: PointChargeField(q=1.3, h=2.0),
    "point-charge-inside": lambda: PointChargeField(q=0.7, h=0.5),
    "point-charge-near-sphere": lambda: PointChargeField(q=1.0, h=1.2),
    "quadratic": lambda: QuadraticField(1.0, 2.5, 2.0),
    "table": lambda: TabulatedField(np.linspace(-1.0, 1.0, 9),
                                    1.0 / np.sqrt(5.0 - 4.0 * np.linspace(-1.0, 1.0, 9))),
    "shifted": lambda: ShiftedField(PointChargeField(q=1.0, h=2.0), 0.75),
}


@pytest.mark.parametrize("kind", ["zero", "point-charge-outside", "quadratic", "table"])
def test_scalar_input_gives_a_float(kind):
    # every leaf field returns a float for a scalar and an array for an array
    f = SLOPE_FIELDS[kind]()
    for evaluate in (f.value_at_x3, f.slope_at_x3):
        for x in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(evaluate(x)) is float
        out = evaluate(np.array([-0.5, 0.3]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)


class TestSlopes:
    @pytest.mark.parametrize("make", SLOPE_FIELDS.values(), ids=SLOPE_FIELDS.keys())
    def test_slope_matches_central_difference(self, make):
        # off the table's knots, one Richardson step on central differences
        f = make()
        probe = np.array([-0.97, -0.6, -0.1, 0.3, 0.66, 0.9])

        def central(eps):
            return (f.value_at_x3(probe + eps) - f.value_at_x3(probe - eps)) / (2.0 * eps)

        extrapolated = (4.0 * central(5e-4) - central(1e-3)) / 3.0
        slope = f.slope_at_x3(probe)
        assert slope.shape == probe.shape
        assert np.allclose(slope, extrapolated, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("make", SLOPE_FIELDS.values(), ids=SLOPE_FIELDS.keys())
    def test_scalar_slope_matches_array(self, make):
        f = make()
        assert f.slope_at_x3(0.25) == pytest.approx(float(f.slope_at_x3(np.array([0.25]))[0]))

    def test_point_charge_slope_closed_form(self):
        # q*h / d^3 with d^2 = 1 + h^2 - 2*h*x3; unbounded at the north
        # pole for a charge on the sphere
        assert PointChargeField(q=1.0, h=2.0).slope_at_x3(-1.0) == pytest.approx(
            2.0 / 27.0, rel=1e-15)
        assert PointChargeField(q=1.0, h=1.0).slope_at_x3(1.0) == math.inf


class TestShiftedField:
    def test_shift_is_exact_everywhere(self):
        base = PointChargeField(q=1.0, h=2.0)
        f = ShiftedField(base, 0.75)
        for phi in (0.0, 1.1, PI):
            assert f.value_at_x3(math.cos(phi)) == base.value_at_x3(math.cos(phi)) + 0.75


def _sampled_table(field, samples):
    x = np.linspace(-1.0, 1.0, samples)
    return TabulatedField(x, field.value_at_x3(x))


class TestRequireSouthCap:
    def test_decreasing_table_refused_with_witness(self):
        # x3^2 - 2.5 x3 + 2 is decreasing on [-1, 1]: b < 0 breaks monotonicity
        x = np.linspace(-1.0, 1.0, 41)
        f = TabulatedField(x, x**2 - 2.5 * x + 2.0)
        with pytest.raises(ValueError, match="not monotone") as err:
            f.require_south_cap()
        # the first pair of samples, named as plain floats
        assert "Q = 5.5, 5.2775 at x3 = -1.0, -0.95" in str(err.value)

    def test_concave_table_refused(self):
        x = np.linspace(-1.0, 1.0, 81)
        with pytest.raises(ValueError, match="not (monotone|convex)"):
            TabulatedField(x, 2.0 - x**2 + x).require_south_cap()
        # increasing on [-1, 1], so only convexity fails
        with pytest.raises(ValueError, match="not convex") as err:
            TabulatedField(x, 4.0 - (x - 1.0) ** 2).require_south_cap()
        assert "np.float64" not in str(err.value)

    def test_negative_table_warns_once_in_the_constructor(self):
        x = np.array([-1.0, 0.0, 1.0])
        with pytest.warns(UserWarning) as record:
            f = TabulatedField(x, np.array([-0.5, 0.25, 1.0]))
        assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f.require_south_cap()  # linear, so admissible

    @pytest.mark.parametrize("samples", [3, 201, 1601])
    def test_sampled_closed_forms_pass(self, samples):
        for field in (PointChargeField(1.0, 2.0), PointChargeField(0.5, 0.5),
                      QuadraticField(1.0, 2.5, 2.0), ZeroField()):
            _sampled_table(field, samples).require_south_cap()

    def test_coarse_table_of_a_peaked_charge_is_not_convex(self):
        # the samples of a convex field, but between the last knots the
        # PCHIP bends the other way, which the interpolant's own second
        # derivative confirms
        charge = PointChargeField(4.733335691893191, 1.052476780733111)
        f = _sampled_table(charge, 201)
        with pytest.raises(ValueError, match=r"not convex .* on the piece \[0\.98, 0\.99\]"):
            f.require_south_cap()
        x = np.linspace(-1.0, 1.0, 201)
        referee = PchipInterpolator(x, charge.value_at_x3(x))
        curvature = referee.derivative(2)(np.array([0.98, 0.99]))
        assert np.min(curvature) < -1e3


@st.composite
def closed_form_fields(draw):
    """Any field the closed-form constructors accept: charges over
    q in [1e-12, 1e12] and h in [1e-4, 1e4], on the sphere and within
    1e-12 to 1e-1 of it, and quadratics over 1e-150 to 1e150."""
    kind = draw(st.sampled_from(["charge", "near-sphere", "quadratic", "zero"]))
    if kind == "zero":
        return ZeroField()
    if kind == "quadratic":
        a = 10.0 ** draw(st.floats(-150.0, 150.0))
        b = 2.0 * a * (1.0 + 10.0 ** draw(st.floats(-12.0, 1.0)))
        c = b * b / (4.0 * a) * (1.0 + draw(st.floats(0.0, 10.0)))
        try:
            return QuadraticField(a, b, c)
        except ValueError:
            assume(False)
    q = 10.0 ** draw(st.floats(-12.0, 12.0))
    if kind == "charge":
        return PointChargeField(q, 10.0 ** draw(st.floats(-4.0, 4.0)))
    offset = draw(st.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** draw(st.floats(-12.0, -1.0))
    return PointChargeField(q, 1.0 + offset)


def _assert_south_cap(field, n):
    """Q >= 0 with a nonnegative, nondecreasing slope at n points of
    [-1, 1], poles included; a field that stays finite there also gives
    a table that require_south_cap accepts."""
    x = np.linspace(-1.0, 1.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = field.value_at_x3(x)
        slope = field.slope_at_x3(x)
    assert not np.any(np.isnan(q)) and not np.any(np.isnan(slope))
    assert np.all(q >= 0.0)
    assert np.all(slope >= 0.0)
    assert np.all(slope[1:] >= slope[:-1])
    if np.all(np.isfinite(q)):
        TabulatedField(x, q).require_south_cap()


class TestValidateSouthCapHypotheses:
    def test_point_charge_passes(self):
        _assert_south_cap(PointChargeField(q=1.0, h=2.0), n=400)

    def test_quadratic_passes_at_several_resolutions(self):
        f = QuadraticField(a=1.0, b=2.5, c=2.0)
        for n in (50, 200, 1000):
            _assert_south_cap(f, n=n)

    def test_zero_field_passes(self):
        _assert_south_cap(ZeroField(), n=100)

    def test_charge_on_sphere_handles_infinity(self):
        # h = 1 makes Q blow up at x3 = 1: +inf there, never nan
        f = PointChargeField(q=1.0, h=1.0)
        _assert_south_cap(f, n=301)
        assert f.value_at_x3(1.0) == math.inf and f.slope_at_x3(1.0) == math.inf


class TestClosedFormsAdmissible:
    @given(field=closed_form_fields())
    @settings(max_examples=300, deadline=None)
    def test_slope_nonnegative_and_nondecreasing(self, field):
        # the constructors admit only nondecreasing convex fields, so the
        # CLI checks none of them
        slope = field.slope_at_x3(np.linspace(-1.0, 1.0, 201, endpoint=False))
        assert np.all(slope >= 0.0)
        assert np.all(np.diff(slope) >= 0.0)
