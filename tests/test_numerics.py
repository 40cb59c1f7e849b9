"""The shared numerical helpers: Brent's bracketed root finder, the
Gauss-Legendre rules, the adaptive Chebyshev tables and the graded
Chebyshev series of the density profiles."""

import math
import random

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from scipy.fft import dct
from scipy.integrate import quad
from scipy.optimize import brentq

from capfield import support_finder
from capfield._numerics import (
    GradedSeries,
    NonconvergenceError,
    _chebyshev_coefficients,
    brent_root,
    chebyshev_table,
    gauss_legendre,
)
from capfield.fields import PointChargeField, QuadraticField


def _support_brackets(monkeypatch, count: int = 64):
    """(f, a, b, xtol, rtol) of every root solve made by the support finder.

    The residuals are its own: the rim equation of a point charge inside,
    outside and on the sphere and of a quadratic field, and the
    critical-height cubic, for parameters drawn from a fixed seed.
    """
    calls = []

    def recording(f, a, b, xtol, rtol):
        calls.append((f, a, b, xtol, rtol))
        return brent_root(f, a, b, xtol, rtol)

    monkeypatch.setattr(support_finder, "brent_root", recording)
    rng = random.Random(20260)
    for _ in range(count):
        q = rng.uniform(0.3, 3.0)
        support_finder.solve_support(PointChargeField(q, rng.uniform(0.05, 0.99)))
        support_finder.solve_support(PointChargeField(q, rng.uniform(1.01, 2.0)))
        support_finder.solve_support(PointChargeField(q, 1.0))
        a = rng.uniform(0.5, 2.0)
        b = a * rng.uniform(2.05, 3.0)
        support_finder.solve_support(
            QuadraticField(a, b, b * b / (4.0 * a) + rng.uniform(0.0, 1.0)))
        support_finder.gonchar_heights(q)
    return calls


def test_agrees_with_scipy_brentq(monkeypatch):
    brackets = _support_brackets(monkeypatch)
    assert len(brackets) >= 200
    same_count = 0
    for f, a, b, xtol, rtol in brackets:
        root, iterations = brent_root(f, a, b, xtol, rtol)
        reference, info = brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True)
        assert abs(root - reference) <= xtol + 4.0 * rtol * abs(reference)
        same_count += iterations == info.iterations
    assert same_count >= 0.95 * len(brackets)


def test_same_sign_bracket_is_refused():
    with pytest.raises(ValueError, match="do not bracket"):
        brent_root(math.cos, 0.0, 1.0, 1e-12, 1e-15)
    with pytest.raises(ValueError, match="do not bracket"):
        brent_root(lambda x: math.nan, 0.0, 1.0, 1e-12, 1e-15)


@pytest.mark.parametrize("end", [0.0, 2.0])
def test_exact_zero_at_an_end(end):
    root, iterations = brent_root(lambda x: x - end, 0.0, 2.0, 1e-12, 1e-15)
    assert (root, iterations) == (end, 0)


def test_deterministic():
    def f(x):
        return math.exp(x) - 3.0 * x * x

    assert brent_root(f, 0.0, 1.0, 1e-14, 8.9e-16) == brent_root(f, 0.0, 1.0, 1e-14, 8.9e-16)


def test_nonconvergence_carries_the_last_iterate():
    with pytest.raises(NonconvergenceError) as info:
        brent_root(lambda x: x - 0.3, 0.0, 1.0, 1e-14, 8.9e-16, maxiter=1)
    assert 0.0 < info.value.estimate < 1.0
    assert 0.0 < info.value.error_bound <= 1.0


def test_table_stops_at_the_stated_noise():
    # |x| has Chebyshev coefficients falling like 1/n^2: no plateau, and a
    # relative tail near 1e-6 at the cap degree
    with pytest.raises(NonconvergenceError, match="kink unresolved at degree 1024"):
        chebyshev_table(np.abs, "kink")
    coeffs, tail = chebyshev_table(np.abs, "kink", noise=(1e-4, 256))
    assert coeffs.size - 1 == 256
    assert tail <= 1e-4
    # the stated degree holds even where the tail is already below the noise
    coeffs, _ = chebyshev_table(np.abs, "kink", noise=(1e-2, 256))
    assert coeffs.size - 1 == 256


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, 1024])
def test_chebyshev_coefficients_match_scipy_dct(n):
    # every table size from the start degree to the cap; numpy 2 and scipy
    # share one pocketfft, so the DCT-I of the even extension is bitwise
    # scipy's; an older numpy's own pocketfft may differ in the last bits
    rng = np.random.default_rng(n)
    exact = int(np.__version__.split(".")[0]) >= 2
    for _ in range(20):
        samples = rng.standard_normal(n + 1)
        expected = dct(samples, type=1) / n
        expected[0] *= 0.5
        expected[-1] *= 0.5
        coeffs = _chebyshev_coefficients(samples)
        if exact:
            assert np.array_equal(coeffs, expected)
        else:
            ulp = np.spacing(np.max(np.abs(expected)))
            assert np.max(np.abs(coeffs - expected)) <= 8.0 * ulp


def _legendre_rule_40_digits(n: int) -> tuple[list, list]:
    """The n-point Gauss-Legendre rule to 40 digits: Newton steps on the
    three-term recurrence in mpmath, from numpy's nodes."""
    nodes, weights = [], []
    with mp.workdps(40):
        for start in np.polynomial.legendre.leggauss(n)[0]:
            x = mp.mpf(float(start))
            for _ in range(5):
                previous, p = mp.mpf(1), x
                for k in range(2, n + 1):
                    previous, p = p, ((2 * k - 1) * x * p - (k - 1) * previous) / k
                slope = n * (x * p - previous) / (x * x - 1)
                x -= p / slope
            nodes.append(x)
            weights.append(2 / ((1 - x) * (1 + x) * slope * slope))
    return nodes, weights


@pytest.mark.parametrize("n", [8, 12, 16, 24, 96])
def test_gauss_legendre_against_mpmath(n):
    # every rule size the package uses; scipy's weights are 4,985 ulps off
    # at n = 32 and 8,010 at n = 96
    x, w = gauss_legendre(n)
    nodes, weights = _legendre_rule_40_digits(n)
    if np.finfo(np.longdouble).eps < 1e-18:
        def ulps(computed, exact):
            return max(float(abs(mp.mpf(float(a)) - b)) / np.spacing(abs(float(b)))
                       for a, b in zip(computed, exact))

        assert ulps(x, nodes) <= 1.0
        assert ulps(w, weights) <= 4.0
    else:
        # long double is double: about 1e-13 at n = 96, leggauss 1.5e-12
        def relative(computed, exact):
            return max(float(abs(mp.mpf(float(a)) - b) / abs(b)) for a, b in zip(computed, exact))

        assert relative(x, nodes) <= 2e-13
        assert relative(w, weights) <= 2e-13
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert gauss_legendre(n)[0] is x and not (x.flags.writeable or w.flags.writeable)


# a graded series as the profiles hold it: scale, stretch and the start
# of the pipeline's table for a rim near 0.7, whose smax is 1.3
GRADED = (1e-3, 0.5, math.asinh((1.3 - 1e-3) / 0.5))


@pytest.mark.parametrize("terms", [2, 3, 17, 33, 65, 200])
def test_graded_series_is_chebval_in_the_graded_variable(terms):
    # the in-place Clenshaw recurrence keeps numpy's bits, on points of any
    # shape, at and above a start of 0 as in the Nystrom oracle
    _, scale, stretch = GRADED
    coeffs = np.random.default_rng(terms).standard_normal(terms)
    s = np.concatenate(([0.0, 1.3], np.random.default_rng(1).uniform(0.0, 1.3, 998)))
    x = (2.0 / stretch) * np.arcsinh(s / scale) - 1.0
    series = GradedSeries(coeffs, 0.0, scale, stretch)
    assert np.array_equal(series(s), chebval(x, coeffs))
    assert np.array_equal(series(s.reshape(10, -1)), chebval(x, coeffs).reshape(10, -1))


def test_graded_series_below_its_start_is_the_cubic_through_it():
    # continuous at the start, and the cubic through the series at
    # start * (1, 2, 3, 4) below it, however far the series itself would
    # run off there
    start, scale, stretch = GRADED
    coeffs = 0.5 ** np.arange(64) * np.random.default_rng(2).standard_normal(64)
    series = GradedSeries(coeffs, start, scale, stretch)
    nodes = start * np.arange(1.0, 5.0)
    cubic = np.polynomial.Polynomial.fit(nodes, series(nodes), 3)
    below = np.linspace(0.0, start, 101)[:-1]
    scale_y = np.max(np.abs(series(np.linspace(0.0, 1.3, 101))))
    np.testing.assert_allclose(series(below), cubic(below), rtol=0, atol=1e-13 * scale_y)
    assert series(np.nextafter(start, 0.0)) == pytest.approx(series(start), abs=1e-13 * scale_y)


@pytest.mark.parametrize("start", [0.0, GRADED[0]])
def test_graded_series_integral_against_quad(start):
    # Clenshaw-Curtis in u on the series times ds/du, and the cubic below
    # a positive start, against adaptive quadrature over [0, smax]
    _, scale, stretch = GRADED
    coeffs = 0.7 ** np.arange(40) * np.random.default_rng(3).standard_normal(40)
    series = GradedSeries(coeffs, start, scale, stretch)
    smax = start + scale * math.sinh(stretch)
    expected, err = quad(lambda s: float(series(s)), 0.0, smax, points=[start] if start else None,
                         epsabs=0.0, epsrel=1e-13, limit=200)
    assert err <= 1e-12 * abs(expected)
    assert series.integral() == pytest.approx(expected, rel=1e-12, abs=0)
