"""Reference values for the benchmark, computed with mpmath at 30 digits.

Nothing here imports capfield: the cap functionals and densities are
written out from the paper's closed forms, and the support angle of each
field is found by minimizing its cap functional (a root of the
alpha-derivative), not from the package's rim equations.  A field is a
plain tuple of its kind and parameters, as floats exactly as they are
passed to the command line.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30
PI = mp.pi

# depth into the cap at which `rim_coefficient` samples the density
RIM_DEPTH = mp.mpf("1e-24")


def field_value(field, x3):
    """Qhat(x3) of an analytic field, in mpmath."""
    kind, params = field
    x = mp.mpf(x3)
    if kind == "point-charge":
        q, h = (mp.mpf(v) for v in params)
        return q / mp.sqrt(1 + h * h - 2 * h * x)
    if kind == "north-pole":
        (q,) = (mp.mpf(v) for v in params)
        return q / mp.sqrt(2 - 2 * x)
    if kind == "quadratic":
        a, b, c = (mp.mpf(v) for v in params)
        return (a * x + b) * x + c
    if kind == "square":
        (k,) = (mp.mpf(v) for v in params)
        return k * x * x
    raise ValueError(f"no reference for field kind {kind!r}")


def _surface_factor(alpha):
    return PI / (PI - alpha + mp.sin(alpha))


def cap_functional(field, alpha):
    """F-functional of the south cap with rim angle alpha."""
    kind, params = field
    alpha = mp.mpf(alpha)
    if kind == "point-charge":
        q, h = (mp.mpf(v) for v in params)
        t = mp.atan((1 / mp.tan(alpha / 2)) * (h - 1) / (h + 1))
        inner = 1 + q * (h + 1) / (2 * h) * (1 - alpha / PI) - q * (h - 1) / (PI * h) * t
        return _surface_factor(alpha) * inner
    if kind == "north-pole":
        (q,) = (mp.mpf(v) for v in params)
        return _surface_factor(alpha) * (1 + q * (1 - alpha / PI))
    if kind == "quadratic":
        a, b, c = (mp.mpf(v) for v in params)
        ca = mp.cos(alpha)
        bracket = (
            mp.tan(alpha / 2)
            * (
                32 * a * ca**3
                + 4 * (2 * a + 9 * b) * ca**2
                + 4 * (9 * c - 5 * a) * ca
                + 4 * a
                - 36 * b
                + 36 * c
            )
            + 12 * (a + 3 * c) * (PI - alpha)
            + 36 * PI
        )
        return bracket / (36 * (PI - alpha + mp.sin(alpha)))
    raise ValueError(f"no cap functional for field kind {kind!r}")


def support(field):
    """(alpha0, F_Q): the minimizing rim angle and the Robin constant.

    A coarse scan brackets the minimum of the cap functional; the root of
    its derivative inside that bracket is then refined at full precision.
    """
    f = lambda a: cap_functional(field, a)  # noqa: E731
    n = 160
    grid = [PI * (k + 0.5) / n for k in range(n)]
    with mp.workdps(15):
        values = [f(a) for a in grid]
    k = min(range(n), key=values.__getitem__)
    if k in (0, n - 1):
        raise ValueError(f"{field!r}: the cap functional has no interior minimum")
    lo, hi = grid[k - 1], grid[k + 1]
    alpha0 = mp.findroot(lambda a: mp.diff(f, a), (lo, hi), solver="anderson")
    if not lo <= alpha0 <= hi:
        raise ValueError(f"{field!r}: the support refinement left its bracket")
    return alpha0, f(alpha0)


def density(field, alpha, fq, phi):
    """Equilibrium surface density at polar angle phi inside the south cap.

    alpha is the cap's rim angle and fq its Robin constant, both from
    `support`.
    """
    alpha, phi = mp.mpf(alpha), mp.mpf(phi)
    depth = 2 * mp.sin((phi + alpha) / 2) * mp.sin((phi - alpha) / 2)
    return _density_at_depth(field, alpha, fq, depth)


def _density_at_depth(field, alpha, fq, depth):
    """The density at depth = cos(alpha) - cos(phi) into the cap.

    Robin-weighted edge factor plus the field-driven term of each closed
    form.
    """
    kind, params = field
    r1 = 1 - mp.cos(alpha)
    cp = mp.cos(alpha) - depth
    r = r1 / depth
    base = fq / (4 * PI) * (1 + (2 / PI) * (mp.sqrt(r) - mp.atan(mp.sqrt(r))))
    if kind == "point-charge":
        q, h = (mp.mpf(v) for v in params)
        d2 = 1 + h * h - 2 * h * cp
        term1 = mp.sqrt(r1 / depth) / d2
        term2 = (h - 1) / d2**1.5 * mp.atan((h - 1) / mp.sqrt(d2) * mp.sqrt(depth / r1))
        return base - q * (h + 1) / (2 * PI**2) * (term1 + term2)
    if kind == "north-pole":
        (q,) = (mp.mpf(v) for v in params)
        return base - q / (2 * PI**2) * mp.sqrt(r1 / depth) / (1 - cp)
    if kind == "quadratic":
        a, b, c = (mp.mpf(v) for v in params)
        ca = mp.cos(alpha)
        t1 = mp.sqrt(r1) * mp.sqrt(depth) * (20 * a * ca + 60 * a * cp + 10 * a + 27 * b)
        t2 = mp.sqrt(r1 / depth) * (
            8 * a * ca * ca
            + 10 * a * ca * cp
            + (4 * a + 9 * b) * ca
            + (20 * a + 27 * b) * cp
            + 15 * a * (2 * cp * cp - 1)
            + 9 * a
            + 18 * b
            + 18 * c
        )
        t3 = 6 * mp.atan(mp.sqrt(depth / r1)) * (15 * a * cp * cp + 9 * b * cp - 4 * a + 3 * c)
        return base + (t1 - t2 - t3) / (36 * PI**2)
    raise ValueError(f"no closed-form density for field kind {kind!r}")


def mass(field, alpha, fq):
    """Total mass of `density` over the cap, integrated in s^2 = depth."""
    alpha = mp.mpf(alpha)
    smax = mp.sqrt(1 + mp.cos(alpha))

    def integrand(s):
        return _density_at_depth(field, alpha, fq, s * s) * s

    return 4 * PI * mp.quad(integrand, [0, smax / 2, smax])


def rim_coefficient(field, alpha, fq):
    """sqrt(depth) * f just inside the rim: the inverse-square-root term.

    It vanishes at the true support angle and nowhere else, which is what
    singles out alpha0 among all caps.
    """
    return mp.sqrt(RIM_DEPTH) * _density_at_depth(field, mp.mpf(alpha), fq, RIM_DEPTH)
