"""Closed-form side of the rank limit.

For average degree ``d``, with ``phi(d, a) = exp(d*(a-1))`` the Poisson(d)
probability generating function:

* ``R(d, a) = 2 - phi(d, 1 - phi(d, a)) - (1 + d*(1-a)) * phi(d, a)`` is the
  rank functional; its minimum over ``[0, 1]`` is the limiting normalized
  rank of the sparse symmetric model.
* ``G(d, a) = a + phi(d, 1 - phi(d, a)) - 1`` vanishes exactly at the
  stationary points of ``R``:  ``R' = d^2 * phi(d, a) * G(d, a)``.
* ``Xi(d, a) = a + phi(d, a) - 1`` is strictly increasing with a unique
  zero ``alpha_zero``, always also a zero of ``G``.
* ``h(t, a) = a + 1 - phi(t, a)`` is the expected one-step rank increase;
  its integral over ``t in [0, d]`` along the largest zero of ``G`` equals
  ``d * R(d, alpha_star_hi(d))``.

For ``d <= e`` the function ``G(d, .)`` is strictly increasing with the
single zero ``alpha_zero``; for ``d > e`` it has exactly three zeroes
``alpha_star_lo < alpha_zero < alpha_star_hi``, bracketed here by the two
zeroes of ``G'`` (``G'`` is strictly decreasing then increasing with
interior minimum ``1 - d/e`` at ``1 - ln(d)/d``, and positive at both
endpoints).  This bracketing stays well conditioned arbitrarily close to
the triple-root degeneracy at ``d = e``; inside ``|d - e| <= 1e-6`` the
three zeroes are returned as three copies of the ``Xi`` zero.

The leaf-removal constants are the smallest root ``gamma_lo`` of
``x = d*exp(-d*exp(-x))`` and ``gamma_hi = d*exp(-gamma_lo)``; they are
computed independently of the alpha side (same derivative-bracketing
applied to that equation), and satisfy ``gamma_lo = d*(1 - alpha_star_hi)``
and ``gamma_hi = d*(1 - alpha_star_lo)``.

All computation is double precision; the acceptance tolerances (1e-6 to
1e-9) sit far above rounding noise for these well-scaled functions.  Roots
come from :func:`brentq`, a transcription of scipy's, and the integral
identity from a Gauss-Legendre rule on numpy's nodes, so this module never
loads scipy; the tests hold both to scipy as the oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

E = math.e

# Within this distance of d = e the triple root is resolved via Xi.
DEGENERATE_WINDOW = 1e-6

_BRENT_XTOL = 1e-15
# scipy's default (and least) brentq relative tolerance, 4 * np.finfo(float).eps
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100
_QUAD_EPSABS = 1e-8
_GL_POINTS = 20  # exact on polynomials of degree <= 39 per panel
_GL_MAX_PANELS = 256
# entries kept by each root cache: one verify analytic suite fills 242, and
# every quadrature node of the integral identity adds one, so a long sweep
# would otherwise grow them without bound (73,605 each over 1,205 degrees)
_ROOT_CACHE_SIZE = 4096


def brentq(f, a: float, b: float) -> float:
    """A root of ``f`` in ``[a, b]`` by Brent's method (Brent, "Algorithms
    for Minimization Without Derivatives", 1973, ch. 4).

    A line-by-line transcription of scipy's ``brentq.c`` at this module's
    tolerances (``xtol=_BRENT_XTOL``, scipy's default ``rtol`` and
    ``maxiter``): the same double operations in the same order, so it
    returns the bits that ``scipy.optimize.brentq`` returns (the tests hold
    it to that oracle).  It raises scipy's errors: ``ValueError`` for a NaN
    value of ``f`` or ``f(a)`` and ``f(b)`` of one sign, ``RuntimeError``
    when ``_BRENT_MAXITER`` steps do not converge.  An end where ``f`` is 0
    is returned as the root.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    def negative(v: float) -> bool:  # C's signbit
        return math.copysign(1.0, v) < 0.0

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C divides to inf or NaN: bisect
                stry = math.inf
            bound = 3 * abs(sbis) - delta
            if abs(spre) < bound:  # C's MIN(fabs(spre), bound)
                bound = abs(spre)
            if 2 * abs(stry) < bound:  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def phi(d: float, alpha: float) -> float:
    """Poisson(d) probability generating function, exp(d*(alpha-1))."""
    return math.exp(d * (alpha - 1.0))


def R(d: float, alpha: float) -> float:
    """Rank functional whose minimum over [0,1] is the limiting rank/n."""
    return 2.0 - phi(d, 1.0 - phi(d, alpha)) - (1.0 + d * (1.0 - alpha)) * phi(d, alpha)


def G(d: float, alpha: float) -> float:
    """Stationarity function of R: zero exactly where R'(alpha) = 0."""
    return alpha + phi(d, 1.0 - phi(d, alpha)) - 1.0


def Xi(d: float, alpha: float) -> float:
    """Strictly increasing companion; its unique zero is alpha_zero."""
    return alpha + phi(d, alpha) - 1.0


def h(t: float, alpha: float) -> float:
    """Expected one-step rank increase, alpha + 1 - phi(t, alpha)."""
    return alpha + 1.0 - phi(t, alpha)


def G_prime(d: float, alpha: float) -> float:
    return 1.0 - d * d * phi(d, alpha) * phi(d, 1.0 - phi(d, alpha))


@dataclass(frozen=True)
class AnalyticPoint:
    """All limit quantities at one average degree ``d``."""

    d: float
    alpha_star_lo: float
    alpha_zero: float
    alpha_star_hi: float
    min_R: float
    gamma_lo: float
    gamma_hi: float


def _validate_d(d: float) -> float:
    d = float(d)
    if not math.isfinite(d) or d < 0.0:
        raise ValueError(f"average degree must be a finite nonnegative real, got {d!r}")
    return d


@lru_cache(maxsize=_ROOT_CACHE_SIZE)
def _alpha_roots(d: float) -> tuple[float, float, float]:
    """(alpha_star_lo, alpha_zero, alpha_star_hi), ordered."""
    if d == 0.0:
        return (0.0, 0.0, 0.0)
    a0 = brentq(lambda a: Xi(d, a), 0.0, 1.0)
    if d <= E + DEGENERATE_WINDOW:
        # G is strictly increasing up to d = e (and numerically degenerate
        # just beyond): single zero, shared with Xi.
        return (a0, a0, a0)
    # three distinct zeroes, bracketed by the two zeroes of G'
    a_mid = 1.0 - math.log(d) / d
    g1 = brentq(lambda a: G_prime(d, a), 0.0, a_mid)
    g2 = brentq(lambda a: G_prime(d, a), a_mid, 1.0)
    # G(d, 0) = -d*exp(-d) and G(d, 1) = exp(-d) to first order, and they
    # read 0.0 from about d = 37: that end is then the root to double
    # precision, and brentq returns an end where G is 0
    if not (G(d, 0.0) <= 0.0 < G(d, g1) and G(d, g2) < 0.0 <= G(d, 1.0)):
        raise RuntimeError(f"root bracketing failed at d={d}")  # pragma: no cover
    lo = brentq(lambda a: G(d, a), 0.0, g1)
    hi = brentq(lambda a: G(d, a), g2, 1.0)
    if not lo < a0 < hi:
        raise RuntimeError(f"zero ordering failed at d={d}")  # pragma: no cover
    return (lo, a0, hi)


def alpha_star_hi(d: float) -> float:
    """Largest zero of G(d, .) in [0, 1]."""
    return _alpha_roots(_validate_d(d))[2]


def alpha_star_lo(d: float) -> float:
    """Smallest zero of G(d, .) in [0, 1]."""
    return _alpha_roots(_validate_d(d))[0]


@lru_cache(maxsize=_ROOT_CACHE_SIZE)
def ks_fixed_point(d: float) -> tuple[float, float]:
    """Leaf-removal constants ``(gamma_lo, gamma_hi)``.

    ``gamma_lo`` is the smallest root of ``x = d*exp(-d*exp(-x))`` on
    ``[0, d]``, found by bracketing with the zeroes of the equation's own
    derivative; ``gamma_hi = d*exp(-gamma_lo)``.  ``d = 0`` returns
    ``(0, 0)`` by continuity.  Inside the degenerate window around
    ``d = e`` the root is triple and taken as ``d*(1 - alpha_zero)``.
    """
    d = _validate_d(d)
    if d == 0.0:
        return (0.0, 0.0)

    def mp(x: float) -> float:  # fixed-point map
        return d * math.exp(-d * math.exp(-x))

    def g(x: float) -> float:
        return x - mp(x)

    def g_prime(x: float) -> float:
        return 1.0 - mp(x) * d * math.exp(-x)

    if abs(d - E) <= DEGENERATE_WINDOW:
        gamma = d * (1.0 - _alpha_roots(d)[1])  # alpha_zero
    elif d < E:
        # g' has minimum 1 - d/e > 0 at x = ln d: strictly increasing g
        gamma = brentq(g, 0.0, d)
    else:
        x1 = brentq(g_prime, 0.0, math.log(d))
        gamma = brentq(g, 0.0, x1)
    return (gamma, d * math.exp(-gamma))


def solve_point(d: float) -> AnalyticPoint:
    """Zeroes of G, the rank-functional minimum, and leaf-removal constants."""
    d = _validate_d(d)
    lo, zero, hi = _alpha_roots(d)
    gamma_lo, gamma_hi = ks_fixed_point(d)
    return AnalyticPoint(
        d=d,
        alpha_star_lo=lo,
        alpha_zero=zero,
        alpha_star_hi=hi,
        min_R=R(d, hi) if d > 0.0 else 0.0,
        gamma_lo=gamma_lo,
        gamma_hi=gamma_hi,
    )


def min_R(d: float) -> float:
    """Minimum of R(d, .) over [0, 1], attained at the outer zeroes of G."""
    return solve_point(d).min_R


def _gauss_legendre(f, a: float, b: float, panels: int) -> float:
    """The Gauss-Legendre rule for ``f`` on ``panels`` equal panels of ``[a, b]``."""
    import numpy as np
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(_GL_POINTS)
    half = (b - a) / (2 * panels)
    t = a + half * (np.arange(1, 2 * panels, 2)[:, None] + nodes)
    return half * float(np.tile(weights, panels) @ [f(x) for x in t.ravel().tolist()])


def _integrate(f, a: float, b: float) -> float:
    """The integral of ``f`` over ``[a, b]``: the rule on 1, 2, 4, ... panels until two
    successive totals agree within ``_QUAD_EPSABS``, at most ``_GL_MAX_PANELS``."""
    panels, total = 1, _gauss_legendre(f, a, b, 1)
    while panels < _GL_MAX_PANELS:
        panels *= 2
        prev, total = total, _gauss_legendre(f, a, b, panels)
        if abs(total - prev) <= _QUAD_EPSABS:
            return total
    raise RuntimeError(f"no quadrature agreement on [{a}, {b}] at {panels} panels")


def integral_identity_residual(d: float) -> float:
    """|integral of h_t(alpha_star_hi(t)) over [0, d]  -  d*R(d, alpha_star_hi(d))|,
    integrated over [0, min(d, e)] and, past e, under t = e + s**2, which
    removes the square-root kink of the largest zero at t = e."""
    d = _validate_d(d)

    def integrand(t: float) -> float:
        return h(t, alpha_star_hi(t))

    total = _integrate(integrand, 0.0, min(d, E))
    if d > E:
        total += _integrate(lambda s: 2.0 * s * integrand(E + s * s), 0.0, math.sqrt(d - E))
    return abs(total - d * R(d, alpha_star_hi(d)))


def type_functions(zeta, g) -> tuple[float, float, float]:
    """The three type maps evaluated at proportions ``zeta`` and pgf ``g``.

    ``zeta`` is ``(x, y, z, u, v)`` on the 4-simplex (a TypeProfile works);
    ``g`` is a nondecreasing map [0,1] -> [0,1], typically ``phi(t, .)``.
    Returns ``(Y, U, V)`` where ``Y = 1 - g(x+y+u) - g(x+y+v) + g(x+y)``,
    ``U = g(x+y+u) - g(x+y)`` and ``V = g(x+y+v) - g(x+y)``.
    """
    if hasattr(zeta, "zeta"):
        zeta = zeta.zeta()
    x, y, z, u, v = (float(c) for c in zeta)
    coords = (x, y, z, u, v)
    if any(c < -1e-12 for c in coords):
        raise ValueError("type proportions must be nonnegative")
    if abs(sum(coords) - 1.0) > 1e-9:
        raise ValueError("type proportions must sum to one")
    gxy = g(x + y)
    gxyu = g(x + y + u)
    gxyv = g(x + y + v)
    return (1.0 - gxyu - gxyv + gxy, gxyu - gxy, gxyv - gxy)
