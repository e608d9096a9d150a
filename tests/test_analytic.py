"""Closed forms, root structure, fixed points and the integral identity."""

import math

import pytest

from frozenrank import analytic as an

E = an.E

# Reference limit values for the curve d -> min R (independently recomputed
# by the dense-grid minimization below before being frozen here).
CURVE = {
    0.1: 0.0911554126772786,
    0.5: 0.345631947744951,
    1.0: 0.544061907323596,
    2.0: 0.783926426954236,
    2.5: 0.865575793294474,
    3.0: 0.927687457885459,
    4.0: 0.977840311818603,
    5.0: 0.992581074354835,
}


def grid_min_R(d: float) -> float:
    """Independent minimizer: dense grid plus local ternary refinement."""
    pts = 200_000
    best_k = min(range(pts + 1), key=lambda k: an.R(d, k / pts))
    lo = max(0.0, (best_k - 2) / pts)
    hi = min(1.0, (best_k + 2) / pts)
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if an.R(d, m1) <= an.R(d, m2):
            hi = m2
        else:
            lo = m1
    return an.R(d, 0.5 * (lo + hi))


def test_phi_examples():
    assert an.phi(3.0, 1.0) == 1.0
    assert an.phi(0.0, 0.37) == 1.0
    assert abs(an.phi(1.0, 0.0) - 0.36787944117) < 1e-11


def test_R_examples():
    for alpha in (0.0, 0.3, 1.0):
        assert an.R(0.0, alpha) == 0.0
    assert abs(an.min_R(1.0) - CURVE[1.0]) <= 1e-9
    assert abs(an.min_R(3.0) - CURVE[3.0]) <= 1e-9


def test_G_Xi_h_examples():
    assert an.G(0.0, 0.25) == 0.25
    assert abs(an.G(E, 1.0 - 1.0 / E)) < 1e-15
    assert abs(an.h(E, 1.0 - 1.0 / E) - (2.0 - 2.0 / E)) < 1e-11
    assert abs(an.Xi(2.0, an.solve_point(2.0).alpha_zero)) < 1e-14


def test_min_R_matches_figure_values():
    for d, want in CURVE.items():
        assert abs(an.min_R(d) - want) <= 1e-9


def test_min_R_matches_grid_minimization():
    for d in (0.5, 1.0, 2.0, 3.0, 5.0):
        assert abs(an.min_R(d) - grid_min_R(d)) <= 1e-9


def test_min_R_at_large_degree():
    # in double precision G(d, 1) reads 0.0 from d = 37 and G(d, 0) from
    # d = 38, so the outer roots sit at the ends of their brackets
    for d in (37.0, 38.0, 50.0, 100.0):
        pt = an.solve_point(d)
        assert math.isfinite(pt.min_R) and 0.0 <= pt.min_R <= 1.0
        assert pt.alpha_star_lo < pt.alpha_zero < pt.alpha_star_hi
        assert abs(pt.alpha_star_hi - (1.0 - pt.gamma_lo / d)) < 1e-12
        assert abs(pt.alpha_star_lo - (1.0 - pt.gamma_hi / d)) < 1e-12


def test_min_R_nondecreasing_up_to_large_degree():
    values = [an.min_R(30.0 + 0.5 * k) for k in range(141)]
    assert values == sorted(values)


def test_solve_point_zero_degree():
    pt = an.solve_point(0.0)
    assert (pt.alpha_star_lo, pt.alpha_zero, pt.alpha_star_hi) == (0.0, 0.0, 0.0)
    assert pt.min_R == 0.0 and (pt.gamma_lo, pt.gamma_hi) == (0.0, 0.0)


def test_solve_point_degenerate_degree():
    pt = an.solve_point(E)
    expect = 1.0 - 1.0 / E
    for a in (pt.alpha_star_lo, pt.alpha_zero, pt.alpha_star_hi):
        assert abs(a - expect) < 1e-12


def test_solve_point_three_distinct_roots():
    pt = an.solve_point(5.0)
    assert pt.alpha_star_lo < pt.alpha_zero < pt.alpha_star_hi
    assert abs(an.min_R(5.0) - CURVE[5.0]) <= 1e-9
    for a in (pt.alpha_star_lo, pt.alpha_zero, pt.alpha_star_hi):
        assert abs(an.G(5.0, a)) <= 1e-12


def test_roots_continuous_through_degeneracy():
    below = an.solve_point(E - 1e-7)
    above = an.solve_point(E + 1e-7)
    assert abs(below.alpha_zero - above.alpha_zero) < 1e-4
    assert abs(below.alpha_star_hi - above.alpha_star_hi) < 2e-2


def test_ordering_and_duality_on_grid():
    for d in (0.3, 1.0, 2.0, 2.9, 3.5, 4.0, 6.0, 9.0):
        pt = an.solve_point(d)
        assert pt.alpha_star_lo <= pt.alpha_zero <= pt.alpha_star_hi
        if d > E + 1e-6:  # three strictly distinct zeroes above the degeneracy
            assert pt.alpha_star_lo < pt.alpha_zero < pt.alpha_star_hi
        else:
            assert pt.alpha_star_lo == pt.alpha_zero == pt.alpha_star_hi
        assert abs(pt.alpha_star_lo - (1.0 - an.phi(d, pt.alpha_star_hi))) <= 1e-12
        assert abs(pt.alpha_star_hi - (1.0 - an.phi(d, pt.alpha_star_lo))) <= 1e-12
        assert abs(pt.gamma_lo - d * (1.0 - pt.alpha_star_hi)) <= 1e-10
        assert abs(pt.gamma_hi - d * (1.0 - pt.alpha_star_lo)) <= 1e-10


def test_invalid_degree_rejected():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            an.solve_point(bad)


def bisect_smallest_fixed_point(d: float) -> float:
    """Test-local oracle: scan then bisect x = d*exp(-d*exp(-x))."""
    f = lambda x: x - d * math.exp(-d * math.exp(-x))
    steps = 200_000
    prev = f(0.0)
    for k in range(1, steps + 1):
        x = d * k / steps
        cur = f(x)
        if prev < 0.0 <= cur:
            lo, hi = d * (k - 1) / steps, x
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if f(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        prev = cur
    raise AssertionError("no sign change found")


def test_ks_fixed_point_omega_constant():
    gamma_lo, gamma_hi = an.ks_fixed_point(1.0)
    assert abs(gamma_lo - gamma_hi) < 1e-12
    assert abs(gamma_lo - 0.5671432904097838) < 1e-12
    assert abs(gamma_lo - bisect_smallest_fixed_point(1.0)) < 1e-11
    assert abs(2.0 - (2.0 * gamma_lo + gamma_lo**2) - CURVE[1.0]) <= 1e-8


def test_ks_fixed_point_against_bisection_oracle():
    for d in (0.5, 2.0, 3.0, 5.0):
        lo, hi = an.ks_fixed_point(d)
        assert abs(lo - bisect_smallest_fixed_point(d)) < 1e-10
        assert abs(hi - d * math.exp(-lo)) < 1e-14
        assert abs(lo - d * math.exp(-d * math.exp(-lo))) <= 1e-12


def test_ks_fixed_point_boundary():
    assert an.ks_fixed_point(0.0) == (0.0, 0.0)
    lo, hi = an.ks_fixed_point(E)
    assert abs(lo - 1.0) < 1e-9 and abs(hi - 1.0) < 1e-9


def test_ks_fixed_point_window_reads_the_xi_zero():
    # inside the degenerate window the triple root is d * (1 - alpha_zero),
    # alpha_zero being the zero of Xi that _alpha_roots caches
    for d in (E - an.DEGENERATE_WINDOW / 2, E - 1e-9, E, E + 1e-9, E + an.DEGENERATE_WINDOW / 2):
        zero = an.brentq(lambda a: an.Xi(d, a), 0.0, 1.0)
        assert an.ks_fixed_point(d) == (d * (1.0 - zero), d * math.exp(-d * (1.0 - zero)))
        assert an._alpha_roots(d) == (zero, zero, zero)


def test_integral_identity():
    assert an.integral_identity_residual(0.0) == 0.0
    assert an.integral_identity_residual(1.0) <= 1e-6
    assert an.integral_identity_residual(4.0) <= 1e-6


def test_type_functions_examples():
    g = lambda r: an.phi(2.0, r)
    Y, U, V = an.type_functions((0.0, 0.0, 1.0, 0.0, 0.0), g)
    assert abs(Y - (1.0 - g(0.0))) < 1e-15
    assert U == 0.0 and V == 0.0
    assert an.type_functions((0.1, 0.2, 0.3, 0.2, 0.2), lambda r: 1.0) == (0.0, 0.0, 0.0)


def test_type_functions_against_direct_formula():
    # independent re-evaluation of the three displayed maps
    x, y, z, u, v = 0.1, 0.2, 0.3, 0.2, 0.2
    t = 2.0
    g = lambda r: math.exp(t * (r - 1.0))
    want_Y = 1.0 - g(x + y + u) - g(x + y + v) + g(x + y)
    want_U = g(x + y + u) - g(x + y)
    want_V = g(x + y + v) - g(x + y)
    got = an.type_functions((x, y, z, u, v), lambda r: an.phi(t, r))
    assert got == pytest.approx((want_Y, want_U, want_V), abs=1e-15)


def test_type_functions_accepts_profile():
    from frozenrank.exactla import Matrix, type_census
    from frozenrank.field import FieldSpec

    prof = type_census(Matrix.zeros(FieldSpec.prime(2), 3, 3))
    Y, U, V = an.type_functions(prof, lambda r: an.phi(1.0, r))
    assert U == 0.0 and V == 0.0


def test_type_functions_validation():
    with pytest.raises(ValueError):
        an.type_functions((0.5, 0.5, 0.5, 0.0, 0.0), lambda r: r)
    with pytest.raises(ValueError):
        an.type_functions((-0.1, 0.4, 0.3, 0.2, 0.2), lambda r: r)


def test_analytic_suite_green():
    from frozenrank.verify import run_analytic_suite

    results = run_analytic_suite()
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


# --------------------------------------------- brentq against scipy's oracle


def _same(x, y) -> bool:
    """Bit-for-bit equality of two results: floats by their hex form, an
    exception by its type."""
    if isinstance(x, float) and isinstance(y, float):
        return x.hex() == y.hex()
    return type(x) is type(y)


def _outcome(solver, *args, **kw):
    try:
        return float(solver(*args, **kw))
    except (ValueError, RuntimeError) as exc:
        return exc


def _clear_root_caches():
    for cached in (an._alpha_roots, an.ks_fixed_point):
        cached.cache_clear()


def test_brentq_matches_scipy_on_the_module_root_problems(monkeypatch):
    from scipy.optimize import brentq as scipy_brentq

    ours = an.brentq
    problems = []
    end_zeros = 0

    def both(f, a, b):
        nonlocal end_zeros
        got = ours(f, a, b)
        problems.append((a, b, got, scipy_brentq(f, a, b, xtol=an._BRENT_XTOL)))
        end_zeros += f(a) == 0.0 or f(b) == 0.0
        return got

    monkeypatch.setattr(an, "brentq", both)
    _clear_root_caches()
    try:
        # d from 0 to 40 (G reads 0.0 at an end of its bracket from about
        # d = 37), and the window around the triple root at d = e
        grid = [k / 50 for k in range(2001)]
        grid += [E + s * 10.0 ** -k for k in range(1, 17) for s in (1, -1)]
        for d in grid:
            an.solve_point(d)
    finally:
        _clear_root_caches()
    assert len(problems) > 10_000 and end_zeros > 0
    bad = [(a, b, x, y) for a, b, x, y in problems if not _same(x, y)]
    assert bad == []


def test_brentq_matches_scipy_on_random_brackets():
    import random

    from scipy.optimize import brentq as scipy_brentq

    rng = random.Random(18)
    outcomes = {"root": 0, "error": 0}
    for k in range(1500):
        c0, c1, c2, c3 = (rng.uniform(-3.0, 3.0) for _ in range(4))
        w = rng.uniform(0.1, 20.0)
        # at values near 1e-200 the products of the extrapolation step
        # underflow to 0, where C divides to inf or NaN and bisects
        scale = 1e-200 if k % 2 else 1.0

        def f(x):
            return scale * (c0 + c1 * x + c2 * x * x + c3 * x ** 3 + math.sin(w * x))

        a, b = sorted(rng.uniform(-5.0, 5.0) for _ in range(2))
        ours = _outcome(an.brentq, f, a, b)
        assert _same(ours, _outcome(scipy_brentq, f, a, b, xtol=an._BRENT_XTOL)), (a, b)
        outcomes["error" if isinstance(ours, Exception) else "root"] += 1
    # both kinds of bracket occur: a sign change, and one sign at both ends
    assert min(outcomes.values()) > 100


def test_brentq_raises_as_scipy_does():
    from scipy.optimize import brentq as scipy_brentq

    cube = lambda x: x ** 3 - 2.0  # noqa: E731
    with pytest.raises(ValueError, match="different signs"):
        an.brentq(cube, 2.0, 3.0)
    with pytest.raises(ValueError):
        scipy_brentq(cube, 2.0, 3.0, xtol=an._BRENT_XTOL)
    # a bracket whose step never reaches the root: f jumps across it
    jump = lambda x: -1.0 if x < math.pi else 1.0  # noqa: E731
    with pytest.raises(RuntimeError, match="Failed to converge"):
        an.brentq(jump, 0.0, 1e300)
    with pytest.raises(RuntimeError):
        scipy_brentq(jump, 0.0, 1e300, xtol=an._BRENT_XTOL)
    with pytest.raises(ValueError, match="NaN"):
        an.brentq(lambda x: math.nan, 2.0, 3.0)
    with pytest.raises(ValueError, match="NaN"):
        an.brentq(lambda x: x - 1.0 if x != 3.0 else math.nan, 0.0, 3.0)
    # an end where f is 0 is the root, at once
    assert an.brentq(lambda x: x - 2.0, 2.0, 5.0) == 2.0
    assert an.brentq(lambda x: x - 5.0, 2.0, 5.0) == 5.0


# ------------------------------------ the integral identity against scipy's quad


@pytest.mark.parametrize("d", [0.5, 1.0, E - 1e-7, E, E + 1e-7, 3.0, 4.0, 8.0, 36.0, 40.0,
                               100.0, 1000.0])
def test_integral_matches_scipy_quad(d):
    from scipy.integrate import quad

    def f(t):
        return an.h(t, an.alpha_star_hi(t)) if t > 0.0 else 0.0

    # each piece on the original variable for quad, past e under t = e + s^2 for the rule
    pieces = [(an._integrate(f, 0.0, min(d, E)), quad(f, 0.0, min(d, E), limit=200)[0])]
    if d > E:
        pieces.append((an._integrate(lambda s: 2.0 * s * f(E + s * s), 0.0, math.sqrt(d - E)),
                       quad(f, E, d, limit=200)[0]))
    for ours, oracle in pieces:
        assert abs(ours - oracle) <= 1e-9, (d, ours, oracle)
    assert an.integral_identity_residual(d) <= 1e-9


def test_gauss_legendre_panel_is_exact_to_degree_39():
    for k in range(41):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        err = abs(an._gauss_legendre(lambda t: (t - 2.0) ** k, 1.0, 3.0, 1) - exact)
        # 20 nodes: exact through degree 39; at degree 40 the error is about 3e-12
        assert (err <= 1e-14) == (k <= 39), (k, err)


def test_integral_raises_at_the_panel_cap():
    calls = []

    def step(t):  # a jump at 1/3 never falls on a panel edge of [0, 1]
        calls.append(t)
        return 1.0 if t > 1.0 / 3.0 else 0.0

    with pytest.raises(RuntimeError, match="at 256 panels"):
        an._integrate(step, 0.0, 1.0)
    assert len(calls) == 20 * (1 + 2 + 4 + 8 + 16 + 32 + 64 + 128 + 256)


def test_root_caches_stay_bounded_and_keep_the_analytic_suite_warm():
    from frozenrank.verify import run_analytic_suite

    caches = (an._alpha_roots, an.ks_fixed_point)
    # every quadrature node past e is a new degree to the alpha roots, about
    # 60 per residual here, and the gamma sweep visits more degrees than the
    # bound: each asks for more than its cache holds
    before = [c.cache_info().misses for c in caches]
    for k in range(120):
        an.integral_identity_residual(3.0 + 0.25 * k)
    for k in range(an._ROOT_CACHE_SIZE + 100):
        an.ks_fixed_point(0.5 + k / 100)
    for cache, misses in zip(caches, before):
        info = cache.cache_info()
        assert info.maxsize == an._ROOT_CACHE_SIZE and info.misses - misses > info.maxsize
        assert info.currsize <= an._ROOT_CACHE_SIZE
    # one suite run fits in the caches, so a second one in the process misses nothing
    run_analytic_suite()
    misses = [c.cache_info().misses for c in caches]
    run_analytic_suite()
    assert [c.cache_info().misses for c in caches] == misses


def test_importing_frozenrank_loads_no_scipy_solver():
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import frozenrank.cli\n"
        "assert loaded() == [], loaded()\n"
        "from frozenrank import analytic, harness\n"
        "cfg = harness.ExperimentConfig(n=60, d=3.0, field='F2', trials=2, master_seed=0)\n"
        "records, report = harness.run_experiment(cfg)\n"
        "assert report.to_json() and loaded() == [], loaded()\n"
        "analytic.integral_identity_residual(1.0)\n"
        "assert loaded() == [], loaded()\n"
        "print('ok')\n"
    )
    src = str(Path(an.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0 and out.stdout == "ok\n", out.stderr
