"""Runtime verification suites behind the ``verify`` CLI subcommand.

Each check returns a :class:`CheckResult`; a suite fails iff any check
fails.  The checks deliberately pit independent computation routes against
each other: elimination rank vs row-space enumeration, kernel-support vs
rank-drop frozen sets, complex-step derivatives vs closed forms, fixed
points solved on both sides of a duality.
"""

from __future__ import annotations

import cmath
import itertools
import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import analytic
from .exactla import (
    Matrix,
    classify_variable,
    field_array,
    frozen_set,
    proper_relations,
    relabelled,
    row_in_span,
    symmetric_removal_rank_drop,
    type_census,
)
from .field import FieldSpec, sample_nonzero
from .perturb import (
    CoupledFamilies,
    PerturbationFamily,
    PerturbationSpec,
    canonical_perturb,
    indices_over_seeds,
    theta_r_matrix,
)
from .prf import TAG_COL_FAMILY, TAG_ROW_FAMILY, Stream, prf, prf_array


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


SUITES = ("oracle", "lemmas", "perturb", "analytic", "all")


# ----------------------------------------------------------------- helpers


def random_matrix(stream: Stream, field: FieldSpec, m: int, n: int,
                  density_percent: int = 50, symmetric: bool = False) -> Matrix:
    """Random test matrix with roughly the given nonzero density; a
    ``symmetric`` one draws each entry above the diagonal once and mirrors
    it."""
    if symmetric and m != n:
        raise ValueError("a symmetric matrix must be square")
    rows = [[0] * n for _ in range(m)]
    if symmetric:
        for i in range(m):
            for j in range(i + 1, n):
                if stream.randbelow(100) < density_percent:
                    w = sample_nonzero(stream, field)
                    rows[i][j] = w
                    rows[j][i] = w
    else:
        for i in range(m):
            for j in range(n):
                if stream.randbelow(100) < density_percent:
                    rows[i][j] = sample_nonzero(stream, field)
    return Matrix._from_array(field, field_array(field, rows).reshape(m, n))


def _row_span(A: Matrix) -> np.ndarray:
    """Every vector of the row space of ``A``, zero included, one per row of
    an int64 array: field scalar arithmetic only, never elimination.

    Starting from {0}, the span is closed under addition of ``c * row`` for
    each row of ``A`` and each ``c`` in F_p.  Each round's candidates are
    deduplicated by their base-p codes ``sum_k v[k] * p**k``, which fit in
    int64 only while ``p**n < 2**63``; a wider matrix is refused before
    anything is allocated.
    """
    if A.field.kind != "prime":
        raise ValueError("the enumeration oracle needs a finite field")
    p, n = A.field.p, A.n
    if p ** n >= 2 ** 63:
        raise ValueError(f"row span codes of {p}**{n} do not fit in int64")
    place = p ** np.arange(n, dtype=np.int64)
    scalars = np.arange(p, dtype=np.int64)[:, None]
    span = np.zeros((1, n), dtype=np.int64)
    for row in A._a.astype(np.int64):
        cand = ((span[:, None, :] + scalars * row) % p).reshape(len(span) * p, n)
        span = cand[np.unique(cand @ place, return_index=True)[1]]
    return span


def rank_by_row_space_enumeration(A: Matrix) -> int:
    """Independent rank oracle: count the vectors of the row span
    (|F|^rank including zero)."""
    p = A.field.p
    count = len(_row_span(A))
    rank = round(math.log(count, p)) if count > 1 else 0
    if p ** rank != count:
        raise AssertionError("span size is not a power of the field order")
    return rank


def proper_relations_by_enumeration(A: Matrix, ell: int) -> list[tuple[int, ...]]:
    """Oracle for :func:`proper_relations` from the row span, no elimination:
    the frozen columns are the singleton supports, and a size-``ell`` set is
    kept when it holds the support of a row-space vector that avoids them."""
    supports = {frozenset(np.flatnonzero(v).tolist()) for v in _row_span(A)} - {frozenset()}
    frozen = {j for s in supports if len(s) == 1 for j in s}
    found: set[tuple[int, ...]] = set()
    for s in supports:
        if len(s) <= ell and not s & frozen:
            rest = [j for j in range(A.n) if j not in s]
            for extra in itertools.combinations(rest, ell - len(s)):
                found.add(tuple(sorted(s.union(extra))))
    return sorted(found)


def frozen_set_by_removal(A: Matrix) -> tuple[int, ...]:
    """Oracle for :func:`frozen_set` by the definition, one elimination per
    column: the columns whose removal drops the rank by exactly one."""
    base = A.rank()
    return tuple(j for j in range(A.n) if base - A.remove(cols=[j]).rank() == 1)


def proper_relations_by_removal(A: Matrix, ell: int) -> list[tuple[int, ...]]:
    """Oracle for :func:`proper_relations` by the definition: keep a
    size-``ell`` set when deleting its unfrozen columns lowers the rank, with
    the frozen set from the rank-drop route."""
    base = A.rank()
    # rank of A minus each unfrozen core, once per call; the single columns
    # come first and give the frozen set, as in frozen_set_by_removal
    ranks = {frozenset([j]): A.remove(cols=[j]).rank() for j in range(A.n)}
    frozen = {j for j in range(A.n) if base - ranks[frozenset([j])] == 1}
    out = []
    for combo in itertools.combinations(range(A.n), ell):
        core = frozenset(combo) - frozen
        if not core:
            continue
        if core not in ranks:
            ranks[core] = A.remove(cols=core).rank()
        if ranks[core] < base:
            out.append(combo)
    return out


def _support(vec) -> frozenset[int]:
    return frozenset(k for k, v in enumerate(vec) if v != 0)


def _R_complex(d: float, a: complex) -> complex:
    phi = lambda x: cmath.exp(d * (x - 1.0))
    return 2.0 - phi(1.0 - phi(a)) - (1.0 + d * (1.0 - a)) * phi(a)


# ------------------------------------------------------------ oracle suite


def run_oracle_suite(seed: int = 2024, matrices: int = 500) -> list[CheckResult]:
    """Elimination rank against the row-space enumeration oracle."""
    fields = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5)]
    per_field = (matrices + len(fields) - 1) // len(fields)
    stream = Stream(seed)
    failures = 0
    total = 0
    for field in fields:
        for _ in range(per_field):
            m = 1 + stream.randbelow(6)
            n = 1 + stream.randbelow(6)
            A = random_matrix(stream, field, m, n, density_percent=30 + stream.randbelow(50))
            total += 1
            if A.rank() != rank_by_row_space_enumeration(A):
                failures += 1
    return [
        CheckResult(
            name="rank elimination vs row-space enumeration",
            passed=failures == 0,
            detail=f"{total} matrices over F2/F3/F5, {failures} disagreements",
        )
    ]


# ------------------------------------------------------------ lemmas suite


def run_lemmas_suite(seed: int = 77, instances: int = 200) -> list[CheckResult]:
    checks: list[CheckResult] = []
    fields = [FieldSpec.prime(2), FieldSpec.prime(3)]

    # frozen set: kernel-support vs rank-drop
    stream = Stream(seed)
    bad = 0
    for k in range(instances):
        field = fields[k % 2]
        A = random_matrix(stream, field, 1 + stream.randbelow(8), 1 + stream.randbelow(8))
        if frozen_set(A) != frozen_set_by_removal(A):
            bad += 1
    checks.append(CheckResult(
        "frozen set: kernel-support vs rank-drop",
        bad == 0, f"{instances} matrices, {bad} disagreements"))

    # span implications linking membership, frozen supports and proper relations
    stream = Stream(seed + 1)
    bad = 0
    for k in range(instances):
        field = fields[k % 2]
        n = 2 + stream.randbelow(5)
        A = random_matrix(stream, field, 1 + stream.randbelow(5), n)
        frozen = set(frozen_set(A))
        b = [sample_nonzero(stream, field) if stream.randbelow(2) else 0 for _ in range(n)]
        supp = _support(b)
        in_span = row_in_span(A, b)
        if supp and supp <= frozen and not in_span:
            bad += 1
        if in_span and supp:
            if not (supp <= frozen or tuple(sorted(supp)) in proper_relations(A, len(supp))):
                bad += 1
    checks.append(CheckResult(
        "span membership vs frozen supports and proper relations",
        bad == 0, f"{instances} instances, {bad} violations"))

    # column append / row append monotonicity of freezing
    stream = Stream(seed + 2)
    bad = 0
    for k in range(instances):
        field = fields[k % 2]
        m, n = 1 + stream.randbelow(6), 1 + stream.randbelow(6)
        A = random_matrix(stream, field, m, n)
        bcol = [stream.randbelow(field.p) for _ in range(m)]
        crow = [stream.randbelow(field.p) for _ in range(n)]
        f_a = set(frozen_set(A))
        f_ab = set(frozen_set(A.append_col(bcol)))
        f_ac = set(frozen_set(A.append_row(crow)))
        if not ((f_ab & set(range(n))) <= f_a and f_a <= f_ac):
            bad += 1
    checks.append(CheckResult(
        "freezing monotone under column append / row append",
        bad == 0, f"{instances} instances, {bad} violations"))

    # row removal has the same effect on freezing as appending a unit column
    stream = Stream(seed + 3)
    bad = 0
    for k in range(instances):
        field = fields[k % 2]
        m, n = 2 + stream.randbelow(5), 1 + stream.randbelow(6)
        A = random_matrix(stream, field, m, n)
        j = stream.randbelow(m)
        unit = [1 if r == j else 0 for r in range(m)]
        lhs = set(frozen_set(A.remove(rows=[j])))
        rhs = set(frozen_set(A.append_col(unit))) & set(range(n))
        if lhs != rhs:
            bad += 1
    checks.append(CheckResult(
        "row removal equals unit-column attachment for freezing",
        bad == 0, f"{instances} instances, {bad} violations"))

    # frail freezing is transpose-symmetric
    stream = Stream(seed + 4)
    bad = 0
    for k in range(instances):
        field = fields[k % 2]
        n = 1 + stream.randbelow(6)
        A = random_matrix(stream, field, n, n)
        for i in range(n):
            if (classify_variable(A, i) == "X") != (classify_variable(A.transpose(), i) == "X"):
                bad += 1
    checks.append(CheckResult(
        "frail freezing transpose symmetry",
        bad == 0, f"{instances} square matrices, {bad} violations"))

    # symmetric removal trichotomy: drop = 1 + [Y] - [Z]
    stream = Stream(seed + 5)
    bad = 0
    for k in range(instances):
        field = fields[k % 2]
        n = 1 + stream.randbelow(10)
        A = random_matrix(stream, field, n, n, symmetric=True)
        for i in range(n):
            t = classify_variable(A, i)
            if symmetric_removal_rank_drop(A, i) != 1 + (t == "Y") - (t == "Z"):
                bad += 1
    checks.append(CheckResult(
        "symmetric removal rank drop matches variable type",
        bad == 0, f"{instances} symmetric matrices, {bad} violations"))

    # joint relabelling preserves rank, frozen set and census
    stream = Stream(seed + 6)
    bad = 0
    for k in range(instances // 2):
        field = fields[k % 2]
        n = 2 + stream.randbelow(6)
        A = random_matrix(stream, field, n, n, symmetric=bool(stream.randbelow(2)))
        perm = list(range(n))
        stream.shuffle(perm)
        B = relabelled(A, perm)
        ok = (A.rank() == B.rank())
        ok = ok and {perm[i] for i in frozen_set(A)} == set(frozen_set(B))
        ok = ok and type_census(A) == type_census(B)
        if not ok:
            bad += 1
    checks.append(CheckResult(
        "joint relabelling invariance of rank/frozen set/census",
        bad == 0, f"{instances // 2} instances, {bad} violations"))

    # census shortcut against per-variable classification
    stream = Stream(seed + 7)
    bad = 0
    for k in range(instances // 2):
        field = fields[k % 2]
        m = 2 + stream.randbelow(5)
        n = 2 + stream.randbelow(5)
        A = random_matrix(stream, field, m, n)
        prof = type_census(A)
        tally = {t: 0 for t in "XYZUV"}
        for i in range(min(m, n)):
            tally[classify_variable(A, i)] += 1
        if (prof.count_x, prof.count_y, prof.count_z, prof.count_u, prof.count_v) != (
                tally["X"], tally["Y"], tally["Z"], tally["U"], tally["V"]):
            bad += 1
    checks.append(CheckResult(
        "type census agrees with per-variable classification",
        bad == 0, f"{instances // 2} instances, {bad} violations"))

    # proper relations: kernel rows vs row-space enumeration vs remove-and-rank
    stream = Stream(seed + 8)
    bad = 0
    for k in range(instances // 2):
        field = fields[k % 2]
        n = 2 + stream.randbelow(5)
        A = random_matrix(stream, field, 1 + stream.randbelow(5), n)
        ell = 2 + stream.randbelow(2)
        if not (proper_relations(A, ell) == proper_relations_by_enumeration(A, ell)
                == proper_relations_by_removal(A, ell)):
            bad += 1
    checks.append(CheckResult(
        "proper relations: enumeration vs rank-drop",
        bad == 0, f"{instances // 2} instances, {bad} violations"))

    return checks


# ----------------------------------------------------------- perturb suite

# scipy.stats.chi2.isf(0.001, 6): the 0.001 critical value of the perturb
# suite's uniformity test on n1 = 7 positions
_CHI2_CRIT = 22.457744484825323


def run_perturb_suite(seed: int = 99, samples: int = 100_000) -> list[CheckResult]:
    checks: list[CheckResult] = []
    field = FieldSpec.prime(2)

    # exact nesting in both directions
    fam = PerturbationFamily(prf(seed, 0))
    ok = True
    for theta_r in (1, 3, 5):
        for n1 in (1, 2, 5, 9):
            for n2 in (n1, n1 + 1, n1 + 4):
                big = theta_r_matrix(fam, theta_r, n1, n2 + 1, field)
                small = theta_r_matrix(fam, theta_r, n1, n2, field)
                ok = ok and big.remove(cols=[n2]) == small
                taller = theta_r_matrix(fam, theta_r + 1, n1, n2, field)
                ok = ok and taller.remove(rows=[theta_r]) == small
    checks.append(CheckResult("perturbation nesting exact in rows and columns",
                              ok, "theta_r in {1,3,5}, n1 up to 9"))

    # agreement probability of restrictions: (n0/n1)^theta_r within 3 sigma
    triples = ((2, 4, 1), (3, 5, 2), (5, 10, 3))
    detail = []
    ok = True
    for n0, n1, theta_r in triples:
        seeds = prf_array(seed, 1, n0, n1, theta_r, np.arange(samples))
        agree = np.ones(samples, dtype=bool)
        for k in range(theta_r):
            agree &= indices_over_seeds(seeds, k, n0) == indices_over_seeds(seeds, k, n1)
        freq = float(np.mean(agree))
        want = (n0 / n1) ** theta_r
        sigma = math.sqrt(want * (1.0 - want) / samples)
        ok = ok and abs(freq - want) <= 3.0 * sigma
        detail.append(f"({n0},{n1},{theta_r}): freq={freq:.5f} want={want:.5f}")
    checks.append(CheckResult("restriction agreement frequency within 3 sigma",
                              ok, "; ".join(detail)))

    # uniformity of the nonzero position (chi-square, significance 0.001)
    n1 = 7
    seeds = prf_array(seed, 2, np.arange(samples))
    idx = indices_over_seeds(seeds, 0, n1)
    counts = np.bincount(idx, minlength=n1)
    expected = samples / n1
    stat = float(((counts - expected) ** 2 / expected).sum())
    crit = _CHI2_CRIT
    checks.append(CheckResult(
        "nonzero position uniform (chi-square)",
        stat <= crit, f"stat={stat:.2f} critical={crit:.2f} at n1={n1}"))

    # row family independent of column family (sample correlation)
    n = 16
    # derive_seed(master, 0, tag) over every master seed
    masters = prf_array(seed, 3, np.arange(samples))
    row_seeds = prf_array(masters, 0, TAG_ROW_FAMILY)
    col_seeds = prf_array(masters, 0, TAG_COL_FAMILY)
    jr = indices_over_seeds(row_seeds, 0, n).astype(np.float64)
    jc = indices_over_seeds(col_seeds, 0, n).astype(np.float64)
    corr = float(np.corrcoef(jr, jc)[0, 1])
    checks.append(CheckResult(
        "row/column families uncorrelated",
        abs(corr) < 0.02, f"sample correlation {corr:.5f} at {samples} seeds"))

    # perturbation freezes the hit columns and bounds the rank change
    stream = Stream(seed + 4)
    ok = True
    for k in range(50):
        A = random_matrix(stream, field, 4 + stream.randbelow(5), 4 + stream.randbelow(5))
        spec = PerturbationSpec.draw(8, prf(seed, 4, k))
        fams = CoupledFamilies.from_seed(prf(seed, 5, k))
        M = canonical_perturb(A, spec, fams)
        frozen = set(frozen_set(M))
        hit = {fams.rows.index(j, A.n) for j in range(spec.theta_r)}
        ok = ok and hit <= frozen
        ok = ok and A.rank() <= M.rank() <= A.rank() + spec.theta_r + spec.theta_c
    checks.append(CheckResult(
        "unit rows freeze their columns; rank increase bounded",
        ok, "50 random perturbed matrices"))

    # perturbation does not increase short proper relations on average
    stream = Stream(seed + 6)
    base_counts = []
    pert_counts = []
    for k in range(200):
        A = random_matrix(stream, field, 14, 14, density_percent=20, symmetric=True)
        spec = PerturbationSpec.draw(8, prf(seed, 6, k))
        fams = CoupledFamilies.from_seed(prf(seed, 7, k))
        M = canonical_perturb(A, spec, fams)
        base_counts.append(len(proper_relations(A, 2)))
        pert_counts.append(len(proper_relations(M, 2)))
    mean_base = statistics.fmean(base_counts)
    mean_pert = statistics.fmean(pert_counts)
    checks.append(CheckResult(
        "perturbation reduces mean count of size-2 proper relations",
        mean_pert <= mean_base,
        f"mean base={mean_base:.3f} perturbed={mean_pert:.3f} over 200 trials"))

    return checks


# ---------------------------------------------------------- analytic suite


def run_analytic_suite() -> list[CheckResult]:
    checks: list[CheckResult] = []
    E = analytic.E

    figure = {
        0.1: 0.0911554126772786,
        0.5: 0.345631947744951,
        1.0: 0.544061907323596,
        2.0: 0.783926426954236,
        2.5: 0.865575793294474,
        3.0: 0.927687457885459,
        4.0: 0.977840311818603,
        5.0: 0.992581074354835,
    }
    worst = max(abs(analytic.min_R(d) - v) for d, v in figure.items())
    checks.append(CheckResult("limit curve reference values",
                              worst <= 1e-9, f"worst error {worst:.3e} over 8 degrees"))

    worst = max(
        abs(analytic.R(d, analytic.solve_point(d).alpha_star_lo)
            - analytic.R(d, analytic.solve_point(d).alpha_star_hi))
        for d in (3.0, 4.0, 5.0)
    )
    checks.append(CheckResult("outer zeroes minimize R equally",
                              worst <= 1e-10, f"worst gap {worst:.3e}"))

    # zero quality across a degree grid (looser inside the degenerate window)
    worst_far = 0.0
    worst_near = 0.0
    for d in [0.0, 0.3, 1.0, 2.0, 2.5, E - 1e-7, E, E + 1e-7, 2.8, 3.0, 4.0, 5.0, 8.0]:
        pt = analytic.solve_point(d)
        err = max(abs(analytic.G(d, a))
                  for a in (pt.alpha_star_lo, pt.alpha_zero, pt.alpha_star_hi))
        if abs(d - E) <= 1e-6:
            worst_near = max(worst_near, err)
        else:
            worst_far = max(worst_far, err)
    checks.append(CheckResult(
        "G vanishes at returned zeroes",
        worst_far <= 1e-12 and worst_near <= 1e-8,
        f"worst |G| {worst_far:.3e} (degenerate window {worst_near:.3e})"))

    # sign pattern of G between its zeroes
    ok = True
    for d in (3.0, 4.0, 5.0):
        pt = analytic.solve_point(d)
        for w in (0.25, 0.5, 0.75):
            a_neg = pt.alpha_zero + w * (pt.alpha_star_hi - pt.alpha_zero)
            ok = ok and analytic.G(d, a_neg) < 0.0
            a_pos = pt.alpha_star_hi + w * (1.0 - pt.alpha_star_hi)
            ok = ok and analytic.G(d, a_pos) > 0.0
    checks.append(CheckResult("G negative between middle and largest zero, positive beyond",
                              ok, "d in {3,4,5}, three interior points each"))

    # stationarity: complex-step derivative of R matches d^2 phi G
    worst = 0.0
    hstep = 1e-200
    for d in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0):
        for a in [k / 16 for k in range(1, 16)]:
            deriv = _R_complex(d, complex(a, hstep)).imag / hstep
            worst = max(worst, abs(deriv / (d * d * analytic.phi(d, a)) - analytic.G(d, a)))
    checks.append(CheckResult("R' / (d^2 phi) equals G (complex-step derivative)",
                              worst <= 1e-9, f"worst deviation {worst:.3e}"))

    # finite-difference derivative of R vanishes at the zeroes of G
    worst = 0.0
    for d in (1.0, 3.0, 5.0):
        pt = analytic.solve_point(d)
        for a in {pt.alpha_star_lo, pt.alpha_star_hi}:
            fd = (analytic.R(d, a + 1e-6) - analytic.R(d, a - 1e-6)) / 2e-6
            worst = max(worst, abs(fd))
    checks.append(CheckResult("finite-difference R' vanishes at the zeroes",
                              worst <= 1e-6, f"worst |R'| {worst:.3e}"))

    # equal rank-increase value at the two outer zeroes
    worst = max(
        abs(analytic.h(d, analytic.solve_point(d).alpha_star_lo)
            - analytic.h(d, analytic.solve_point(d).alpha_star_hi))
        for d in (1.0, 3.0, 5.0)
    )
    checks.append(CheckResult("h equal at the outer zeroes",
                              worst <= 1e-10, f"worst gap {worst:.3e}"))

    # duality between the outer zeroes
    worst = max(
        max(abs(analytic.solve_point(d).alpha_star_lo
                - (1.0 - analytic.phi(d, analytic.solve_point(d).alpha_star_hi))),
            abs(analytic.solve_point(d).alpha_star_hi
                - (1.0 - analytic.phi(d, analytic.solve_point(d).alpha_star_lo))))
        for d in (1.0, 2.0, 3.0, 4.0, 5.0, 7.5)
    )
    checks.append(CheckResult("outer zeroes are dual through 1 - phi",
                              worst <= 1e-12, f"worst deviation {worst:.3e}"))

    # middle zero lower bound for d > e
    ok = all(analytic.solve_point(float(t)).alpha_zero >= 1.0 - math.log(t) / t
             for t in range(3, 11))
    checks.append(CheckResult("middle zero above 1 - ln(t)/t", ok, "t = 3..10"))

    # monotone limit curve
    grid = [0.1 * k for k in range(0, 51)]
    vals = [analytic.min_R(d) for d in grid]
    ok = all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
    checks.append(CheckResult("limit curve nondecreasing", ok, "grid step 0.1 up to 5"))

    # leaf-removal constants: independent fixed point consistent with alphas
    ok = True
    detail = []
    for d in (1.0, 3.0, 5.0):
        lo, hi = analytic.ks_fixed_point(d)
        pt = analytic.solve_point(d)
        e1 = abs(lo - d * math.exp(-d * math.exp(-lo)))
        e2 = abs(2.0 - (hi + lo + hi * lo) / d - analytic.min_R(d))
        e3 = abs(lo - d * (1.0 - pt.alpha_star_hi))
        e4 = abs(hi - d * (1.0 - pt.alpha_star_lo))
        ok = ok and e1 <= 1e-12 and e2 <= 1e-8 and e3 <= 1e-10 and e4 <= 1e-10
        detail.append(f"d={d}: fp={e1:.1e} identity={e2:.1e} dual=({e3:.1e},{e4:.1e})")
    checks.append(CheckResult("leaf-removal constants consistent", ok, "; ".join(detail)))

    # integral of the rank increase equals the closed form
    worst = max(analytic.integral_identity_residual(d) for d in (1.0, E, 4.0))
    checks.append(CheckResult("rank-increase integral equals d * R(d, alpha_star_hi)",
                              worst <= 1e-6, f"worst residual {worst:.3e}"))

    return checks


def run_suite(name: str) -> list[CheckResult]:
    if name == "oracle":
        return run_oracle_suite()
    if name == "lemmas":
        return run_lemmas_suite()
    if name == "perturb":
        return run_perturb_suite()
    if name == "analytic":
        return run_analytic_suite()
    if name == "all":
        out = []
        for suite in ("oracle", "lemmas", "perturb", "analytic"):
            out.extend(run_suite(suite))
        return out
    raise ValueError(f"unknown suite {name!r} (choose from {', '.join(SUITES)})")
