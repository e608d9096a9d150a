"""The runtime verification suites must come up green on a clean build."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from frozenrank import exactla
from frozenrank.exactla import Matrix, classify_variable, symmetric_removal_rank_drop
from frozenrank.field import FieldSpec
from frozenrank.prf import Stream
from frozenrank.verify import _CHI2_CRIT, _row_span, random_matrix, run_suite


@pytest.fixture(scope="module")
def suite_results():
    # each suite runs once for the whole module
    return {s: run_suite(s) for s in ("oracle", "lemmas", "perturb")}


def test_suite_verdicts_match_recorded_json(suite_results):
    # every check's JSON at the CLI seeds, recorded before the vectorised
    # perturbation pick: it pins each verdict, detail string and check count
    # (analytic is left out, its residuals depend on platform floating point)
    recorded = (Path(__file__).parent / "data" / "verify_verdicts.json").read_bytes()
    verdicts = {s: [r.as_dict() for r in results] for s, results in suite_results.items()}
    assert all(r["passed"] for suite in json.loads(recorded).values() for r in suite)
    assert (json.dumps(verdicts, indent=2) + "\n").encode() == recorded


def test_oracle_suite_green(suite_results):
    results = suite_results["oracle"]
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]


def test_lemmas_suite_green(suite_results):
    results = suite_results["lemmas"]
    assert len(results) >= 8
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_perturb_suite_green(suite_results):
    results = suite_results["perturb"]
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_results_serialize(suite_results):
    results = suite_results["oracle"]
    payload = results[0].as_dict()
    assert set(payload) == {"name", "passed", "detail"}


def test_random_matrix_with_no_rows_keeps_its_columns():
    A = random_matrix(Stream(1), FieldSpec.prime(2), 0, 5)
    assert (A.m, A.n) == (0, 5)


@pytest.mark.parametrize("field", [FieldSpec.prime(2), FieldSpec.prime(3),
                                   FieldSpec.prime(2**31 - 1), FieldSpec.rationals()],
                         ids=lambda f: f.label())
def test_random_matrix_equals_the_from_rows_build(field):
    stream = Stream(8)
    for m, n, symmetric in ((1, 1, False), (1, 4, False), (3, 0, False), (4, 2, False),
                            (5, 5, True), (6, 6, False)):
        A = random_matrix(stream, field, m, n, symmetric=symmetric)
        B = Matrix.from_rows(field, A.to_values())
        assert (A.m, A.n) == (m, n)
        assert A == B and A._a.dtype == B._a.dtype
        assert not symmetric or A == A.transpose()
    with pytest.raises(ValueError):
        random_matrix(stream, field, 2, 3, symmetric=True)


def _row_span_by_tuples(A):
    """The row span as a set of tuples, closed under addition of each scalar
    multiple of each row: the literal reference for the code-array closure."""
    p, n = A.field.p, A.n
    span = {tuple([0] * n)}
    for row in A.to_values():
        additions = [tuple((c * w) % p for w in row) for c in range(p)]
        span = {tuple((v[k] + a[k]) % p for k in range(n)) for v in span for a in additions}
    return span


def _span_cases():
    F2, F3, F5 = FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5)
    for bits in itertools.product(range(2), repeat=6):
        yield Matrix.from_rows(F2, [bits[:3], bits[3:]])
    for vals in itertools.product(range(3), repeat=4):
        yield Matrix.from_rows(F3, [vals[:2], vals[2:]])
    stream = Stream(16)
    for _ in range(30):
        m, n = 1 + stream.randbelow(6), 1 + stream.randbelow(6)
        yield random_matrix(stream, F5, m, n, density_percent=20 + stream.randbelow(70))
    for field in (F2, F5):
        yield Matrix.zeros(field, 0, 4)
        yield Matrix.zeros(field, 3, 0)
        yield Matrix.zeros(field, 0, 0)


def test_row_span_matches_the_tuple_closure():
    for A in _span_cases():
        span = _row_span(A)
        assert span.dtype == np.int64 and span.shape[1] == A.n
        vectors = {tuple(v) for v in span.tolist()}
        assert len(vectors) == len(span), "a vector listed twice"
        assert vectors == _row_span_by_tuples(A)


def test_row_span_refuses_codes_beyond_int64():
    F2, F3 = FieldSpec.prime(2), FieldSpec.prime(3)
    assert len(_row_span(Matrix.from_rows(F2, [[1] * 62]))) == 2
    assert len(_row_span(Matrix.from_rows(F3, [[1] * 39]))) == 3
    for A in (Matrix.zeros(F2, 1, 63), Matrix.zeros(F3, 1, 40)):
        with pytest.raises(ValueError, match="int64"):
            _row_span(A)
    with pytest.raises(ValueError):
        _row_span(Matrix.zeros(FieldSpec.rationals(), 1, 1))


def test_chi2_critical_value_is_scipys():
    from scipy.stats import chi2

    # scipy 1.17 gives these bits; other releases may differ in the last place
    assert _CHI2_CRIT == pytest.approx(float(chi2.isf(0.001, 6)), rel=1e-15)


def _count_eliminations(monkeypatch):
    """Counts every elimination of a matrix: over F2 and over F3, each
    rank, kernel support and RREF runs one of these two kernels once.  Over
    F3 the dense kernel runs on Python-int rows: the matrices counted are at
    most 7 x 7, within ``exactla.ROW_LOOP_CELLS``."""
    assert 7 * 7 <= exactla.ROW_LOOP_CELLS
    calls = []
    for name in ("_row_loop", "_echelon_gf2"):
        kernel = getattr(exactla, name)

        def counted(*args, _kernel=kernel, **kwargs):
            calls.append(_kernel)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(exactla, name, counted)
    return calls


@pytest.mark.parametrize("field", [FieldSpec.prime(2), FieldSpec.prime(3)])
def test_lemmas_checks_eliminate_each_matrix_once(monkeypatch, field):
    calls = _count_eliminations(monkeypatch)
    stream = Stream(18)
    for n in (3, 5, 7):
        # "frail freezing transpose symmetry": A, A^T, and A and A^T without
        # row i; the second classify_variable finds all four kept
        A = random_matrix(stream, field, n, n)
        assert A.transpose() is not A
        calls.clear()
        for i in range(n):
            assert (classify_variable(A, i) == "X") == (classify_variable(A.transpose(), i) == "X")
        assert len(calls) == 2 + 2 * n
        # a symmetric A is its own transpose: A, and A without row i
        S = random_matrix(stream, field, n, n, symmetric=True)
        assert S.transpose() is S
        calls.clear()
        for i in range(n):
            assert (classify_variable(S, i) == "X") == (classify_variable(S.transpose(), i) == "X")
        assert len(calls) == 1 + n
        # "symmetric removal rank drop matches variable type": plus S
        # without row and column i, once each
        S = random_matrix(stream, field, n, n, symmetric=True)
        calls.clear()
        for i in range(n):
            t = classify_variable(S, i)
            assert symmetric_removal_rank_drop(S, i) == 1 + (t == "Y") - (t == "Z")
        assert len(calls) == 1 + 2 * n
