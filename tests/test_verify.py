"""The runtime verification suites must come up green on a clean build."""

import json
from pathlib import Path

import pytest

from frozenrank.exactla import Matrix
from frozenrank.field import FieldSpec
from frozenrank.prf import Stream
from frozenrank.verify import random_matrix, run_suite


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
