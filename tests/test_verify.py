"""The runtime verification suites must come up green on a clean build."""

import json
from pathlib import Path

import pytest

from frozenrank.verify import run_suite


def test_suite_verdicts_match_recorded_json():
    # every check's JSON at the CLI seeds, recorded before the vectorised
    # perturbation pick: it pins each verdict, detail string and check count
    # (analytic is left out, its residuals depend on platform floating point)
    recorded = (Path(__file__).parent / "data" / "verify_verdicts.json").read_bytes()
    verdicts = {s: [r.as_dict() for r in run_suite(s)] for s in ("oracle", "lemmas", "perturb")}
    assert all(r["passed"] for suite in json.loads(recorded).values() for r in suite)
    assert (json.dumps(verdicts, indent=2) + "\n").encode() == recorded


def test_oracle_suite_green():
    results = run_suite("oracle")
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]


def test_lemmas_suite_green():
    results = run_suite("lemmas")
    assert len(results) >= 8
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_perturb_suite_green():
    results = run_suite("perturb")
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_results_serialize():
    results = run_suite("oracle")
    payload = results[0].as_dict()
    assert set(payload) == {"name", "passed", "detail"}
