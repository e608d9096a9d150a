"""Tests of the benchmark's own span recorder and gates.

    python3 -m pytest -q perfbench
"""

import signal
import statistics
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from frozenrank import harness, prf, randgraph  # noqa: E402
from frozenrank.exactla import Matrix  # noqa: E402
from frozenrank.field import FieldSpec  # noqa: E402


def test_self_time_on_nested_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.leaf", 2.0, 3.0, 1, None],
        ["b", 5.0, 7.0, 0, None],
        ["c", 6.0, 8.0, 0, None],  # overlaps b: the union [5, 8] counts once
        ["d", 9.5, 11.0, 0, None],  # runs past its parent: clipped at 10
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx([10 - 3 - 3 - 0.5, 2.0, 1.0, 2.0, 2.0, 1.5])


def _entry_points():
    """(holder, attribute) -> object for every traced entry point."""
    found = {}
    for target in spans.SPAN_TARGETS + spans.COUNT_TARGETS:
        owner, attr, orig = spans._resolve(target)
        holders = [owner] if owner is not None else spans._holders(attr, orig)
        for h in holders:
            found[(h.__name__, attr)] = h.__dict__[attr]
    return found


def test_untraced_run_sees_the_original_functions():
    originals = _entry_points()
    assert ("frozenrank.harness", "sample_graph") in originals
    assert ("frozenrank.randgraph", "sample_graph") in originals
    tracer = spans.Tracer()
    with spans.Installed(tracer):
        assert harness.sample_graph is not originals[("frozenrank.harness", "sample_graph")]
        assert randgraph.sample_graph is harness.sample_graph
        assert "exactla.Matrix.init" in spans.wrapped_entry_points()
    assert spans.wrapped_entry_points() == []
    assert _entry_points() == originals
    assert Matrix.__dict__["rank"] is originals[("Matrix", "rank")]
    assert prf.prf is originals[("frozenrank.prf", "prf")]


def test_traced_calls_nest_and_count():
    tracer = spans.Tracer()
    cfg = harness.ExperimentConfig(n=60, d=3.0, field="F2", trials=2, master_seed=5)
    with spans.Installed(tracer):
        harness.run_experiment(cfg)
    names = [rec[0] for rec in tracer.spans]
    assert names[0] == "harness.run_experiment"
    assert tracer.spans[0][4] == {"group": "F2+allones"}
    rows = [rec for rec in tracer.spans if rec[0] == "prf.prf_array"]
    assert len(rows) == 2 * (cfg.n - 1)
    assert all(names[rec[3]] == "randgraph.sample_graph" for rec in rows)
    m = spans.layer_metrics(tracer, passes=1, traced_wall=1.0, untraced_wall=1.0)
    assert m["randgraph.sample_graph.calls"] == 2
    assert m["prf.prf_array.elems"] == 2 * cfg.n * (cfg.n - 1) / 2
    assert 0 < m["randgraph.edges"] < m["prf.prf_array.elems"]
    assert m["randgraph.sample.useful_ratio"] == m["randgraph.edges"] / m["prf.prf_array.elems"]
    assert m["exactla.Matrix.rank.cells"] == 2 * cfg.n * cfg.n
    assert m["prf.prf.calls"] > 0
    assert set(m) == set(spans.per_layer_units())


def test_rank_cells_count_only_eliminations():
    tracer = spans.Tracer()
    A = Matrix.identity(FieldSpec.prime(3), 4)
    with spans.Installed(tracer):
        A.rank()
        A.rank()  # cached: a call, but no cells
    m = spans.layer_metrics(tracer, passes=1, traced_wall=1.0, untraced_wall=1.0)
    assert m["exactla.Matrix.rank.calls"] == 2
    assert m["exactla.Matrix.rank.cells"] == 16


@pytest.fixture(scope="module")
def trials_pass0():
    """Unit outputs of pass 0 of ``trials`` at the default seed."""
    w = workloads.WORKLOADS["trials"]
    return [unit() for _, unit in w.units(workloads.DEFAULT_SEED, 0)]


def _gate_pass0(outs, digests):
    return workloads.WORKLOADS["trials"].gate_pass(outs, workloads.DEFAULT_SEED, 0, digests)


def test_digest_mismatch_fails_the_pass(trials_pass0):
    digests = workloads.load_digests()
    assert _gate_pass0(trials_pass0, digests) == []
    census = trials_pass0[-1]
    assert census.key == "census F2+allones"
    forged = workloads.UnitOutput(census.key, census.trials,
                                  census.csv.replace("\n0,", "\n0,1", 1), census.records)
    failures = _gate_pass0(trials_pass0[:-1] + [forged], digests)
    assert failures and "sha256" in failures[0][1]


def test_missing_digest_fails_the_pass(trials_pass0):
    digests = workloads.load_digests()
    unknown = {"#frozenrank-v0": next(iter(digests.values()))}
    failures = _gate_pass0(trials_pass0, unknown)
    assert len(failures) == len(trials_pass0)
    assert all("no sha256 recorded" in reason for _, reason in failures)
    del digests["#frozenrank-v1"]["trials"]["Q+random"]
    assert [r for _, r in _gate_pass0(trials_pass0, digests)] == [
        "Q+random pass 0: no sha256 recorded in digests.json for '#frozenrank-v1' 'Q+random'"]


def test_traced_passes_do_not_feed_the_run_gate():
    run = bench_run.Run(workloads, "verify-all", 0)
    outs = [workloads.UnitOutput("analytic", trials=3)]
    run.gate_pass(outs, 0, run_level=False)
    assert run.attempted == 3 and run.gated_outputs == []
    run.gate_pass(outs, 0)
    assert run.gated_outputs == outs


def test_host_speed_scales_by_the_reference_loop():
    before = signal.getsignal(signal.SIGALRM)
    with bench_run.HostSpeed() as host:
        out, wall, norm = host.timed(lambda: sum(i * i for i in range(2_000_000)))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert out > 0 and len(host.samples) >= 5
    ref = statistics.median(host.samples)
    net = wall - host.spent
    scale = (bench_run.REF_NOMINAL_S / ref) ** bench_run.REF_EXPONENT
    assert norm == pytest.approx(net * scale, rel=0.05)


def test_census_row_identities():
    row = {"n": "10", "rank": "6", "nullity": "4", "normalized_rank": "0.6",
           "ks_isolated": "2", "ks_core_size": "3", "theta_r": "1", "theta_c": "8",
           "count_x": "1", "count_y": "2", "count_z": "3", "count_u": "2", "count_v": "2",
           "frozen_count": "5", "frozen_count_t": "5"}
    assert workloads.row_problems(row, census=True) == []
    row["frozen_count_t"] = "4"
    assert workloads.row_problems(row, census=True) == ["frozen_count_t != x + y + u"]
