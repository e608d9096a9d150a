"""Experiment orchestration: determinism, seeds, censuses, persistence."""

import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from frozenrank import analytic, exactla, harness, randgraph
from frozenrank.errors import ResourceCapError
from frozenrank.exactla import (
    DENSE_CAP,
    RationalRank,
    TypeProfile,
    classify_variable,
    field_array,
    frozen_set,
    rational_rank,
    type_census,
    variable_types,
)
from frozenrank.field import RATIONAL_POOL, FieldSpec
from frozenrank.harness import (
    CSV_SCHEMA_TAG,
    ExperimentConfig,
    TrialRecord,
    _rank_of_core,
    _run_trial,
    records_to_csv,
    run_census,
    run_experiment,
    summarize,
    write_csv_file,
)
from frozenrank.perturb import CoupledFamilies, PerturbationSpec, canonical_perturb
from frozenrank.prf import TAG_PERM, TAG_THETA, TAG_TRIAL, Stream, derive_seed
from frozenrank.randgraph import (
    Graph,
    LeafRemoval,
    karp_sipser,
    leaf_removal,
    sample_graph,
    sample_support,
    sample_T,
)
from test_randgraph import core_graph
from test_rational_matrix import fraction_frozen_set, fraction_rref, sparse_rows


def trial_graph(master_seed: int, index: int, n: int, d: float, field: FieldSpec,
                template: str) -> tuple[int, Graph]:
    """(trial seed, whole weighted graph) of trial ``index``, sampled
    literally: the oracle of the support, its leaf removal and its weights."""
    trial_seed = derive_seed(master_seed, index, TAG_TRIAL)
    return trial_seed, sample_graph(n, d / n,
                                    harness._weight_template(trial_seed, n, field, template),
                                    harness._coupling(trial_seed))


def small_cfg(**overrides):
    base = dict(n=120, d=2.5, field="F2", trials=4, master_seed=99)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(trials=0)
    with pytest.raises(ValueError):
        small_cfg(d=-0.5)
    with pytest.raises(ValueError, match=r"^d must lie in \[0, n\]"):
        small_cfg(d=121.0)  # an edge probability d/n above 1
    assert small_cfg(d=120.0).d == 120.0
    with pytest.raises(ValueError):
        small_cfg(field="F9")
    with pytest.raises(ValueError):
        small_cfg(template="fancy")
    with pytest.raises(ValueError):
        small_cfg(census=True)  # pert_P missing
    # a census is capped by DENSE_CAP alone, over every field
    assert small_cfg(census=True, pert_P=8, n=401).census
    assert small_cfg(census=True, pert_P=8, n=DENSE_CAP, field="Q").census
    for field in ("F2", "Q"):
        with pytest.raises(ResourceCapError):
            small_cfg(n=DENSE_CAP + 1, field=field)
        with pytest.raises(ResourceCapError):
            small_cfg(n=DENSE_CAP + 1, census=True, pert_P=8, field=field)
    # the PRF reads seeds modulo 2^64: -1 and 2^64 would rerun 2^64 - 1 and 0
    for name, seed in itertools.product(("master_seed", "pert_seed"), (-1, 2**64, 2**65 - 1)):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 2\^64\), got {seed}$"):
            small_cfg(**{name: seed})
    assert small_cfg(master_seed=2**64 - 1, pert_seed=2**64 - 1).pert_seed == 2**64 - 1


def test_config_json_roundtrip():
    cfg = ExperimentConfig.from_json(json.dumps(
        {"n": 50, "d": 1.5, "field": "Fp:5", "trials": 2, "master_seed": 7,
         "template": "random", "workers": 2}))
    assert cfg.n == 50 and cfg.template == "random" and cfg.workers == 2
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(json.dumps(
            {"n": 50, "d": 1.5, "field": "F2", "trials": 2, "master_seed": 7, "nope": 1}))
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(json.dumps({"n": 50, "d": 1.5, "field": "F2"}))
    with pytest.raises(ValueError):
        ExperimentConfig.from_json("[1,2]")


def test_run_twice_is_byte_identical(tmp_path):
    cfg = small_cfg(output=str(tmp_path / "a.csv"))
    run_experiment(cfg)
    first = (tmp_path / "a.csv").read_bytes()
    run_experiment(cfg)
    assert (tmp_path / "a.csv").read_bytes() == first
    assert first.decode().splitlines()[0] == CSV_SCHEMA_TAG


def test_workers_do_not_change_output():
    records1, _ = run_experiment(small_cfg())
    records2, _ = run_experiment(small_cfg(workers=2))
    assert records_to_csv(records1) == records_to_csv(records2)


_FORK_AFTER_SAMPLING = """
from dataclasses import replace
from frozenrank import harness, randgraph
randgraph.set_sampler_threads(2)
randgraph.sample_edges(2000, 3 / 2000, randgraph.CouplingSource(0))  # one helper
harness.available_cpus = lambda: 4  # each of two workers samples on two threads
cfg = harness.ExperimentConfig(n=800, d=3.0, field="F2", trials=4, master_seed=3)
one = harness.records_to_csv(harness.run_experiment(cfg)[0])
two = harness.records_to_csv(harness.run_experiment(replace(cfg, workers=2))[0])
assert one == two
print("same")
"""


def test_workers_fork_after_threaded_sampling():
    # the parent has sampled on two threads before the pool forks, and each
    # worker starts a helper at n=800; a sampler thread left alive in the
    # parent would deadlock a worker, hence the timeout, after which the
    # child's whole process group (its workers too) is killed
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    with subprocess.Popen(
            [sys.executable, "-W", "error:This process is multi-threaded:DeprecationWarning",
             "-c", _FORK_AFTER_SAMPLING],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
    assert child.returncode == 0, err
    assert out.strip() == "same"


def _pool_worker_threads() -> int:
    return randgraph._threads


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_workers_share_the_cpus(workers):
    with harness._worker_pool(workers) as pool:
        got = pool.submit(_pool_worker_threads).result(timeout=60)
    assert got == max(1, randgraph.available_cpus() // workers)


@pytest.mark.parametrize("workers, trials, pool",
                         [(4, 1, None), (4, 3, 3), (2, 5, 2), (1, 3, None)])
def test_pool_has_no_more_workers_than_trials(monkeypatch, workers, trials, pool):
    # a pool forks every worker at its first submit, so idle ones would cost
    # a process each and a share of the sampler's CPUs
    sizes = []
    make = harness._worker_pool

    def spy(count):
        sizes.append(count)
        return make(count)

    monkeypatch.setattr(harness, "_worker_pool", spy)
    records, _ = run_experiment(small_cfg(n=40, trials=trials, workers=workers))
    assert len(records) == trials
    assert sizes == ([] if pool is None else [pool])


def test_zero_degree_zero_rank():
    records, summary = run_experiment(small_cfg(d=0.0))
    assert all(r.rank == 0 for r in records)
    assert summary.gaps["F2+allones"] == 0.0
    assert summary.analytic_min_R == 0.0


def test_upper_bound_in_every_record():
    records, _ = run_experiment(small_cfg(trials=6, d=3.0))
    for r in records:
        assert r.rank / r.n <= 1.0 - r.ks_isolated / r.n
        assert r.rank + r.nullity == r.n


def test_record_refuses_exact_arithmetic_bugs():
    # over F2 the adjacency of a simple graph is alternating, so its rank is even
    common = dict(trial_index=0, derived_seed=0, n=10, d=2.0, template="allones",
                  normalized_rank=0.5, ks_isolated=2, ks_core_size=0)
    TrialRecord(field="F2", rank=6, nullity=4, **common)
    TrialRecord(field="Fp:3", rank=5, nullity=5, **common)
    for field in ("F2", "Fp:2"):
        with pytest.raises(ValueError, match="odd rank over F2"):
            TrialRecord(field=field, rank=5, nullity=5, **common)
    with pytest.raises(ValueError, match="upper bound"):
        TrialRecord(field="Fp:3", rank=9, nullity=1, **common)
    with pytest.raises(ValueError, match="rank \\+ nullity"):
        TrialRecord(field="Fp:3", rank=5, nullity=4, **common)


def test_equivalent_field_labels_give_one_csv_and_one_group():
    # "Fp:2" and " F2" name F2: the config stores the canonical label, so the
    # CSV's field column and the summary's group key read "F2"
    texts, groups = set(), set()
    for label in ("Fp:2", " F2", "F2"):
        cfg = small_cfg(field=label, trials=2, d=2.0)
        assert cfg.field == "F2" and cfg.group == "F2+allones"
        records, summary = run_experiment(cfg)
        texts.add(records_to_csv(records))
        groups |= set(summary.groups)
    assert len(texts) == 1 and groups == {"F2+allones"}
    assert ExperimentConfig(n=10, d=1.0, field="Fp:07", trials=1, master_seed=0).field == "Fp:7"


def test_same_support_across_fields():
    # the coupling seed is field-independent, so leaf-removal statistics of
    # paired runs agree trial by trial, each run sampling its own supports
    base, _ = run_experiment(small_cfg(field="F2"))
    for field, template in (("Fp:3", "allones"), ("Fp:5", "random"), ("Q", "random")):
        harness._leaf_removal_of.cache_clear()
        other, _ = run_experiment(small_cfg(field=field, template=template))
        for a, b in zip(base, other):
            assert (a.ks_isolated, a.ks_core_size) == (b.ks_isolated, b.ks_core_size)
            assert a.derived_seed == b.derived_seed


# ------------------------------------------------------------- support memo


def _counted_calls(monkeypatch, *names, module=harness) -> dict:
    """The calls made from now on to each of ``names`` as globals of
    ``module``."""
    calls = {}
    for name in names:
        real, calls[name] = getattr(module, name), []

        def counted(*args, _real=real, _log=calls[name]):
            _log.append(args)
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


_ARRAYS = ("core_vertices", "removed_pairs", "core_i", "core_j", "kept")


def _support_fields(s: LeafRemoval) -> tuple:
    return (s.isolated_count,) + tuple(getattr(s, name).tolist() for name in _ARRAYS)


def _trial_support(master_seed: int, index: int, n: int, d: float) -> LeafRemoval:
    return harness.trial_support(harness.derive_trial_seed(master_seed, index), n, d)


@pytest.mark.parametrize("field,template", [("F2", "allones"), ("Fp:5", "random"),
                                            ("Fp:2147483647", "random"), ("Q", "random"),
                                            ("Q", "allones")])
def test_warm_memo_writes_the_cold_csv(monkeypatch, field, template):
    cfg = small_cfg(n=300, d=3.0, field=field, template=template, trials=5)
    cold = records_to_csv(run_experiment(cfg)[0])
    harness._leaf_removal_of.cache_clear()
    run_experiment(replace(cfg, field="Fp:3", template="random"))  # another field warms it
    calls = _counted_calls(monkeypatch, "sample_support")
    # a support is checked once, when it is sampled: a warm trial ranks the
    # memo's core arrays without checking them again
    checks = _counted_calls(monkeypatch, "_check_support", module=randgraph)
    assert records_to_csv(run_experiment(cfg)[0]) == cold
    assert calls["sample_support"] == checks["_check_support"] == []


@pytest.mark.parametrize("field,template", [("F2", "allones"), ("Fp:2147483647", "random"),
                                            ("Q", "random")])
def test_census_trial_leaf_removes_its_own_sample(monkeypatch, field, template):
    # a census trial leaf-removes the graph it has sampled, once, and neither
    # samples a support nor reads or fills the memo, cold or warm
    cfg = small_cfg(n=150, d=3.0, field=field, template=template, trials=4, pert_P=8)
    cold = records_to_csv(run_census(cfg)[0])
    run_experiment(cfg)
    held = harness._leaf_removal_of.cache_info()
    graphs, calls = [], _counted_calls(monkeypatch, "sample_support", "karp_sipser")
    real = harness.sample_graph

    def sampled(*args):
        graphs.append(real(*args))
        return graphs[-1]

    monkeypatch.setattr(harness, "sample_graph", sampled)
    assert records_to_csv(run_census(cfg)[0]) == cold
    assert calls["sample_support"] == []
    assert [args[0] for args in calls["karp_sipser"]] == graphs
    assert len(graphs) == cfg.trials
    assert harness._leaf_removal_of.cache_info() == held


# sha256 of records_to_csv(run_census(...)) at master seed 0, P = 8, 3 trials
CENSUS_DIGESTS = [
    ("Fp:2147483647", "random", 200, 3.0,
     "c96b5d505b4e8fbc43112858bea70ca5cac8fc8f157b91595aa429215951ea65"),
    ("Q", "random", 120, 3.0,
     "19273d1e56ff9474be0943028d816c918a9f042a1bd9c3f4da9aab99030d37a7"),
    ("Fp:3", "allones", 60, 0.5,
     "8b0d28bf8791f58225a1f147cdb062dba0ddf980aa3e98161dd8646d220612ce"),
]


@pytest.mark.parametrize("field,template,n,d,digest", CENSUS_DIGESTS)
@pytest.mark.parametrize("warm", (False, True))
def test_census_csv_bytes_are_pinned(field, template, n, d, digest, warm):
    cfg = ExperimentConfig(n=n, d=d, field=field, template=template, trials=3,
                           master_seed=0, pert_P=8)
    if warm:
        run_experiment(cfg)  # fills the memo, which the census does not read
    text = records_to_csv(run_census(cfg)[0])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of records_to_csv(run_experiment(...)) at master seed 0, n = 300,
# 4 trials, over the small fields, where the sparse rank's pivots cancel
# most often (the perfbench digests cover F2, F_(2^31-1) and Q random only),
# and at d = 100, where every core fills more than SPARSE_FILL of its area
# and has no vertex of degree 2 or less, so it goes to the dense kernel whole
SIMULATE_DIGESTS = [
    ("Fp:3", "allones", 2.0,
     "228822e9d94afd8175ec52d9c2eedf5237549a8c5bad900731ecce87a70bf871"),
    ("Fp:3", "allones", 3.0,
     "a168eb78a8cc54abf0926f245ead7e7d2a9a68c5afe9dcb4bcc93e1653e669d9"),
    ("Fp:3", "allones", 5.0,
     "5939d6559adb69975da67848187b1dc65ad6cc403a68a9b84cbf8b823e74e07f"),
    ("Fp:3", "random", 2.0,
     "c406b1e47887e0d6b96d937d4c709ab515e996e205d010433d26547f19b30f77"),
    ("Fp:3", "random", 3.0,
     "5ae5b088b5eefa4b2baf73f7115fced10bb978e4e48b5b73f1f7a1dcb0733a62"),
    ("Fp:3", "random", 5.0,
     "bf2f3f7d91e7919168bc62e55a408893a775c56db84aeed93e6b96b250798bb2"),
    ("Fp:5", "allones", 2.0,
     "ea38283f73db6c1049c5f2ca0619c0810b062f689527045b2fe4e34b101fc12e"),
    ("Fp:5", "allones", 3.0,
     "6362884d5162a7f3f4c4e48d9e7052a73395f26770a3a616a500c3b9e3381f64"),
    ("Fp:5", "allones", 5.0,
     "bf59ab8c4b53b17c03e387116dab06b0cdb0b41f9495358d2881f3d6308bfd72"),
    ("Fp:5", "random", 2.0,
     "8ae4d644b084a5119de89174abc906e59ff9dc07b16cdb092fed49c04dc691b8"),
    ("Fp:5", "random", 3.0,
     "9a9337c6f008358c0535eaab47ddcfcffc34000c3deec3663dfa180dee4b78dd"),
    ("Fp:5", "random", 5.0,
     "029a0a800f77f572527e2476440bb4a1f1628e598e9dd7953f34da2a6834aebb"),
    ("Q", "allones", 2.0,
     "5d0d80530ee41852dac79e8d9ba2ecdb4c61a21b0f09a2d1602ac1f0cae82d20"),
    ("Q", "allones", 3.0,
     "6e647ff702b6cf52059d1a5fc2fc377dfd2a54f185cda06f5e96dd2e46739cda"),
    ("Q", "allones", 5.0,
     "a3431cbc754af442a42ebb2b9c64839fce98b33e534ead1bb8ffdfc23c117184"),
    ("Fp:3", "random", 100.0,
     "94908f1349d070fe47cf2b1ac6d5759a4af2d935db79cbda04dccaf161d51cd9"),
    ("Fp:2147483647", "random", 100.0,
     "63030261e3d72641a31e87369a172d796564de9f273f16b9623981d6323a60e3"),
    ("Q", "allones", 100.0,
     "9d2d8414c04ad17847eb99d2f8293c2485e43ffae864a227fb7ed1f961cd5a91"),
]


@pytest.mark.parametrize("field,template,d,digest", SIMULATE_DIGESTS)
def test_simulate_csv_bytes_are_pinned(field, template, d, digest):
    cfg = ExperimentConfig(n=300, d=d, field=field, template=template, trials=4,
                           master_seed=0)
    text = records_to_csv(run_experiment(cfg)[0])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("change", [dict(master_seed=8), dict(index=2), dict(n=260),
                                    dict(d=3.5)])
def test_memo_key_names_every_input_of_the_support(change):
    base = dict(master_seed=7, index=1, n=250, d=3.0)
    first = _trial_support(**base)
    warm = _trial_support(**{**base, **change})
    harness._leaf_removal_of.cache_clear()
    cold = _trial_support(**{**base, **change})
    assert _support_fields(warm) == _support_fields(cold) != _support_fields(first)


def test_memo_keeps_the_most_recently_used_within_its_budget(monkeypatch):
    # an LRU of _MEMO_ENTRIES entries: a lookup samples exactly when the key
    # is not among the last _MEMO_ENTRIES distinct keys used
    size = harness._MEMO_ENTRIES
    calls = _counted_calls(monkeypatch, "sample_support")
    used = []
    for index in [*range(size + 6), size + 5, 10, 0, 5, size + 6, 6, size + 5, 3]:
        key = (harness.derive_trial_seed(5, index), 60, 3.0)
        sampled = len(calls["sample_support"])
        harness.trial_support(*key)
        assert len(calls["sample_support"]) - sampled == (key not in used[-size:])
        used = [k for k in used if k != key] + [key]
        assert harness._leaf_removal_of.cache_info().currsize == min(len(used), size)
    assert len(used) > size  # some were evicted


def test_memo_never_stores_a_support_above_its_budget(monkeypatch):
    # a support is held when n * d is at most _MEMO_ND, and one just above
    # is computed on every call and never held
    n = 2048
    at = harness._MEMO_ND / n
    above = float(np.nextafter(at, np.inf))
    assert n * above > harness._MEMO_ND
    calls = _counted_calls(monkeypatch, "sample_support")
    for d, held in ((at - 0.5, 1), (at, 2), (above, 2), (above, 2), (at, 2)):
        support = harness.trial_support(0, n, d)
        assert _support_fields(support) == \
            _support_fields(leaf_removal(n, *sample_support(n, d / n, harness._coupling(0))))
        assert harness._leaf_removal_of.cache_info().currsize == held
    assert [args[1] for args in calls["sample_support"]] == \
        [(at - 0.5) / n, at / n, above / n, above / n]


def test_memo_entries_are_read_only():
    support = _trial_support(3, 0, 300, 3.0)
    for name in _ARRAYS:
        with pytest.raises(ValueError):
            getattr(support, name)[0] = 0


@pytest.mark.parametrize("n,d", [(1, 0.0), (200, 3.0), (300, 3.0), (2000, 3.0),
                                 (400, 100.0)])
def test_memo_entry_is_the_supports_leaf_removal(n, d):
    # the memo holds leaf_removal's record itself: field by field the same,
    # with vertex ids in the least unsigned type for n and support indices in
    # the least for the support's edge count (test_memo_entries_are_read_only
    # writes to each array); a hit returns that object
    trial_seed = harness.derive_trial_seed(4, 1)
    i, j = sample_support(n, d / n, harness._coupling(trial_seed))
    want = leaf_removal(n, i, j)
    got = harness.trial_support(trial_seed, n, d)
    assert _support_fields(got) == _support_fields(want)
    vertex, index = np.min_scalar_type(n), np.min_scalar_type(i.size)
    for name in _ARRAYS:
        assert getattr(got, name).dtype == (index if name == "kept" else vertex)
    assert got.removed_pairs.shape == (len(got.removed_pairs), 2)
    # a support above the memo's bound (n = 400, d = 100) is computed again
    assert (harness.trial_support(trial_seed, n, d) is got) == (n * d <= harness._MEMO_ND)


def test_threads_on_different_seeds_write_the_sequential_csvs():
    cfgs = [ExperimentConfig(n=800, d=3.0, field=f, template=t, trials=3, master_seed=seed)
            for f, t, seed in (("F2", "allones", 1), ("Q", "random", 2),
                               ("Fp:5", "random", 1), ("Fp:2147483647", "random", 3))]
    sequential = [records_to_csv(run_experiment(cfg)[0]) for cfg in cfgs]
    harness._leaf_removal_of.cache_clear()
    start = threading.Barrier(len(cfgs))
    got = [None] * len(cfgs)

    def run(k: int) -> None:
        start.wait()
        got[k] = records_to_csv(run_experiment(cfgs[k])[0])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(cfgs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == sequential


def test_memo_under_contending_threads():
    # eight threads on more keys than the memo holds, so entries are evicted
    # while others are read: every lookup gives the cold support, and every
    # lookup is counted once, as a hit or a miss
    keys = [(harness.derive_trial_seed(9, index), 60, 3.0)
            for index in range(harness._MEMO_ENTRIES + 16)]
    cold = {key: _support_fields(harness.trial_support(*key)) for key in keys}
    harness._leaf_removal_of.cache_clear()
    wrong, rounds = [], 60

    def run(k: int) -> None:
        for r in range(rounds):
            key = keys[(k * 5 + r * (k + 1)) % len(keys)]
            if _support_fields(harness.trial_support(*key)) != cold[key]:
                wrong.append(key)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    info = harness._leaf_removal_of.cache_info()
    assert info.hits + info.misses == len(threads) * rounds
    assert info.currsize == harness._MEMO_ENTRIES


_FORK_INSIDE_A_MISS = """
import threading
from frozenrank import harness
real, inside, release = harness.sample_support, threading.Event(), threading.Event()

def blocking(n, p, coupling):
    if n == 200:  # only the parent's other thread asks for n = 200
        inside.set()
        release.wait()
    return real(n, p, coupling)

harness.sample_support = blocking
miss = threading.Thread(target=harness.trial_support, args=(2, 200, 3.0))
miss.start()
assert inside.wait(30)
with harness._worker_pool(2) as pool:
    core = pool.submit(harness.trial_support, 1, 100, 3.0).result().core_vertices
release.set()
miss.join(30)
assert not miss.is_alive()
harness.sample_support = real
harness._leaf_removal_of.cache_clear()
assert core.tolist() == harness.trial_support(1, 100, 3.0).core_vertices.tolist()
print("same")
"""


def test_pool_forked_while_a_thread_is_inside_a_miss():
    # a worker forked while another thread of the parent is computing a
    # memo entry must compute its own support rather than wait for that
    # thread, which does not exist in the child; a hang ends at the
    # timeout, after which the child's process group is killed
    src = str(Path(__file__).resolve().parents[1] / "src")
    with subprocess.Popen([sys.executable, "-c", _FORK_INSIDE_A_MISS],
                          env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
    assert child.returncode == 0, err
    assert out.strip() == "same"


def test_trials_pass_samples_each_support_once(monkeypatch):
    # the benchmark's trials pass on one master seed: the F_p and Q groups
    # take their supports from the F2 group's, 6 samples for 9 trials
    calls = _counted_calls(monkeypatch, "sample_support")
    for field, template, trials in (("F2", "allones", 6), ("Fp:2147483647", "random", 2),
                                    ("Q", "random", 1)):
        run_experiment(ExperimentConfig(n=2000, d=3.0, field=field, template=template,
                                        trials=trials, master_seed=17))
    assert len(calls["sample_support"]) == 6
    assert harness._leaf_removal_of.cache_info().hits == 3


def test_pool_after_a_warm_memo_writes_the_same_bytes():
    cfg = small_cfg(field="Fp:5", template="random")
    cold = records_to_csv(run_experiment(cfg)[0])
    harness._leaf_removal_of.cache_clear()
    run_experiment(small_cfg())  # F2 warms every index before the pool forks
    assert records_to_csv(run_experiment(replace(cfg, workers=2))[0]) == cold


@pytest.mark.parametrize("field", ("Fp:2147483647", "Q"))
def test_core_weighted_on_its_edges_is_the_graphs_core(field):
    # a weight is a pure function of (seed, lo, hi), so weighing only the
    # core's edges gives the core of the whole weighted graph
    cfg = ExperimentConfig(n=400, d=3.0, field=field, template="random", trials=1,
                           master_seed=21)
    for index in range(3):
        trial_seed, G = trial_graph(cfg.master_seed, index, cfg.n, cfg.d, cfg.field_spec,
                                    cfg.template)
        core = core_graph(G)
        assert trial_seed == harness.derive_trial_seed(cfg.master_seed, index)
        support = harness.trial_support(trial_seed, cfg.n, cfg.d)
        assert _support_fields(support) == _support_fields(karp_sipser(G))
        v, core_i, core_j = support.core_vertices, support.core_i, support.core_j
        template = harness._weight_template(trial_seed, cfg.n, cfg.field_spec, cfg.template)
        w = template.weights(v[core_i], v[core_j])
        for got, want in ((core_i, core.i), (core_j, core.j), (w, core.w)):
            assert np.array_equal(got, want)
        assert _rank_of_core(cfg.field_spec, v.size, core_i, core_j, w) == _dense_rank(core)


def test_rational_rank_paths():
    # every size reads the rank off the leaf-removal core by the rational
    # route; it must bound the F2 ranks on the same support from above
    # (rational rank >= the rank of any prime reduction)
    small, _ = run_experiment(ExperimentConfig(
        n=40, d=2.0, field="Q", trials=2, master_seed=5, template="random"))
    big, _ = run_experiment(ExperimentConfig(
        n=120, d=2.0, field="Q", trials=2, master_seed=5, template="random"))
    gf2, _ = run_experiment(ExperimentConfig(
        n=120, d=2.0, field="F2", trials=2, master_seed=5))
    for q_rec, f_rec in zip(big, gf2):
        assert q_rec.rank >= f_rec.rank
    assert all(r.rank + r.nullity == r.n for r in small + big)


def test_summary_statistics():
    records, summary = run_experiment(small_cfg(trials=5, d=3.0))
    stats = summary.groups["F2+allones"]
    assert stats.count == 5
    mean = sum(r.normalized_rank for r in records) / 5
    assert abs(stats.mean_normalized_rank - mean) < 1e-15
    assert abs(summary.gaps["F2+allones"]
               - abs(mean - analytic.min_R(3.0))) < 1e-15
    text = summary.to_json()
    assert json.loads(text)["groups"]["F2+allones"]["count"] == 5


def test_summary_pairwise_gaps():
    a, _ = run_experiment(small_cfg(trials=3, field="F2"))
    b, _ = run_experiment(small_cfg(trials=3, field="Fp:3"))
    summary = summarize(a + b, 2.5)
    assert ("F2+allones", "Fp:3+allones") in summary.pairwise_gaps


def test_census_records_and_identities():
    cfg = ExperimentConfig(n=80, d=2.0, field="F2", trials=3, master_seed=11,
                           census=True, pert_P=8)
    records, summary = run_census(cfg)
    assert len(records) == 3
    for r in records:
        prof = r.census
        assert prof is not None and prof.n == 80
        assert 1 <= r.theta[0] <= 8 and 1 <= r.theta[1] <= 8
        # the frozen counts are those of the perturbed matrix and its transpose
        M = _census_matrix(cfg, r.trial_index)
        assert prof.frozen_count == sum(j < 80 for j in frozen_set(M))
        assert prof.frozen_count_t == sum(j < 80 for j in frozen_set(M.transpose()))
    cs = summary.census
    assert cs is not None and cs.trials == 3
    for value in (cs.mean_residual_y, cs.mean_residual_u, cs.mean_residual_v,
                  cs.max_deficit_z):
        assert 0.0 <= value <= 1.0


def test_census_ks_stats_are_those_of_T():
    # the census reads its rank and leaf-removal statistics off the
    # unrelabelled graph's core; they must equal those of the relabelled T
    # itself, from an empty core (d = 0.5) to one holding most vertices (d = 5)
    cases = [("Fp:5", "random", 60, 2.0)] + [
        (field, template, n, d)
        for field, template, n in (("F2", "allones", 60), ("Fp:3", "random", 60),
                                   ("Fp:2147483647", "random", 60), ("Q", "random", 40))
        for d in (0.5, math.e, 5.0)]
    for field, template, n, d in cases:
        cfg = ExperimentConfig(n=n, d=d, field=field, template=template, trials=3,
                               master_seed=21, census=True, pert_P=8)
        records, _ = run_census(cfg)
        for r in records:
            _, T = _census_T(cfg, r.trial_index)
            assert T.rank() == r.rank
            support = tuple((i, j, T.entry(i, j)) for i in range(n)
                            for j in range(i + 1, n) if T.entry(i, j) != 0)
            ks = karp_sipser(Graph.from_edges(n, cfg.field_spec, support))
            assert (ks.isolated_count, len(ks.core_vertices)) == (r.ks_isolated, r.ks_core_size)


def test_census_via_run_experiment_flag():
    cfg = ExperimentConfig(n=40, d=1.0, field="F2", trials=2, master_seed=3,
                           census=True, pert_P=4)
    records, _ = run_experiment(cfg)
    assert all(r.census is not None for r in records)


def test_census_zero_degree_types():
    # with no edges, the only non-Z variables among the census range are the
    # unit-row targets (frozen, type V/Y) and the unit-column targets (firmly
    # frozen in the transpose only, type U)
    from frozenrank.exactla import Matrix, type_census
    from frozenrank.field import RATIONAL_POOL, FieldSpec
    from frozenrank.perturb import CoupledFamilies, PerturbationSpec, canonical_perturb

    F2 = FieldSpec.prime(2)
    fams = CoupledFamilies.from_seed(42)
    A = Matrix.zeros(F2, 6, 6)

    prof = type_census(canonical_perturb(A, PerturbationSpec(0, 2, P=8), fams), 6)
    hit_rows = {fams.cols.index(k, 6) for k in range(2)}
    assert prof.count_u == len(hit_rows)
    assert prof.count_z == 6 - len(hit_rows)
    assert prof.count_x == prof.count_y == prof.count_v == 0

    prof = type_census(canonical_perturb(A, PerturbationSpec(2, 0, P=8), fams), 6)
    hit_cols = {fams.rows.index(k, 6) for k in range(2)}
    assert prof.count_v == len(hit_cols)
    assert prof.count_z == 6 - len(hit_cols)
    assert prof.frozen_count == len(hit_cols)


def test_census_pert_seed_changes_only_perturbation():
    base = ExperimentConfig(n=40, d=1.0, field="F2", trials=3, master_seed=3,
                            census=True, pert_P=8)
    reseeded = ExperimentConfig(n=40, d=1.0, field="F2", trials=3, master_seed=3,
                                census=True, pert_P=8, pert_seed=999)
    a, _ = run_census(base)
    b, _ = run_census(reseeded)
    # the underlying matrices are unchanged (same master seed)...
    assert [r.rank for r in a] == [r.rank for r in b]
    assert [r.ks_isolated for r in a] == [r.ks_isolated for r in b]
    # ...but the perturbation draw responds to the dedicated seed
    assert [r.theta for r in a] != [r.theta for r in b]


def test_census_csv_columns():
    cfg = ExperimentConfig(n=40, d=1.0, field="F2", trials=2, master_seed=3,
                           census=True, pert_P=4)
    records, _ = run_census(cfg)
    text = records_to_csv(records)
    header = text.splitlines()[1].split(",")
    for col in ("theta_r", "theta_c", "count_x", "alpha", "alpha_hat"):
        assert col in header


def test_elapsed_not_serialized():
    records, _ = run_experiment(small_cfg(trials=2))
    assert all(r.elapsed_ms > 0.0 for r in records)
    assert "elapsed" not in records_to_csv(records)


def test_write_csv_failure_names_path(tmp_path):
    records, _ = run_experiment(small_cfg(trials=1))
    target = tmp_path / "missing" / "out.csv"
    with pytest.raises(OSError) as err:
        write_csv_file(records, str(target))
    assert "out.csv" in str(err.value)


def _trial_graph(cfg: ExperimentConfig, index: int) -> Graph:
    """The graph that trial ``index`` samples."""
    return trial_graph(cfg.master_seed, index, cfg.n, cfg.d, cfg.field_spec, cfg.template)[1]


def _census_T(cfg: ExperimentConfig, index: int):
    """(trial seed, relabelled matrix T) of census trial ``index``."""
    trial_seed, G = trial_graph(cfg.master_seed, index, cfg.n, cfg.d, cfg.field_spec,
                                cfg.template)
    return trial_seed, sample_T(G, cfg.n, perm_seed=derive_seed(trial_seed, 0, TAG_PERM))


def _census_matrix(cfg: ExperimentConfig, index: int):
    """The perturbed matrix that a census trial of ``_run_trial`` types, built the
    same way."""
    trial_seed, T = _census_T(cfg, index)
    theta = PerturbationSpec.draw(cfg.pert_P, derive_seed(trial_seed, 0, TAG_THETA))
    return canonical_perturb(T, theta, CoupledFamilies.from_seed(trial_seed))


@pytest.mark.parametrize("field,n", [("F2", 20), ("F2", 60), ("Fp:3", 20), ("Fp:3", 60),
                                     ("Fp:2147483647", 20), ("Fp:2147483647", 60),
                                     ("Q", 20)])
def test_census_matches_per_variable_classification(field, n):
    cfg = ExperimentConfig(n=n, d=2.718, field=field, template="random", trials=1,
                           master_seed=5, census=True, pert_P=8)
    M = _census_matrix(cfg, 0)
    types = variable_types(M, n)
    assert types == tuple(classify_variable(M, i) for i in range(n))
    assert run_census(cfg)[0][0].census == type_census(M, census_size=n) \
        == TypeProfile.tally(types)


@pytest.mark.parametrize("n,seed,stride", [(100, 3, 1), (300, 0, 8)])
def test_rational_census_above_64_matches_the_fraction_oracle(n, seed, stride):
    # the types from frozen sets of A, A^T and A minus row i, each by
    # Gauss-Jordan on Fractions; a variable frozen on both sides is X or Y
    # as deleting its row unfreezes it or not (frailness is
    # transpose-symmetric); at n = 300 every 8th of those is checked
    cfg = ExperimentConfig(n=n, d=2.718, field="Q", template="random", trials=1,
                           master_seed=seed, census=True, pert_P=8)
    M = _census_matrix(cfg, 0)
    rows = sparse_rows(M.to_values())
    fa = fraction_frozen_set(rows, M.n)
    fat = fraction_frozen_set(sparse_rows(M.transpose().to_values()), M.m)
    got = variable_types(M, n)
    both = [i for i in range(n) if i in fa and i in fat]
    assert [got[i] for i in range(n) if i not in both] == \
        [("V" if i in fa else "U" if i in fat else "Z") for i in range(n) if i not in both]
    checked = [got[i] for i in both[::stride]]
    assert checked == ["Y" if i in fraction_frozen_set(rows[:i] + rows[i + 1:], M.n) else "X"
                       for i in both[::stride]]
    assert {"X", "Y"} <= set(checked) and {"U", "V", "Z"} <= set(got)


# ------------------------------------------- rank from the leaf-removal core

def _dense_array(G: Graph) -> np.ndarray:
    """The adjacency of ``G`` as a writable array in the storage of
    ``field_array``."""
    M = field_array(G.field, np.zeros((G.n, G.n), dtype=np.uint8))
    for i, j, w in G.edges:
        M[i, j] = M[j, i] = w
    return M


def _dense_rank(G: Graph) -> int:
    """Rank of the adjacency of ``G`` by one dense elimination of the whole
    matrix, Gauss-Jordan on Fractions over Q: the reference for the
    leaf-removal and rational routes."""
    if G.field.kind == "rationals":
        return len(fraction_rref(sparse_rows(_dense_array(G).tolist()), G.n)[0])
    return len(exactla._dense_kernel(_dense_array(G), G.field.p, back=False)[0])


# d < 1 and d = 1 leave an empty core; at d = 5 the core holds most vertices
ORACLE_DEGREES = (0.5, 1.0, math.e, 3.0, 5.0)
ORACLE_FIELDS = (("F2", "allones", 200), ("Fp:3", "random", 200),
                 ("Fp:2147483647", "allones", 200), ("Fp:2147483647", "random", 200),
                 ("Q", "random", 70), ("Q", "allones", 40))


@pytest.mark.parametrize("field,template,n", ORACLE_FIELDS)
@pytest.mark.parametrize("d", ORACLE_DEGREES)
def test_trial_rank_matches_dense_oracle(field, template, n, d):
    # Q at n > 64 is checked against exact elimination of the whole graph;
    # the rational route on cores above 64 is pinned just below
    cfg = ExperimentConfig(n=n, d=d, field=field, template=template, trials=1,
                           master_seed=7)
    G = _trial_graph(cfg, 0)
    assert _run_trial(cfg, 0).rank == _dense_rank(G)


# the first primes of the rational route, largest first
PRIMES = (2147483647, 2147483629, 2147483587)


@pytest.mark.parametrize("template", ("random", "allones"))
def test_rational_core_rank_matches_exact_oracle(template):
    cfg = ExperimentConfig(n=90, d=5.0, field="Q", template=template, trials=2,
                           master_seed=7)
    for index in range(cfg.trials):
        G = _trial_graph(cfg, index)
        core = core_graph(G)
        assert core.n > 64
        # full rank at the first prime: one elimination settles it
        assert rational_rank(core.n, core.i, core.j, core.w) == \
            RationalRank(core.n, "full", PRIMES[:1])
        assert _run_trial(cfg, index).rank == _dense_rank(G)


def _cycle(weights) -> Graph:
    """The cycle 0-1-...-(n-1)-0 with weight weights[k] on edge (k, k+1 mod n).
    For n = 4m its determinant is (a - b)^2, where a and b are the weight
    products of the even and the odd edges (its two perfect matchings), and
    the rank is n - 2 exactly when a = b."""
    n = len(weights)
    return Graph.from_edges(n, FieldSpec.rationals(),
                            tuple((k, k + 1, Fraction(weights[k])) for k in range(n - 1))
                            + ((0, n - 1, Fraction(weights[-1])),))


def _route(G: Graph) -> RationalRank:
    """The rational route on ``G``, which must be its own leaf-removal core,
    checked against exact elimination of the whole graph."""
    ks = karp_sipser(G)
    assert ks.core_vertices.tolist() == list(range(G.n))
    got = rational_rank(G.n, G.i, G.j, G.w)
    core = core_graph(G)
    assert _rank_of_core(core.field, core.n, core.i, core.j, core.w) == got.rank == \
        _dense_rank(G)
    return got


def test_rational_rank_reduces_fractions_exactly():
    # a = b = 1 over Q, and they stay equal modulo a prime only if 1/2 is
    # reduced to the true inverse of 2; the kernel vectors have entries in
    # {0, +-1, +-2, +-1/2}, so one prime lifts them
    weights = [1] * 68
    weights[0], weights[2] = Fraction(1, 2), 2
    assert _route(_cycle(weights)) == RationalRank(66, "lift", PRIMES[:1])


def test_rational_rank_above_the_first_primes_rank():
    # a = 2^31 and b = 1: det = (2^31 - 1)^2 is nonzero over Q and zero modulo
    # the first prime, whose kernel then fails the exact check in the lift;
    # the second prime has full rank
    weights = [1] * 68
    weights[0] = 2 ** 31
    assert _route(_cycle(weights)) == RationalRank(68, "lift", PRIMES[:2])


def _sparse_primes(monkeypatch) -> list[int]:
    """The primes that rational_rank hands to sparse_rank from now on."""
    ranked = []
    sparse = exactla.sparse_rank

    def counted(n, i, j, w, p):
        ranked.append(p)
        return sparse(n, i, j, w, p)

    monkeypatch.setattr(exactla, "sparse_rank", counted)
    return ranked


def test_rational_rank_skips_a_prime_dividing_a_denominator(monkeypatch):
    # a = b = 1 with a weight 1/p for the first prime p, which the sparse rank
    # skips; the lift clears denominators row by row and skips no prime
    ranked = _sparse_primes(monkeypatch)
    weights = [1] * 68
    weights[0], weights[2] = Fraction(1, PRIMES[0]), PRIMES[0]
    got = _route(_cycle(weights))
    assert set(ranked) == {PRIMES[1]}  # _route calls rational_rank twice
    assert got.rank == 66 and got.exit == "lift" and got.primes[0] == PRIMES[0]


def test_rational_rank_lifts_large_kernel_entries_over_several_primes():
    # a = b = 10^5 through two adjacent edges: kernel entries reach 10^5,
    # beyond the reconstruction bound of one prime (about 3.3e4)
    weights = [1] * 68
    weights[1] = weights[2] = 10 ** 5
    G = _cycle(weights)
    # the kernel entries are 1 and the negated free-column entries of the RREF
    R = fraction_rref(sparse_rows(_dense_array(G).tolist()), G.n)[1]
    assert max(abs(x.numerator) + x.denominator for row in R for x in row.values()) > 33000
    got = _route(G)
    assert got.exit == "lift" and got.rank == 66 and len(got.primes) > 1


@pytest.mark.parametrize("heavy", (1, 10 ** 5))
def test_rational_rank_ranks_one_prime_then_lifts(monkeypatch, heavy):
    # rank-deficient cores: the all-ones 68-cycle lifts from one prime, the
    # 10^5-weight one over several; the core is ranked from its edges modulo
    # one prime, and the lift then reduces each of its primes to the RREF
    # once, in one dense array
    ranked = _sparse_primes(monkeypatch)
    reduced = []
    kernel = exactla._dense_kernel

    def counted(M, p, back):
        assert M.shape == (68, 68) and back
        reduced.append(p)
        return kernel(M, p, back)

    monkeypatch.setattr(exactla, "_dense_kernel", counted)
    weights = [1] * 68
    weights[1] = weights[2] = heavy
    G = _cycle(weights)
    got = rational_rank(68, G.i, G.j, G.w)
    assert got.exit == "lift" and got.rank == 66
    assert len(got.primes) > 1 if heavy > 1 else got.primes == PRIMES[:1]
    assert ranked == [PRIMES[0]] and reduced == list(got.primes)


def test_rational_rank_lifts_the_four_cycle_from_one_prime():
    # a 4-cycle with a = b has rank 2, and its RREF lifts from one prime; so
    # does the zero matrix, while n = 0 is full rank
    assert _route(_cycle([1, 1, 1, 1])) == RationalRank(2, "lift", PRIMES[:1])
    for n, how in ((3, "lift"), (0, "full")):
        G = Graph.from_edges(n, FieldSpec.rationals(), ())
        assert rational_rank(n, G.i, G.j, G.w) == RationalRank(0, how, PRIMES[:1])


@pytest.mark.parametrize("seed", range(12))
def test_rational_rank_matches_fraction_elimination(seed):
    # random symmetric rational matrices, sparse enough to be rank deficient
    # often, all-ones at even seeds; these seeds reach both exits
    stream = Stream(seed)
    n = 2 + stream.randbelow(40)
    pool = (Fraction(1),) if seed % 2 == 0 else RATIONAL_POOL + (Fraction(7, 5),)
    edges = tuple((i, j, pool[stream.randbelow(len(pool))])
                  for i in range(n) for j in range(i + 1, n) if stream.randbelow(n) < 2)
    G = Graph.from_edges(n, FieldSpec.rationals(), edges)
    assert rational_rank(n, G.i, G.j, G.w).rank == _dense_rank(G)


@pytest.mark.parametrize("field", ("F2", "Fp:3", "Fp:2147483647", "Q"))
def test_trial_rank_degenerate_graphs(field):
    one = _run_trial(ExperimentConfig(n=1, d=0.5, field=field, trials=1, master_seed=1), 0)
    assert (one.rank, one.nullity, one.ks_isolated) == (0, 1, 1)
    empty = _run_trial(ExperimentConfig(n=90, d=0.0, field=field, trials=1, master_seed=1), 0)
    assert (empty.rank, empty.ks_isolated, empty.ks_core_size) == (0, 90, 0)


@pytest.mark.parametrize("field", ("F2", "Fp:2147483647", "Q"))
def test_trial_builds_no_matrix_beyond_the_core(monkeypatch, field):
    built = []
    init = exactla.Matrix.__init__

    def recorded(self, field, a):
        built.append(a.shape)
        init(self, field, a)

    monkeypatch.setattr(exactla.Matrix, "__init__", recorded)
    blocks = []
    dense = exactla._dense_kernel

    def block(M, p, back):
        blocks.append(M.shape[0])
        return dense(M, p, back)

    monkeypatch.setattr(exactla, "_dense_kernel", block)
    for d in (0.5, 3.0, 5.0):
        cfg = ExperimentConfig(n=150, d=d, field=field, template="random", trials=1,
                               master_seed=3)
        built.clear()
        blocks.clear()
        record = _run_trial(cfg, 0)
        ks = karp_sipser(_trial_graph(cfg, 0))
        core = len(ks.core_vertices)
        assert record.ks_core_size == core
        # every core is ranked from its edges, never in a Matrix; over a
        # prime field the only dense array is the block the sparse phase
        # leaves, smaller than the core, unless the core is dense already
        assert built == []
        if field != "Q" and 2 * ks.core_i.size <= exactla.SPARSE_FILL * core ** 2:
            assert all(rows < core for rows in blocks)
