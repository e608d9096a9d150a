"""The benchmark workloads and their correctness gates.

A workload runs in passes, and a pass in units: one ``run_experiment`` or
``run_census`` call, or one ``verify`` suite.  A pass is a fixed amount of
work on inputs drawn from ``(workload, --seed, pass index)``, so pass times
are comparable within a run and across commits.  Every pass is gated on
its output:

* at the default seed, pass 0's ``records_to_csv`` text of each group must
  match the sha256 recorded in ``digests.json`` under its schema tag; a
  missing record is a failure too;
* every pass must satisfy the invariants readable from its CSV;
* over the whole run, each simulate group's mean normalized rank must lie
  within 0.01 of ``analytic.min_R(3)`` (acceptance criterion 5), once the
  run holds at least ``GAP_MIN_TRIALS`` trials of the group.

``verify-all`` passes instead count the suites' checks; any failed check
fails the run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

from frozenrank import analytic, harness, verify  # noqa: E402
from frozenrank.harness import ExperimentConfig  # noqa: E402

if not Path(harness.__file__).resolve().is_relative_to(SRC_DIR):
    raise ImportError(f"frozenrank imported from {harness.__file__}, not from {SRC_DIR}")

DEFAULT_SEED = 0
GAP_LIMIT = 0.01  # |mean rank/n - min_R(d)|, acceptance criterion 5
# per-trial rank/n at n=2000 varies by about 0.006, so from 5 trials on a
# 0.01 gap is more than 3.5 standard deviations of the mean
GAP_MIN_TRIALS = 5
CENSUS_P = 8


def pass_seed(workload: str, seed: int, index: int) -> int:
    """Master seed of one pass: a hash of the benchmark's own inputs, so the
    inputs do not change when the program's PRF does."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def load_digests() -> dict:
    with open(BENCH_DIR / "digests.json", encoding="utf-8") as fp:
        return json.load(fp)


@dataclass
class UnitOutput:
    """What one unit produced; filled inside the timed region."""

    key: str
    trials: int = 0  # trials (or suite checks) completed
    csv: str | None = None
    records: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    error: tuple | None = None  # (operations lost, traceback)


def label(cfg: ExperimentConfig) -> str:
    """Key of one config's records: its group, marked when it is a census
    (the F2 census and the F2 simulate group share ``F2+allones``)."""
    return f"census {cfg.group}" if cfg.census else cfg.group


def _failures(outs) -> list[tuple[int, str]]:
    return [o.error for o in outs if o.error is not None]


class Trials:
    """Simulate groups at n=2000, d=3 on one master seed, then one census
    trial at n=300.  Trial i of every group shares its edge support, since a
    trial's streams depend only on (master seed, i).  The trial counts give
    the sampler, dense elimination, the rational proxy and the census each
    a share of a pass well above the run-to-run spread."""

    # (field, template, trials) of each run_experiment call
    GROUPS = (("F2", "allones", 6), ("Fp:2147483647", "random", 2), ("Q", "random", 1))

    def configs(self, seed: int, index: int) -> list[ExperimentConfig]:
        master = pass_seed("trials", seed, index)
        return [ExperimentConfig(n=2000, d=3.0, field=f, trials=t, master_seed=master,
                                 template=tpl) for f, tpl, t in self.GROUPS] + [
            ExperimentConfig(n=300, d=2.0, field="F2", trials=1, master_seed=master,
                             census=True, pert_P=CENSUS_P)]

    def units(self, seed: int, index: int) -> list:
        """The timed units of one pass: the program's own calls and nothing else."""
        return [(label(cfg), lambda cfg=cfg: self._run(cfg))
                for cfg in self.configs(seed, index)]

    @staticmethod
    def _run(cfg: ExperimentConfig) -> UnitOutput:
        out = UnitOutput(label(cfg))
        run = harness.run_census if cfg.census else harness.run_experiment
        try:
            out.records, _ = run(cfg)
            out.csv = harness.records_to_csv(out.records)
        except Exception:  # a failed trial batch is counted, not fatal
            out.error = (cfg.trials, traceback.format_exc())
            return out
        out.trials = len(out.records)
        return out

    def gate_pass(self, outs: list[UnitOutput], seed: int, index: int,
                  digests: dict) -> list[tuple[int, str]]:
        """Failures of one (possibly cut) pass as (operations failed, reason)."""
        failures = _failures(outs)
        by_key = {o.key: o for o in outs}
        supports = []
        for cfg in self.configs(seed, index):
            key = label(cfg)
            out = by_key.get(key)
            if out is None or out.csv is None:
                continue  # not run, or already counted as an error
            tag, _, body = out.csv.partition("\n")
            rows = list(csv.DictReader(io.StringIO(body)))
            problems = [] if len(rows) == cfg.trials else [
                f"{len(rows)} rows for {cfg.trials} trials"]
            for row in rows:
                problems += row_problems(row, cfg.census)
            if seed == DEFAULT_SEED and index == 0:
                recorded = digests.get(tag, {}).get("trials", {}).get(key)
                got = hashlib.sha256(out.csv.encode()).hexdigest()
                if recorded is None:
                    problems.append(f"no sha256 recorded in digests.json for {tag!r} {key!r}")
                elif got != recorded:
                    problems.append(f"CSV sha256 {got} != recorded {recorded}")
            if not cfg.census:
                supports.append([(r["ks_isolated"], r["ks_core_size"]) for r in rows])
            if problems:
                failures.append((cfg.trials, f"{key} pass {index}: {'; '.join(problems)}"))
        # trial i of each field must see the same leaf-removal statistics
        for s in supports[1:]:
            if s != supports[0][:len(s)]:
                failures.append((len(s), f"pass {index}: fields on one seed differ in "
                                         "leaf-removal statistics"))
        return failures

    def gate_run(self, outs: list[UnitOutput]) -> list[tuple[int, str]]:
        """Run-level statistical gate of each simulate group (criterion 5),
        once the run holds enough trials for the mean to be meaningful.
        ``outs`` holds each pass index once."""
        failures = []
        for fld, tpl, _ in self.GROUPS:
            group = f"{fld}+{tpl}"
            records = [r for o in outs if o.key == group for r in o.records]
            if len(records) < GAP_MIN_TRIALS:
                continue
            gap = harness.summarize(records, 3.0).gaps[group]
            if gap > GAP_LIMIT:
                failures.append((len(records), f"{group}: mean rank/n is {gap:.5f} from "
                                               f"min_R(3) = {analytic.min_R(3.0):.6f}, "
                                               f"above {GAP_LIMIT}"))
        return failures


class VerifyAll:
    """The four ``verify`` suites.  The oracle and lemmas suites check exact
    identities and take seeds derived from ``--seed``.  The perturb suite
    keeps its CLI seed: its frequency and chi-square checks have a designed
    false-alarm rate of about 1% per pass at an arbitrary seed, and a false
    alarm would read as a failed run."""

    def units(self, seed: int, index: int) -> list:
        return [(name, lambda name=name, fn=fn: self._run(name, fn)) for name, fn in (
            ("oracle", lambda: verify.run_oracle_suite(seed=pass_seed("oracle", seed, index))),
            ("lemmas", lambda: verify.run_lemmas_suite(seed=pass_seed("lemmas", seed, index))),
            ("perturb", verify.run_perturb_suite),
            ("analytic", verify.run_analytic_suite))]

    @staticmethod
    def _run(name: str, suite) -> UnitOutput:
        out = UnitOutput(name)
        try:
            out.checks = suite()
        except Exception:
            out.error = (1, traceback.format_exc())
        out.trials = len(out.checks)
        return out

    def gate_pass(self, outs: list[UnitOutput], seed: int, index: int,
                  digests: dict) -> list[tuple[int, str]]:
        return _failures(outs) + [(1, f"check failed: {c.name}: {c.detail}")
                                  for o in outs for c in o.checks if not c.passed]

    def gate_run(self, outs: list[UnitOutput]) -> list[tuple[int, str]]:
        return []


WORKLOADS = {"trials": Trials(), "verify-all": VerifyAll()}


def row_problems(row: dict, census: bool) -> list[str]:
    """Invariants one CSV row must satisfy."""
    n, rank, nullity = int(row["n"]), int(row["rank"]), int(row["nullity"])
    iso, core = int(row["ks_isolated"]), int(row["ks_core_size"])
    bad = []
    if rank + nullity != n:
        bad.append("rank + nullity != n")
    if rank > n - iso or iso + core > n:
        bad.append("leaf-removal counts inconsistent with rank")
    if float(row["normalized_rank"]) != rank / n:
        bad.append("normalized_rank != rank / n")
    if census:
        c = {t: int(row[f"count_{t}"]) for t in "xyzuv"}
        if sum(c.values()) != n:
            bad.append("type counts do not sum to n")
        if int(row["frozen_count"]) != c["x"] + c["y"] + c["v"]:
            bad.append("frozen_count != x + y + v")
        if int(row["frozen_count_t"]) != c["x"] + c["y"] + c["u"]:
            bad.append("frozen_count_t != x + y + u")
        if not (1 <= int(row["theta_r"]) <= CENSUS_P and 1 <= int(row["theta_c"]) <= CENSUS_P):
            bad.append("theta outside 1..P")
    return bad


def setup(workload: str, seed: int) -> list:
    """What ``setup_s`` covers beyond the imports above: building the pass-0 units."""
    return WORKLOADS[workload].units(seed, 0)
