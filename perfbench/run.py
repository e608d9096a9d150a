"""frozenrank benchmark: one workload per invocation.

    python3 perfbench/run.py --workload trials --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
measured with no wrapper installed; pass times are scaled to a reference
host speed (see ``HostSpeed``), and the raw times are printed beside
them.  With ``--trace 1`` it alternates untraced and traced passes on the
same inputs, reports the per-layer metrics, and writes the spans (JSONL)
and, for ``trials``, the ROADMAP baseline table under ``perfbench/out/``.
The last line of standard output is the JSON result; the exit code is 1
when any output failed its gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
# end-to-end metrics in the result, and the raw times they are scaled from
END_TO_END = {"norm_wall_s": "s", "norm_trials_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
RAW_TIMES = {"wall_s": "s", "trials_per_s": "1/s"}
REF_LOOP = 400  # iterations of the host reference loop, about 40 us warm
REF_PERIOD_S = 0.01
REF_NOMINAL_S = 40e-6
# a unit's time grows as the loop's time to this power when the host slows:
# the best fit over 30 runs of each workload (see README.md)
REF_EXPONENT = 1.25

# one child interpreter: the imports and config every CLI call pays for
_SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]\n"
    "import numpy, scipy, frozenrank, workloads\n"
    "workloads.setup({workload!r}, {seed!r})\n"
    "print('ready', flush=True)\n"
)


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter until it has imported
    the program and built the workload config; one unmeasured warm-up
    first so the byte-code cache is written.  Not scaled to the host speed:
    scaling by the loop timed in the probe's own interpreter made the
    spread wider, not narrower."""
    code = _SETUP_CODE.format(src=str(SRC_DIR), bench=str(BENCH_DIR),
                              workload=workload, seed=seed)
    times = []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("setup probe failed")
        if k:
            times.append(elapsed)
    return statistics.median(times)


def cpu_jiffies():
    """(steal, total) from the first line of /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fp:
            vals = [int(v) for v in fp.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return vals[7] if len(vals) > 7 else 0, sum(vals[:8])


def git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    repository (benchmark checkouts are plain trees)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(steal_frac) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "steal_frac": steal_frac,
    }


class Run:
    """Units and passes of one workload, their gates and failure tally."""

    def __init__(self, workloads, name: str, seed: int):
        self.w = workloads.WORKLOADS[name]
        self.seed = seed
        self.digests = workloads.load_digests()
        self.gated_outputs = []  # each pass index once, for the run-level gate
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def gate_pass(self, outs, index: int, run_level: bool = True) -> None:
        self.attempted += sum(o.trials + (o.error[0] if o.error else 0) for o in outs)
        self._fail(self.w.gate_pass(outs, self.seed, index, self.digests))
        if run_level:
            self.gated_outputs += outs

    def run_pass(self, index: int) -> tuple[float, list]:
        """Run a whole pass; its wall time and unit outputs."""
        start = time.perf_counter()
        outs = [unit() for _, unit in self.w.units(self.seed, index)]
        wall = time.perf_counter() - start
        return wall, outs

    def finish(self) -> None:
        self._fail(self.w.gate_run(self.gated_outputs))
        self.failed = min(self.failed, self.attempted)

    def _fail(self, failures) -> None:
        for n, reason in failures:
            self.failed += n
            self.reasons.append(reason)


def _ref_loop() -> None:
    acc = 0
    for i in range(REF_LOOP):
        acc = (acc * 3 + i) & 0xFFFF


class HostSpeed:
    """Samples the speed of the host while the timed units run.  Every
    ``REF_PERIOD_S`` of wall time a SIGALRM handler runs ``_ref_loop``, a
    fixed pure-Python loop that calls nothing of the program, twice, and
    times the second run, whose caches the first has warmed: the sample
    then does not depend on what the program left in them.  On a shared
    virtual machine the same code runs up to 1.5x slower for minutes at a
    time; the loop slows with it, so a unit's time scaled by
    (``REF_NOMINAL_S`` over the loop's median time in that unit) to the
    power ``REF_EXPONENT`` reads what the unit would take on a host where
    the loop takes ``REF_NOMINAL_S``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the handler

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _ref_loop()
        warm = time.perf_counter()
        _ref_loop()
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.spent += end - start

    def __enter__(self):
        self._prev = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._prev)

    def timed(self, unit):
        """Run ``unit``; its output, wall time, and the time it would take
        at the reference speed, sampling time excluded."""
        first, spent = len(self.samples), self.spent
        start = time.perf_counter()
        out = unit()
        wall = time.perf_counter() - start
        # the median: a sample the scheduler preempted reads many times longer
        ref = statistics.median(self.samples[first:] or self.samples or [REF_NOMINAL_S])
        return out, wall, (wall - (self.spent - spent)) * (REF_NOMINAL_S / ref) ** REF_EXPONENT


def _time_left(start: float, seconds: float, expected: float) -> bool:
    """Whether a unit expected to take ``expected`` seconds fits: it may end
    at most half its length after ``seconds``."""
    return time.perf_counter() - start + 0.5 * expected < seconds


def _check_untraced(spans) -> None:
    wrapped = spans.wrapped_entry_points()
    if wrapped:
        raise RuntimeError(f"trace wrappers still installed before an untraced pass: {wrapped}")


def run_untraced(run: Run, seconds: float, spans) -> dict:
    """End-to-end metrics from units timed one by one.  Pass 0 always runs
    whole; after it, units run while they fit in ``seconds``, so the run
    ends at a unit boundary and a cut pass is gated on the units it ran.
    Times and throughput are per whole pass: sums over unit kinds of their
    mean time and mean trials, so a cut pass does not change the mix.
    Means, not medians: the mean follows the share of time spent at each
    host speed, where the median jumps between them."""
    _check_untraced(spans)
    walls, norms, trials = {}, {}, {}
    index = 0
    start = time.perf_counter()
    with HostSpeed() as host:
        while True:
            outs = []
            for key, unit in run.w.units(run.seed, index):
                if index and not _time_left(start, seconds, statistics.fmean(walls[key])):
                    break
                out, wall, norm = host.timed(unit)
                outs.append(out)
                walls.setdefault(key, []).append(wall)
                norms.setdefault(key, []).append(norm)
                trials.setdefault(key, []).append(out.trials)
            if not outs:
                break
            run.gate_pass(outs, index)
            index += 1
        ref_us = [1e6 * f(host.samples) for f in (statistics.median, statistics.fmean)]
    for key, ws in walls.items():
        print(f"unit {key}: n={len(ws)} wall_s " + " ".join(f"{w:.3f}" for w in ws)
              + " norm_s " + " ".join(f"{w:.3f}" for w in norms[key]))
    print(f"host reference loop: median {ref_us[0]:.2f} us, mean {ref_us[1]:.2f} us "
          f"over {len(host.samples)} samples (nominal {1e6 * REF_NOMINAL_S:.0f} us)")
    per_pass = sum(map(statistics.fmean, trials.values()))
    wall_s = sum(map(statistics.fmean, walls.values()))
    norm_wall_s = sum(map(statistics.fmean, norms.values()))
    return {"wall_s": wall_s, "trials_per_s": per_pass / wall_s,
            "norm_wall_s": norm_wall_s, "norm_trials_per_s": per_pass / norm_wall_s}


def run_traced(run: Run, seconds: float, spans, workload: str) -> dict:
    """Untraced and traced passes alternate on the same inputs, so the
    traced-to-untraced wall ratio is the tracing overhead.  Only the
    untraced pass of a pair feeds the run-level gate, so no trial counts
    twice there."""
    tracer = spans.Tracer()
    traced = untraced = 0.0
    pairs = 0
    pair_walls = []
    start = time.perf_counter()
    while not pair_walls or _time_left(start, seconds, statistics.fmean(pair_walls)):
        # alternate which side goes first, so warm-up lands on both
        for side in ((0, 1) if pairs % 2 == 0 else (1, 0)):
            if side:
                with spans.Installed(tracer):
                    wall, outs = run.run_pass(pairs)
                traced += wall
            else:
                _check_untraced(spans)
                wall, outs = run.run_pass(pairs)
                untraced += wall
            run.gate_pass(outs, pairs, run_level=not side)
        pairs += 1
        pair_walls.append(time.perf_counter() - start - sum(pair_walls))
    metrics = spans.layer_metrics(tracer, pairs, traced, untraced)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"spans-{workload}.jsonl")
    if workload == "trials":
        table = baseline_table(spans.per_call_ms(tracer, BASELINE_SPANS), pairs)
        (OUT_DIR / "baseline.md").write_text(table)
        print(table, end="")
    print(spans.pass_shares(tracer, traced), end="")
    return metrics


# ------------------------------------------------------------ baseline table

BASELINE_SPANS = ("randgraph.sample_graph", "randgraph.Graph.adjacency", "exactla.Matrix.rank",
                  "randgraph.karp_sipser", "exactla.type_census",
                  "exactla.Matrix.kernel_support")
_TABLE_ROWS = (("`sample_graph` (PRF on all n²/2 pairs)", "randgraph.sample_graph"),
               ("`Graph.adjacency` (dense)", "randgraph.Graph.adjacency"),
               ("`rank` (dense elimination)", "exactla.Matrix.rank"),
               ("`karp_sipser`", "randgraph.karp_sipser"))


def baseline_table(per_call: dict, passes: int) -> str:
    """The ROADMAP baseline table, from the per-call medians of a traced run."""

    def cell(group, span):
        entry = per_call.get(group, {}).get(span)
        return f"{entry['median_ms']:.0f} ms" if entry else "not run"

    lines = [f"Per-call median over {passes} traced passes (n=2000, d=3; F2 allones, "
             "F_p random weights)",
             "", "| Layer | F2 | F_p, p=2^31−1 |", "|---|---|---|"]
    for label, span in _TABLE_ROWS:
        lines.append(f"| {label} | {cell('F2+allones', span)} "
                     f"| {cell('Fp:2147483647+random', span)} |")
    lines.append("| `kernel_support` | no n=2000 pipeline calls it; measured at census "
                 "scale below | same |")
    census = "census F2+allones"
    lines += ["", "Census over F2 at n=300, d=2, P=8: "
              f"`type_census` {cell(census, 'exactla.type_census')} per call, "
              f"`kernel_support` {cell(census, 'exactla.Matrix.kernel_support')} per call", ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    if not (SRC_DIR / "frozenrank" / "__init__.py").is_file():
        print(f"error: no program at {SRC_DIR}; run from the root of a frozenrank checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import spans
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    run = Run(workloads, args.workload, args.seed)
    before = cpu_jiffies()
    if args.trace:
        metrics = run_traced(run, args.seconds, spans, args.workload)
        units = spans.per_layer_units()
    else:
        metrics = run_untraced(run, args.seconds, spans)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    after = cpu_jiffies()
    run.finish()

    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    env = environment(steal)
    for reason in run.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"env {json.dumps(env, sort_keys=True)}")
    print(f"failed_frac = {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted})")
    for name, unit in ({} if args.trace else RAW_TIMES).items():
        print(f"{name} = {metrics[name]:.6g} {unit} (as measured, not in the result)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
