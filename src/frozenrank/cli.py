"""Command-line interface.

Subcommands: ``analytic`` (limit-curve CSV), ``simulate`` (Monte Carlo rank
trials), ``census`` (perturbed variable-type censuses), ``ks`` (leaf-removal
statistics), ``classify`` (rank/frozen/type report for a matrix file) and
``verify`` (invariant suites).  Outputs go to ``--out`` or stdout.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import analytic
from .errors import ResourceCapError
from .exactla import TypeProfile, frozen_set, parse_matrix, variable_types
from .field import FieldSpec
from .harness import (
    ExperimentConfig,
    check_seed,
    derive_trial_seed,
    records_to_csv,
    run_census,
    run_experiment,
    tagged_csv,
    trial_support,
)
from .randgraph import TEMPLATE_KINDS, karp_sipser, parse_graph
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


# Most points an analytic grid may hold.  A point costs 7-11 ms on a 2-vCPU
# x86-64 host (grids of 75 to 101 points between d = 0 and 40), so a full grid
# takes about 70-110 s, within the acceptance criteria's 120-s time gate.
ANALYTIC_GRID_CAP = 10_000


def _frange(lo: float, hi: float, step: float) -> list[float]:
    """``lo, lo + step, ...`` up to ``hi`` (inclusive within 1e-12), each
    rounded to 12 decimals.  A grid of more than :data:`ANALYTIC_GRID_CAP`
    points is refused before any point is evaluated, as is the endless grid
    of a step lost in rounding (``lo + step == lo``)."""
    for flag, x in (("--d-min", lo), ("--d-max", hi), ("--step", step)):
        if not math.isfinite(x):
            raise ValueError(f"{flag} must be finite, got {x!r}")
    if step <= 0:
        raise ValueError("--step must be positive")
    if hi < lo:
        raise ValueError("--d-max must be at least --d-min")
    values = []
    for k in range(ANALYTIC_GRID_CAP + 1):
        d = lo + k * step
        if d > hi + 1e-12:
            return values
        values.append(round(d, 12))
    raise ResourceCapError(f"an analytic grid of more than {ANALYTIC_GRID_CAP} points")


def _cmd_analytic(args) -> int:
    def row(d: float) -> list:
        pt = analytic.solve_point(d)
        return [d, pt.alpha_star_lo, pt.alpha_zero, pt.alpha_star_hi,
                pt.min_R, pt.gamma_lo, pt.gamma_hi,
                analytic.integral_identity_residual(d)]

    columns = ["d", "alpha_star_lo", "alpha_zero", "alpha_star_hi",
               "min_R", "gamma_lo", "gamma_hi", "integral_residual"]
    grid = _frange(args.d_min, args.d_max, args.step)
    _write_output(tagged_csv(columns, map(row, grid)), args.out)
    return EXIT_OK


def _config_from_args(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fp:
            return ExperimentConfig.from_json(fp.read())
    required = ["n", "d", "trials"]
    missing = [k for k in required if getattr(args, k, None) is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join('--' + k for k in missing)}")
    return ExperimentConfig(
        n=args.n,
        d=args.d,
        field=args.field,
        trials=args.trials,
        master_seed=args.seed,
        template=args.template,
        pert_P=getattr(args, "P", None),
        pert_seed=getattr(args, "pert_seed", None),
        census=args.census,
        output=None,
        workers=args.workers,
    )


def _cmd_trials(args) -> int:
    """``simulate`` and ``census``: one run; ``census`` always takes a census.
    The CSV goes to ``--out``, else the config's output, else stdout."""
    cfg = _config_from_args(args)
    out = args.out or cfg.output
    run = run_census if args.census else run_experiment
    records, summary = run(replace(cfg, output=out))
    sys.stdout.write(summary.to_json() + "\n" if out else records_to_csv(records))
    return EXIT_OK


def _cmd_ks(args) -> int:
    if args.graph:
        with open(args.graph, encoding="utf-8") as fp:
            G = parse_graph(fp.read())
        ks = karp_sipser(G)
        payload = {
            "n": G.n,
            "edges": G.edge_count,
            "isolated_count": ks.isolated_count,
            "core_size": ks.core_vertices.size,
            "core_vertices": ks.core_vertices.tolist(),
            "removed_pairs": ks.removed_pairs.tolist(),
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK
    if args.n is None or args.d is None or args.trials is None:
        raise ValueError("ks needs either --graph or all of --n/--d/--trials")
    for flag in ("n", "trials"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be >= 1")
    if not 0.0 <= args.d <= args.n:
        raise ValueError(f"--d must lie in [0, --n] = [0, {args.n}], got {args.d!r}")
    check_seed("--seed", args.seed)
    FieldSpec.parse_label(args.field)  # refused if malformed, though no field changes the support

    def row(index: int) -> list:
        trial_seed = derive_trial_seed(args.seed, index)
        s = trial_support(trial_seed, args.n, args.d)
        return [index, trial_seed, args.n, args.d,
                s.isolated_count, s.core_vertices.size, len(s.removed_pairs)]

    columns = ["trial_index", "derived_seed", "n", "d",
               "ks_isolated", "ks_core_size", "removed_pair_count"]
    _write_output(tagged_csv(columns, map(row, range(args.trials))), args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    with open(args.matrix, encoding="utf-8") as fp:
        A = parse_matrix(fp.read())
    # the kernel support sets the rank too, so A is eliminated once for both
    frozen, types = frozen_set(A), variable_types(A)
    payload = {
        "m": A.m,
        "n": A.n,
        "field": A.field.label(),
        "rank": A.rank(),
        "nullity": A.nullity(),
        "frozen_columns": list(frozen),
        "types": {str(i): t for i, t in enumerate(types)},
    }
    if types:
        profile = TypeProfile.tally(types)
        payload["census"] = {
            "x": profile.x, "y": profile.y, "z": profile.z,
            "u": profile.u, "v": profile.v,
            "alpha": profile.alpha, "alpha_hat": profile.alpha_hat,
        }
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    payload = [r.as_dict() for r in results]
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    failed = [r for r in results if not r.passed]
    for r in results:
        sys.stderr.write(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}\n")
    return EXIT_CHECK_FAILURE if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frozenrank",
        description="Exact ranks, frozen variables and type censuses of sparse "
                    "weighted symmetric random matrices, with the analytic limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="limit-curve CSV over a degree grid")
    p.add_argument("--d-min", type=float, required=True)
    p.add_argument("--d-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analytic)

    def add_common(p, with_P=False):
        p.add_argument("--config", help="JSON config file (overrides flags)")
        p.add_argument("--n", type=int)
        p.add_argument("--d", type=float)
        p.add_argument("--field", default="F2", help='"F2", "Fp:<p>" or "Q"')
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--template", choices=TEMPLATE_KINDS, default="allones")
        p.add_argument("--workers", type=int, default=1)
        if with_P:
            p.add_argument("--P", "--pert-P", dest="P", type=int,
                           help="perturbation dimension bound")
            p.add_argument("--pert-seed", dest="pert_seed", type=int,
                           help="separate seed for the perturbation streams")
        p.add_argument("--out")

    p = sub.add_parser("simulate", help="Monte Carlo rank trials")
    add_common(p)
    p.set_defaults(func=_cmd_trials, census=False)

    p = sub.add_parser("census", help="perturbed variable-type censuses")
    add_common(p, with_P=True)
    p.set_defaults(func=_cmd_trials, census=True)

    p = sub.add_parser("ks", help="leaf-removal statistics")
    p.add_argument("--graph", help="edge-list file to reduce instead of sampling")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="F2")
    p.add_argument("--template", choices=TEMPLATE_KINDS, default="allones")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ks)

    p = sub.add_parser("classify", help="rank/frozen/type report for a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_RESOURCE
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
