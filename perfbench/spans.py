"""Span recorder for the traced benchmark run.

Wraps the public entry points of the ``frozenrank`` modules by patching
attributes in this process only: functions are replaced in every loaded
module that holds them (``frozenrank.randgraph.sample_graph`` and the copy
imported into ``frozenrank.harness``), methods on their class.  Nothing
under ``src/`` changes.  Spans live in memory as ``[name, start, end,
parent, attrs]`` lists and are written out as JSONL after the run.

The run is single-threaded (``workers=1``), so one stack gives each span
its parent.  Scalar ``prf`` is called millions of times per suite pass, so
it gets a call counter instead of spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from statistics import median

_MARK = "_perfbench_wrapped"


def _rank_cells(args, kwargs):
    # work count: cells of a matrix actually eliminated (cached calls add 0)
    A = args[0]
    return {"cells": A.m * A.n if getattr(A, "_rank", None) is None else 0}


def _ksup_cells(args, kwargs):
    A = args[0]
    return {"cells": A.m * A.n if getattr(A, "_ksup", None) is None else 0}


def _group(args, kwargs):
    return {"group": args[0].group}


def _census_group(args, kwargs):
    return {"group": f"census {args[0].group}"}


def _elems(args, kwargs):
    return {"elems": int(getattr(args[1], "size", 1))}


def _edges(result, args, kwargs):
    return {"edges": result.edge_count}


def _core(result, args, kwargs):
    return {"core": len(result.core_vertices), "n": args[0].n}


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module.attr`` or ``module.Class.method``."""

    module: str  # short name under ``frozenrank``
    attr: str  # "fn" or "Class.method"
    name: str  # span name, also the metric prefix
    pre: object = None  # (args, kwargs) -> attrs, before the call
    post: object = None  # (result, args, kwargs) -> attrs, after the call


SPAN_TARGETS = (
    Target("harness", "run_experiment", "harness.run_experiment", pre=_group),
    Target("harness", "run_census", "harness.run_census", pre=_census_group),
    Target("harness", "records_to_csv", "harness.records_to_csv"),
    Target("harness", "summarize", "harness.summarize"),
    Target("randgraph", "sample_graph", "randgraph.sample_graph", post=_edges),
    Target("randgraph", "sample_T", "randgraph.sample_T"),
    Target("randgraph", "Graph.adjacency", "randgraph.Graph.adjacency"),
    Target("randgraph", "karp_sipser", "randgraph.karp_sipser", post=_core),
    Target("prf", "prf_array", "prf.prf_array", pre=_elems),
    Target("exactla", "Matrix.rank", "exactla.Matrix.rank", pre=_rank_cells),
    Target("exactla", "Matrix.kernel_support", "exactla.Matrix.kernel_support",
           pre=_ksup_cells),
    Target("exactla", "type_census", "exactla.type_census"),
    Target("exactla", "Matrix.remove", "exactla.Matrix.remove"),
    Target("exactla", "Matrix.__init__", "exactla.Matrix.init"),
    Target("perturb", "canonical_perturb", "perturb.canonical_perturb"),
    Target("perturb", "indices_over_seeds", "perturb.indices_over_seeds"),
    Target("analytic", "min_R", "analytic.min_R"),
    Target("analytic", "integral_identity_residual", "analytic.integral_identity_residual"),
    Target("verify", "run_oracle_suite", "verify.oracle"),
    Target("verify", "run_lemmas_suite", "verify.lemmas"),
    Target("verify", "run_perturb_suite", "verify.perturb"),
    Target("verify", "run_analytic_suite", "verify.analytic"),
)
COUNT_TARGETS = (Target("prf", "prf", "prf.prf"),)


class Tracer:
    """In-memory span and call-count store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span_wrapper(self, target: Target, fn):
        spans, stack, name, pre, post = self.spans, self._stack, target.name, target.pre, target.post
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   pre(args, kwargs) if pre else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post:
                rec[4] = {**(rec[4] or {}), **post(result, args, kwargs)}
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def count_wrapper(self, target: Target, fn):
        counts, name = self.counts, target.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for name, start, end, parent, attrs in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    row["attrs"] = attrs
                fp.write(json.dumps(row) + "\n")


def _resolve(target: Target):
    """(owner, attribute, original) for a class method, else (None, attr, fn)."""
    mod = sys.modules[f"frozenrank.{target.module}"]
    if "." in target.attr:
        cls_name, meth = target.attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, cls.__dict__[meth]
    return None, target.attr, getattr(mod, target.attr)


def _holders(attr: str, fn):
    """Every loaded module whose global ``attr`` is ``fn``."""
    return [m for m in list(sys.modules.values())
            if m is not None and getattr(m, "__dict__", {}).get(attr) is fn]


class Installed:
    """Wrappers in place; :meth:`remove` puts every original back."""

    def __init__(self, tracer: Tracer):
        self._undo: list[tuple] = []
        if wrapped_entry_points():
            raise RuntimeError("trace wrappers are already installed")
        try:
            for target, make in ([(t, tracer.span_wrapper) for t in SPAN_TARGETS]
                                 + [(t, tracer.count_wrapper) for t in COUNT_TARGETS]):
                owner, attr, orig = _resolve(target)
                wrapped = make(target, orig)
                for holder in ([owner] if owner is not None else _holders(attr, orig)):
                    self._undo.append((holder, attr, orig))
                    setattr(holder, attr, wrapped)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._undo:
            holder, attr, orig = self._undo.pop()
            setattr(holder, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()


def wrapped_entry_points() -> list[str]:
    """Names of traced entry points that hold a wrapper in any loaded module
    or class; empty whenever no :class:`Installed` is active."""
    found = []
    for target in SPAN_TARGETS + COUNT_TARGETS:
        owner, attr, _ = _resolve(target)
        holders = [owner] if owner is not None else list(sys.modules.values())
        if any(getattr(getattr(h, "__dict__", {}).get(attr), _MARK, False) for h in holders):
            found.append(target.name)
    return found


# --------------------------------------------------------------- analysis


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it covered by its children."""
    children = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _under(spans, ancestor: str) -> list[bool]:
    """Whether each span has a span named ``ancestor`` above it (parents
    always precede their children in the list)."""
    flags = []
    for name, _, _, parent, _ in spans:
        flags.append(parent >= 0 and (flags[parent] or spans[parent][0] == ancestor))
    return flags


def _roots(spans) -> list[int]:
    roots = []
    for idx, rec in enumerate(spans):
        roots.append(idx if rec[3] < 0 else roots[rec[3]])
    return roots


def _attr_sum(spans, name, key, mask=None) -> float:
    return sum((rec[4] or {}).get(key, 0) for k, rec in enumerate(spans)
               if rec[0] == name and (mask is None or mask[k]))


SELF_MS = ("randgraph.sample_graph", "prf.prf_array", "randgraph.Graph.adjacency",
           "exactla.Matrix.rank", "randgraph.karp_sipser", "exactla.type_census",
           "exactla.Matrix.kernel_support", "randgraph.sample_T", "exactla.Matrix.init",
           "exactla.Matrix.remove", "perturb.canonical_perturb",
           "perturb.indices_over_seeds", "harness.records_to_csv", "harness.summarize",
           "harness.run_experiment", "harness.run_census", "analytic.min_R",
           "analytic.integral_identity_residual")
CALLS = tuple(n for n in SELF_MS if not n.startswith("harness."))
SUITES = ("verify.oracle", "verify.lemmas", "verify.perturb", "verify.analytic")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, as the traced run reports them."""
    units = {f"{n}.calls": "count" for n in CALLS}
    units["prf.prf.calls"] = "count"
    units.update({f"{n}.self_ms": "ms" for n in SELF_MS})
    units.update({f"{n}.total_ms": "ms" for n in SUITES})
    units.update({
        "prf.prf_array.elems": "count",
        "randgraph.edges": "count",
        "randgraph.sample.useful_ratio": "ratio",
        "exactla.Matrix.rank.cells": "count",
        "exactla.Matrix.kernel_support.cells": "count",
        "randgraph.karp_sipser.core_frac": "ratio",
        "exactla.type_census.eliminations_per_call": "count",
        "trace.coverage": "ratio",
        "trace.overhead_frac": "ratio",
    })
    return units


def layer_metrics(tracer: Tracer, passes: int, traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics; counts and times are per traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    top_s = 0.0
    for k, rec in enumerate(spans):
        calls[rec[0]] += 1
        self_s[rec[0]] += own[k]
        total_s[rec[0]] += rec[2] - rec[1]
        if rec[3] < 0:
            top_s += rec[2] - rec[1]
    in_sampler = _under(spans, "randgraph.sample_graph")
    in_census = _under(spans, "exactla.type_census")
    edges = _attr_sum(spans, "randgraph.sample_graph", "edges")
    sampled_pairs = _attr_sum(spans, "prf.prf_array", "elems", in_sampler)
    ks_n = _attr_sum(spans, "randgraph.karp_sipser", "n")
    census_elims = sum(1 for k, rec in enumerate(spans)
                       if rec[0] == "exactla.Matrix.kernel_support" and in_census[k])

    out = {f"{n}.calls": calls[n] / passes for n in CALLS}
    out["prf.prf.calls"] = tracer.counts["prf.prf"] / passes
    out.update({f"{n}.self_ms": 1e3 * self_s[n] / passes for n in SELF_MS})
    out.update({f"{n}.total_ms": 1e3 * total_s[n] / passes for n in SUITES})
    out.update({
        "prf.prf_array.elems": _attr_sum(spans, "prf.prf_array", "elems") / passes,
        "randgraph.edges": edges / passes,
        "randgraph.sample.useful_ratio": edges / sampled_pairs if sampled_pairs else 0.0,
        "exactla.Matrix.rank.cells": _attr_sum(spans, "exactla.Matrix.rank", "cells") / passes,
        "exactla.Matrix.kernel_support.cells":
            _attr_sum(spans, "exactla.Matrix.kernel_support", "cells") / passes,
        "randgraph.karp_sipser.core_frac":
            _attr_sum(spans, "randgraph.karp_sipser", "core") / ks_n if ks_n else 0.0,
        "exactla.type_census.eliminations_per_call":
            census_elims / calls["exactla.type_census"] if calls["exactla.type_census"] else 0.0,
        "trace.coverage": top_s / traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    return out


def per_call_ms(tracer: Tracer, names) -> dict[str, dict[str, dict]]:
    """Median inclusive duration per call of each named span, split by the
    ``group`` of the top-level harness span it ran under."""
    spans = tracer.spans
    roots = _roots(spans)
    durations = defaultdict(list)
    for k, rec in enumerate(spans):
        if rec[0] in names:
            group = (spans[roots[k]][4] or {}).get("group", "-")
            durations[(group, rec[0])].append(rec[2] - rec[1])
    table: dict[str, dict[str, dict]] = defaultdict(dict)
    for (group, name), vals in sorted(durations.items()):
        table[group][name] = {"median_ms": 1e3 * median(vals), "calls": len(vals)}
    return dict(table)


SHARE_SPANS = ("randgraph.sample_graph", "randgraph.Graph.adjacency", "exactla.Matrix.rank",
               "randgraph.karp_sipser", "randgraph.sample_T", "exactla.type_census")


def pass_shares(tracer: Tracer, traced_wall: float) -> str:
    """Share of traced wall time under each top-level span, and under each
    of ``SHARE_SPANS`` within it (outermost calls only), as text lines."""
    spans = tracer.spans
    roots = _roots(spans)
    inside = defaultdict(float)
    for k, rec in enumerate(spans):
        root = spans[roots[k]]
        key = (root[0] + " " + (root[4] or {}).get("group", "")).strip()
        if k == roots[k]:
            inside[(key, "")] += rec[2] - rec[1]
            continue
        if rec[0] not in SHARE_SPANS:
            continue
        parent = rec[3]
        while parent >= 0 and spans[parent][0] != rec[0]:
            parent = spans[parent][3]
        if parent < 0:
            inside[(key, rec[0])] += rec[2] - rec[1]
    lines = ["Share of traced pass time (inclusive):"]
    for (key, name), secs in sorted(inside.items()):
        lines.append(f"  {key}{' > ' + name if name else ''}: {100 * secs / traced_wall:.1f}%")
    return "\n".join(lines) + "\n"
