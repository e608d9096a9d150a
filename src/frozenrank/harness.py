"""Monte Carlo experiment orchestration and result persistence.

Each trial is a pure function of ``(master_seed, trial_index)``: its trial
seed (:func:`derive_trial_seed`) splits into separate streams for edge
coupling, weights, the vertex permutation, the perturbation dimensions and
the perturbation families, so no two random sources ever share a stream.
The edge and weight split is stated once, in :func:`_coupling` and
:func:`_weight_template`; the rest in :func:`_run_trial`, the one trial
function of both rank and census runs.  The edge support depends only on
``(trial_seed, n, d)``, so a rank trial takes the support's
:class:`~frozenrank.randgraph.LeafRemoval` from :func:`trial_support`, which
keeps the last few small supports for every field and template of the
process.  A census trial samples the whole weighted graph, which the census
relabels, and leaf-removes that graph's support itself.  Either ranks the
core's arrays weighed by its template.  Records are ordered by trial index,
which makes the CSV output byte-identical across reruns and worker counts.
Wall-clock timings are kept on the in-memory records only, never
serialized.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import lru_cache

import numpy as np

from . import analytic
from .errors import ResourceCapError
from .exactla import (
    DENSE_CAP,
    TypeProfile,
    rational_rank,
    sparse_rank,
    type_census,
)
from .field import FieldSpec
from .perturb import CoupledFamilies, PerturbationSpec, canonical_perturb
from .prf import (
    TAG_EDGES,
    TAG_PERM,
    TAG_THETA,
    TAG_TRIAL,
    TAG_WEIGHTS,
    derive_seed,
)
from .randgraph import (
    TEMPLATE_KINDS,
    CouplingSource,
    LeafRemoval,
    WeightTemplate,
    available_cpus,
    karp_sipser,
    leaf_removal,
    sample_T,
    sample_graph,
    sample_support,
    set_sampler_threads,
)

CSV_SCHEMA_TAG = "#frozenrank-v1"

# value types accepted for each annotation of ExperimentConfig ("X | None"
# also accepts None); bool is an int subclass, so it is kept apart
_CONFIG_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _group_key(field: str, template: str) -> str:
    """Grouping key for summaries: field label + template kind."""
    return f"{field}+{template}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment."""

    n: int
    d: float
    field: str  # field label: "F2", "Fp:<p>" or "Q"
    trials: int
    master_seed: int
    template: str = "allones"
    pert_P: int | None = None
    pert_seed: int | None = None  # perturbation streams; master_seed when unset
    census: bool = False
    output: str | None = None
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            kind, _, optional = f.type.partition(" | ")
            value = getattr(self, f.name)
            if value is None and optional == "None":
                continue
            if isinstance(value, bool) != (kind == "bool") or not isinstance(
                    value, _CONFIG_TYPES[kind]):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        check_seed("master_seed", self.master_seed)
        if self.pert_seed is not None:
            check_seed("pert_seed", self.pert_seed)
        if not 0.0 <= self.d <= self.n:
            raise ValueError(f"d must lie in [0, n] = [0, {self.n}] (edge probability "
                             f"d/n at most 1), got {self.d!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.template not in TEMPLATE_KINDS:
            raise ValueError(f"template must be one of {TEMPLATE_KINDS}")
        # raises on a bad label; an equivalent one is stored canonical, as the
        # CSV and the group key print it
        object.__setattr__(self, "field", FieldSpec.parse_label(self.field).label())
        if self.pert_P is not None and self.pert_P < 1:
            raise ValueError("pert_P must be >= 1")
        if self.census and self.pert_P is None:
            raise ValueError("census runs require pert_P")
        if self.n > DENSE_CAP:
            raise ResourceCapError(f"n={self.n} exceeds the dense-matrix cap {DENSE_CAP}")
        # each theta is at most P, and a perturbation block is theta x n
        if self.pert_P is not None and self.pert_P > DENSE_CAP:
            raise ResourceCapError(f"pert_P={self.pert_P} exceeds the dense-matrix cap "
                                   f"{DENSE_CAP}")

    @property
    def field_spec(self) -> FieldSpec:
        return FieldSpec.parse_label(self.field)

    @property
    def group(self) -> str:
        return _group_key(self.field, self.template)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
        keys = fields(ExperimentConfig)
        unknown = set(data) - {f.name for f in keys}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in keys if f.default is MISSING and f.name not in data]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return ExperimentConfig(**data)


@dataclass
class TrialRecord:
    """One Monte Carlo draw; ``rank + nullity = n``, the leaf-removal upper
    bound ``rank/n <= 1 - ks_isolated/n`` and, over F2, an even rank (the
    adjacency of a simple graph is alternating there) hold exactly by
    construction."""

    trial_index: int
    derived_seed: int
    n: int
    d: float
    field: str
    template: str
    rank: int
    nullity: int
    normalized_rank: float
    ks_isolated: int
    ks_core_size: int
    census: TypeProfile | None = None
    theta: tuple[int, int] | None = None
    elapsed_ms: float = 0.0  # in-memory diagnostic, not serialized

    def __post_init__(self):
        if self.rank + self.nullity != self.n:
            raise ValueError("rank + nullity must equal n")
        if self.rank > self.n - self.ks_isolated:
            raise ValueError("leaf-removal upper bound violated; exact arithmetic bug")
        if self.rank % 2 and FieldSpec.parse_label(self.field).is_gf2:
            raise ValueError("odd rank over F2; exact arithmetic bug")

    @property
    def group(self) -> str:
        return _group_key(self.field, self.template)


@dataclass(frozen=True)
class GroupStats:
    count: int
    mean_normalized_rank: float
    stddev_normalized_rank: float


@dataclass(frozen=True)
class CensusSummary:
    trials: int
    mean_residual_y: float
    mean_residual_u: float
    mean_residual_v: float
    max_deficit_z: float
    mean_alpha: float
    mean_alpha_hat: float


@dataclass(frozen=True)
class SummaryReport:
    """Pure aggregation of trial records (always recomputable from them)."""

    d: float
    analytic_min_R: float
    groups: dict
    gaps: dict  # group -> |mean - analytic_min_R|
    pairwise_gaps: dict  # (group_a, group_b) -> |mean_a - mean_b|
    census: CensusSummary | None = None

    def to_json(self) -> str:
        payload = {
            "d": self.d,
            "analytic_min_R": self.analytic_min_R,
            "groups": {k: asdict(s) for k, s in self.groups.items()},
            "gaps": dict(self.gaps),
            "pairwise_gaps": {f"{a} vs {b}": v for (a, b), v in self.pairwise_gaps.items()},
        }
        if self.census is not None:
            payload["census"] = asdict(self.census)
        return json.dumps(payload, indent=2, sort_keys=True)


def summarize(records: list[TrialRecord], d: float) -> SummaryReport:
    """Aggregate records (possibly spanning several field/template groups)."""
    by_group: dict[str, list[float]] = {}
    for rec in records:
        by_group.setdefault(rec.group, []).append(rec.normalized_rank)
    limit = analytic.min_R(d)
    groups = {}
    for key, vals in sorted(by_group.items()):
        mean = statistics.fmean(vals)
        std = statistics.stdev(vals) if len(vals) > 1 else 0.0
        groups[key] = GroupStats(count=len(vals), mean_normalized_rank=mean,
                                 stddev_normalized_rank=std)
    gaps = {k: abs(s.mean_normalized_rank - limit) for k, s in groups.items()}
    keys = sorted(groups)
    pairwise = {
        (a, b): abs(groups[a].mean_normalized_rank - groups[b].mean_normalized_rank)
        for i, a in enumerate(keys)
        for b in keys[i + 1:]
    }
    census_part = None
    with_census = [r for r in records if r.census is not None]
    if with_census:
        res_y, res_u, res_v, defs = [], [], [], []
        for rec in with_census:
            prof = rec.census
            fy, fu, fv = analytic.type_functions(prof, lambda r: analytic.phi(d, r))
            res_y.append(abs(prof.y - fy))
            res_u.append(abs(prof.u - fu))
            res_v.append(abs(prof.v - fv))
            defs.append(max(0.0, analytic.phi(d, prof.y) - prof.z))
        census_part = CensusSummary(
            trials=len(with_census),
            mean_residual_y=statistics.fmean(res_y),
            mean_residual_u=statistics.fmean(res_u),
            mean_residual_v=statistics.fmean(res_v),
            max_deficit_z=max(defs),
            mean_alpha=statistics.fmean(r.census.alpha for r in with_census),
            mean_alpha_hat=statistics.fmean(r.census.alpha_hat for r in with_census),
        )
    return SummaryReport(
        d=d,
        analytic_min_R=limit,
        groups=groups,
        gaps=gaps,
        pairwise_gaps=pairwise,
        census=census_part,
    )


# ------------------------------------------------------------------- trials


def check_seed(name: str, seed: int) -> None:
    """Refuse a seed outside ``[0, 2^64)``: the PRF reads seeds modulo
    2^64, so such a seed would silently rerun one inside."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {seed}")


def derive_trial_seed(master_seed: int, index: int) -> int:
    """The seed of trial ``index`` of a run on ``master_seed``, from which
    every stream of the trial splits."""
    return derive_seed(master_seed, index, TAG_TRIAL)


def _coupling(trial_seed: int) -> CouplingSource:
    """The edge-coupling stream of a trial.  With :func:`_weight_template`
    this is the one place the trial seed splits into edges and weights."""
    return CouplingSource(derive_seed(trial_seed, 0, TAG_EDGES))


def _weight_template(trial_seed: int, n: int, field: FieldSpec, template: str) -> WeightTemplate:
    """The weight-template stream of a trial, apart from its edges."""
    return WeightTemplate(field, n, template, derive_seed(trial_seed, 0, TAG_WEIGHTS))


# the support memo keeps the leaf removals of the last _MEMO_ENTRIES
# supports whose n * d is at most _MEMO_ND.  A support has about n * d / 2
# edges, so at the bound an entry takes up to about 54 KB (two uint16
# endpoints and a uint16 support index a core edge) and a full memo about
# 3.5 MB; a trial at n = 2000, d = 3 keeps 4-12 KB.  Without the bound a
# support at d = n would keep tens of MB an entry
_MEMO_ENTRIES = 64
_MEMO_ND = 1 << 14


@lru_cache(maxsize=_MEMO_ENTRIES)
def _leaf_removal_of(trial_seed: int, n: int, d: float) -> LeafRemoval:
    return leaf_removal(n, *sample_support(n, d / n, _coupling(trial_seed)))


def trial_support(trial_seed: int, n: int, d: float) -> LeafRemoval:
    """The :func:`~frozenrank.randgraph.leaf_removal` of the edge support
    that the coupling stream of ``trial_seed`` gives on ``n`` vertices at
    mean degree ``d``, the same for every field and template.  A support
    with ``n * d`` at most ``_MEMO_ND`` is computed once per process while
    the memo keeps it, one of its last ``_MEMO_ENTRIES``."""
    if n * d <= _MEMO_ND:
        return _leaf_removal_of(trial_seed, n, d)
    return _leaf_removal_of.__wrapped__(trial_seed, n, d)


def _rank_of_core(field: FieldSpec, n: int, i: np.ndarray, j: np.ndarray,
                  w: np.ndarray) -> int:
    """Exact rank over ``field`` of the leaf-removal core on ``n`` vertices
    with edges ``(i, j)`` weighted ``w``, without a
    :class:`~frozenrank.exactla.Matrix`; the rank identity of
    :class:`~frozenrank.randgraph.LeafRemoval` gives the whole graph's.  A
    prime-field core goes to :func:`~frozenrank.exactla.sparse_rank`, a
    rational core of any size to :func:`~frozenrank.exactla.rational_rank`:
    a sparse rank modulo a prime, certified exact when full, else the rank
    of the RREF lifted from primes and verified."""
    if field.kind == "rationals":
        return rational_rank(n, i, j, w).rank
    return sparse_rank(n, i, j, w, field.p)


def _run_trial(cfg: ExperimentConfig, index: int) -> TrialRecord:
    """One trial: the support's leaf removal, then the weighted core's rank.
    A census run samples the whole weighted graph, leaf-removes that graph's
    support and adds the type census of the perturbed, relabelled matrix T;
    a rank run takes the leaf removal from :func:`trial_support`."""
    start = time.perf_counter()
    trial_seed = derive_trial_seed(cfg.master_seed, index)
    template = _weight_template(trial_seed, cfg.n, cfg.field_spec, cfg.template)
    profile = theta = None
    if cfg.census:
        G = sample_graph(cfg.n, cfg.d / cfg.n, template, _coupling(trial_seed))
        # T is G relabelled at full size, and rank and leaf-removal statistics
        # are relabelling-invariant, so G's support gives both for T too
        support = karp_sipser(G)
        pert_base = trial_seed if cfg.pert_seed is None else \
            derive_trial_seed(cfg.pert_seed, index)
        pert = PerturbationSpec.draw(cfg.pert_P, derive_seed(pert_base, 0, TAG_THETA))
        B = canonical_perturb(sample_T(G, cfg.n, derive_seed(trial_seed, 0, TAG_PERM)), pert,
                              CoupledFamilies.from_seed(pert_base))
        profile = type_census(B, census_size=cfg.n)
        theta = (pert.theta_r, pert.theta_c)
    else:
        support = trial_support(trial_seed, cfg.n, cfg.d)
    # a weight is a pure function of the template's seed and the edge's
    # original endpoints, so these are the whole weighted graph's on the core
    v, core_i, core_j = support.core_vertices, support.core_i, support.core_j
    rank = 2 * len(support.removed_pairs) + _rank_of_core(
        template.field, v.size, core_i, core_j, template.weights(v[core_i], v[core_j]))
    return TrialRecord(
        trial_index=index,
        derived_seed=trial_seed,
        n=cfg.n,
        d=cfg.d,
        field=cfg.field,
        template=cfg.template,
        rank=rank,
        nullity=cfg.n - rank,
        normalized_rank=rank / cfg.n,
        ks_isolated=support.isolated_count,
        ks_core_size=support.core_vertices.size,
        census=profile,
        theta=theta,
        elapsed_ms=(time.perf_counter() - start) * 1e3,
    )


def _worker_pool(workers: int):
    """A pool of ``workers`` processes that share the CPUs out once: each
    samples on ``max(1, cpus // workers)`` threads, not on every CPU."""
    from concurrent.futures import ProcessPoolExecutor  # a costly import no 1-worker run needs
    return ProcessPoolExecutor(max_workers=workers, initializer=set_sampler_threads,
                               initargs=(max(1, available_cpus() // workers),))


def run_experiment(cfg: ExperimentConfig) -> tuple[list[TrialRecord], SummaryReport]:
    """Run the trials of ``cfg``, with a census each when ``cfg.census`` is
    set; persist CSV when ``cfg.output`` is set."""
    workers = min(cfg.workers, cfg.trials)  # a pool forks all its workers at once
    if workers > 1:
        with _worker_pool(workers) as pool:
            records = list(pool.map(_run_trial, [cfg] * cfg.trials, range(cfg.trials)))
    else:
        records = [_run_trial(cfg, i) for i in range(cfg.trials)]
    if cfg.output:
        write_csv_file(records, cfg.output)
    return records, summarize(records, cfg.d)


def run_census(cfg: ExperimentConfig) -> tuple[list[TrialRecord], SummaryReport]:
    """Run ``cfg`` as a census run (requires ``pert_P``)."""
    return run_experiment(replace(cfg, census=True))


# ---------------------------------------------------------------------- CSV

_BASE_COLUMNS = (
    "trial_index",
    "derived_seed",
    "n",
    "d",
    "field",
    "template",
    "rank",
    "nullity",
    "normalized_rank",
    "ks_isolated",
    "ks_core_size",
)
# TypeProfile attributes, read by name
_PROFILE_COLUMNS = (
    "count_x",
    "count_y",
    "count_z",
    "count_u",
    "count_v",
    "frozen_count",
    "frozen_count_t",
    "x",
    "y",
    "z",
    "u",
    "v",
    "alpha",
    "alpha_hat",
)
_CENSUS_COLUMNS = ("theta_r", "theta_c") + _PROFILE_COLUMNS


def tagged_csv(columns, rows) -> str:
    """CSV text of every output: the schema tag line, the header
    ``columns``, then ``rows``, each line ending in a bare newline."""
    buf = io.StringIO()
    buf.write(CSV_SCHEMA_TAG + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def records_to_csv(records: list[TrialRecord]) -> str:
    """Canonical CSV text: schema tag line, header row, one row per trial."""
    with_census = any(r.census is not None for r in records)

    def row(rec: TrialRecord) -> list:
        base = [getattr(rec, c) for c in _BASE_COLUMNS]
        if not with_census:
            return base
        if rec.census is None:
            raise ValueError("mixed census/non-census records in one CSV")
        return base + [*rec.theta, *(getattr(rec.census, c) for c in _PROFILE_COLUMNS)]

    return tagged_csv(_BASE_COLUMNS + (_CENSUS_COLUMNS if with_census else ()),
                      map(row, sorted(records, key=lambda r: r.trial_index)))


def write_csv_file(records: list[TrialRecord], path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fp:
            fp.write(records_to_csv(records))
    except OSError as exc:
        raise OSError(f"could not write records to {path}: {exc}") from exc
