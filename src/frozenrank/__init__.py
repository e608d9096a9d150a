"""Exact ranks, frozen-variable structure and variable-type censuses of
sparse weighted symmetric random matrices over arbitrary fields, together
with the closed-form rank limit they converge to."""

from .analytic import AnalyticPoint, integral_identity_residual, ks_fixed_point, min_R, solve_point
from .errors import ResourceCapError
from .exactla import (
    Matrix,
    TypeProfile,
    classify_variable,
    frozen_set,
    is_delta_ell_free,
    is_relation,
    proper_relations,
    row_in_span,
    symmetric_removal_rank_drop,
    type_census,
    variable_types,
)
from .field import FieldSpec, sample_nonzero
from .harness import ExperimentConfig, SummaryReport, TrialRecord, run_census, run_experiment
from .perturb import CoupledFamilies, PerturbationFamily, PerturbationSpec, canonical_perturb
from .randgraph import (
    CouplingSource,
    Graph,
    LeafRemoval,
    WeightTemplate,
    karp_sipser,
    sample_T,
    sample_graph,
)

__version__ = "0.1.0"
