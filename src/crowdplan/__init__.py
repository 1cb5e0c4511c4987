"""Crowdsourced prediction with access paths.

A crowd can be asked the same question in different ways (expert pools, voting
interfaces, price points); each way is an access path with its own cost and
error behavior, and votes inside one path are correlated. This package models
that structure, learns its parameters from votes, quantifies how much a set of
votes is expected to reveal about the answer, and chooses how to spend a
budget across paths.
"""

from .errors import (
    CrowdPlanError,
    InputError,
    MissingWorkerCptError,
    NumericError,
    ResourceLimitError,
)
from .evaluation import FoldRow, MetricRow, SweepResult, budget_sweep
from .infogain import (
    IgConfig,
    IgEstimate,
    IgMode,
    SubmodularityReport,
    check_submodularity,
    exact_conditional_entropy,
    information_gain,
    information_gains,
    prior_entropy,
    sampled_conditional_entropies,
)
from .inference import ModelKind, table_posteriors
from .io import read_votes_csv, write_votes_csv
from .learning import (
    EmConfig,
    FitReport,
    fit_em,
    fit_nbi,
    fit_supervised,
    log_likelihood,
)
from .model import (
    AccessPathSpec,
    AccessPlan,
    ApmModel,
    Cpt,
    Dataset,
    LabelSpace,
    NbiModel,
    load_model,
    plan_cost,
    save_model,
    validate_model,
    with_costs,
    with_labels,
)
from .planner import (
    PlanResult,
    Strategy,
    TraceStep,
    approximation_bound,
    baseline_plan,
    build_plan,
    exhaustive_opt,
    greedy_plan,
)
from .simulator import generate, inject_correlation, quantile_paths

__version__ = "0.1.0"

__all__ = [
    "AccessPathSpec",
    "AccessPlan",
    "ApmModel",
    "Cpt",
    "CrowdPlanError",
    "Dataset",
    "EmConfig",
    "FitReport",
    "FoldRow",
    "IgConfig",
    "IgEstimate",
    "IgMode",
    "InputError",
    "LabelSpace",
    "MetricRow",
    "MissingWorkerCptError",
    "ModelKind",
    "NbiModel",
    "NumericError",
    "PlanResult",
    "ResourceLimitError",
    "Strategy",
    "SubmodularityReport",
    "SweepResult",
    "TraceStep",
    "approximation_bound",
    "baseline_plan",
    "budget_sweep",
    "build_plan",
    "check_submodularity",
    "exact_conditional_entropy",
    "exhaustive_opt",
    "fit_em",
    "fit_nbi",
    "fit_supervised",
    "generate",
    "greedy_plan",
    "information_gain",
    "information_gains",
    "inject_correlation",
    "load_model",
    "log_likelihood",
    "plan_cost",
    "prior_entropy",
    "quantile_paths",
    "read_votes_csv",
    "sampled_conditional_entropies",
    "save_model",
    "table_posteriors",
    "validate_model",
    "with_costs",
    "with_labels",
    "write_votes_csv",
]
