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
from .evaluation import (
    ExecutedSample,
    FoldRow,
    MetricRow,
    SweepResult,
    accuracy,
    budget_sweep,
    execute_plan_on_sample,
    neg_log_likelihood,
)
from .infogain import (
    IgConfig,
    IgEstimate,
    IgMode,
    SubmodularityReport,
    check_submodularity,
    exact_conditional_entropy,
    information_gain,
    prior_entropy,
    sampled_conditional_entropy,
)
from .inference import (
    ModelKind,
    Posterior,
    apm_posterior,
    infer,
    mv_predict,
    nbap_posterior,
    nbi_posterior,
    predict,
)
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
    TaskSample,
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
    "ExecutedSample",
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
    "Posterior",
    "ResourceLimitError",
    "Strategy",
    "SubmodularityReport",
    "SweepResult",
    "TaskSample",
    "TraceStep",
    "accuracy",
    "apm_posterior",
    "approximation_bound",
    "baseline_plan",
    "budget_sweep",
    "build_plan",
    "check_submodularity",
    "exact_conditional_entropy",
    "execute_plan_on_sample",
    "exhaustive_opt",
    "fit_em",
    "fit_nbi",
    "fit_supervised",
    "generate",
    "greedy_plan",
    "infer",
    "information_gain",
    "inject_correlation",
    "load_model",
    "log_likelihood",
    "mv_predict",
    "nbap_posterior",
    "nbi_posterior",
    "neg_log_likelihood",
    "plan_cost",
    "predict",
    "prior_entropy",
    "quantile_paths",
    "read_votes_csv",
    "sampled_conditional_entropy",
    "save_model",
    "validate_model",
    "with_costs",
    "with_labels",
    "write_votes_csv",
]
