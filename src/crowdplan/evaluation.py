"""Scoring models and plans on held-out tasks.

`budget_sweep` is the main harness: split tasks into folds, fit on the
training side, choose a plan per (strategy, budget) cell, execute it against
each test task's recorded votes, and score every requested model kind on the
same vote subsets. Metrics come back per fold and averaged over folds.

All aggregation runs over tasks in sorted task-id order and every random
choice is keyed by task id, so metric rows do not depend on dataset order.

`budget_sweep` parses its model kinds, strategies, budgets and costs as
inference, the planner and the model types do, before it fits fold 0, so a
bad one is an InputError that costs no fitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._rng import derive_seed, substream, substreams
from .errors import InputError
from .infogain import IgConfig
from .inference import ModelKind, Posterior, table_posteriors
from .learning import EmConfig, fit_em, fit_nbi
from .model import (
    AccessPlan,
    Dataset,
    TaskSample,
    as_config,
    as_count,
    member,
    path_costs,
    with_costs,
)
from .planner import Strategy, _coerce_budget, build_plan

_NLL_FLOOR = 1e-12


def _accuracy(prediction: np.ndarray, truth: np.ndarray) -> float:
    return int(np.count_nonzero(prediction == truth)) / len(truth) if len(truth) else 0.0


def _neg_log_likelihood(at_truth: np.ndarray) -> float:
    total = 0.0  # summed task by task, in order
    for surprise in np.log(np.maximum(at_truth, _NLL_FLOOR)).tolist():
        total -= surprise
    return total


def _same_length(posteriors: Sequence[Posterior], truths: Sequence[int]) -> None:
    if len(posteriors) != len(truths):
        raise InputError("posteriors and truths differ in length")


def accuracy(posteriors: Sequence[Posterior], truths: Sequence[int]) -> float:
    """Fraction of tasks whose predicted label matches the truth."""
    _same_length(posteriors, truths)
    return _accuracy(np.array([p.prediction for p in posteriors]), np.array(truths))


def neg_log_likelihood(posteriors: Sequence[Posterior], truths: Sequence[int]) -> float:
    """Sum of -log posterior mass on the true label, floored at 1e-12."""
    _same_length(posteriors, truths)
    return _neg_log_likelihood(np.array([p.probs[t] for p, t in zip(posteriors, truths)]))


@dataclass(frozen=True)
class ExecutedSample:
    """A task restricted to the votes a plan actually buys."""

    sample: TaskSample
    short_filled: bool
    skipped: bool


def _execute(table: Dataset, plan: AccessPlan, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the table's votes that a plan buys and of its short-filled tasks.

    A (task, path) holding more votes than the plan asks for gives a draw
    without replacement, by stored position, from its task's stream, drawn
    path by path; only such tasks get a stream (`_rng.substreams`). A task is
    short-filled when some path holds fewer votes than the plan asks for.
    Counts above the table's vote count only short-fill, so they are capped
    at one more than it and every count fits an int64.
    """
    s = table.stored
    counts = np.array([min(c, len(s) + 1) for c in plan.counts], dtype=np.int64)
    task, path = table.sample_idx[s], table.path_idx[s]
    start = np.flatnonzero(np.diff(task, prepend=-1) | np.diff(path, prepend=-1))
    have = np.diff(start, append=len(s))
    want = counts[path[start]]
    draw = (want > 0) & (want < have)
    keep = np.arange(len(s)) - np.repeat(start, have) < np.repeat(np.where(draw, 0, want), have)
    groups = np.flatnonzero(draw)
    owner = task[start[groups]]
    opens = np.diff(owner, prepend=-1) != 0
    streams = substreams(seed, ("exec",), [table.task_ids[t] for t in owner[opens].tolist()])
    for g, new in zip(groups.tolist(), opens.tolist()):
        rng = next(streams) if new else rng
        keep[start[g] + rng.choice(int(have[g]), size=int(want[g]), replace=False)] = True
    bought = np.empty_like(keep)
    bought[s] = keep
    filled = np.bincount(task[start[(want > 0) & (want <= have)]], minlength=len(table))
    return bought, filled < np.count_nonzero(counts)


def execute_plan_on_sample(
    sample: TaskSample, plan: AccessPlan | Sequence[int], seed: int = 0
) -> ExecutedSample:
    """Draw the plan's vote counts from a task's recorded votes, per path.

    Selection is without replacement; a path with fewer recorded votes than
    requested contributes everything it has and the task is marked
    short-filled. A task left with no votes at all is marked skipped. The
    task's stream is opened only when some path has more votes than it needs;
    the seed is checked either way.
    """
    plan = plan if isinstance(plan, AccessPlan) else AccessPlan(plan)
    labels = [v for votes in sample.votes.values() for _, v in votes] + [sample.truth or 0]
    table = Dataset([sample], len(plan.counts), max(labels) + 1)
    bought, short = _execute(table, plan, seed)
    executed = table.select(np.ones(1, dtype=bool), bought).samples[0]
    return ExecutedSample(sample=executed, short_filled=bool(short[0]), skipped=not bought.any())


@dataclass(frozen=True)
class MetricRow:
    """Fold-averaged scores for one (model, strategy, budget) cell."""

    model: str
    strategy: str
    budget: Fraction
    accuracy: float
    neg_log_likelihood: float
    tasks_evaluated: int
    tasks_skipped: int
    tasks_short_filled: int


@dataclass(frozen=True)
class FoldRow(MetricRow):
    """Scores for one (model, strategy, budget, fold) cell.

    tasks_short_filled counts evaluated tasks that had fewer recorded votes
    on some path than the plan asked for; skipped tasks are not among them.
    """

    fold: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[MetricRow, ...]
    fold_rows: tuple[FoldRow, ...]


def _test_folds(table: Dataset, folds: int, seed: int) -> list[np.ndarray]:
    """Mask of each fold's test tasks; the tasks are dealt out in a seeded shuffle."""
    n = table.num_samples
    if folds == 1:
        return [np.ones(n, dtype=bool)]
    if folds > n:
        raise InputError(f"{folds} folds for {n} tasks")
    order = substream(seed, "folds").permutation(n)
    masks = []
    for f in range(folds):
        test = np.zeros(n, dtype=bool)
        test[order[f::folds]] = True
        masks.append(test)
    return masks


def _score_fold(
    fold: int,
    train: Dataset,
    test: Dataset,
    kinds: Sequence[ModelKind],
    strategies: Sequence[Strategy],
    budgets: Sequence[Fraction],
    ig_cfg: IgConfig,
    em_cfg: EmConfig,
    costs: Sequence[Fraction],
    seed: int,
) -> list[FoldRow]:
    apm_model, _ = fit_em(train, share_workers=True, cfg=em_cfg)
    apm_model = with_costs(apm_model, costs)
    if ModelKind.NBI in kinds:
        nbi_model, _ = fit_nbi(train, cfg=em_cfg)
        # nbi scores only the votes of workers it was fitted on
        known = [w in nbi_model.worker_cpts for w in test.workers] + [False]
        nbi_rows = np.array(known, dtype=bool)[test.worker_idx]

    rows = []
    for strategy in strategies:
        for budget in budgets:
            plan = build_plan(
                strategy,
                apm_model,
                budget,
                seed=derive_seed(seed, "plan", fold, strategy.value, str(budget)),
                ig_cfg=ig_cfg,
            )
            cell_seed = derive_seed(seed, "exec", fold, strategy.value, str(budget))
            bought, short = _execute(test, plan.plan, cell_seed)
            kept = np.bincount(test.sample_idx[bought], minlength=test.num_samples) > 0
            short_filled = int(np.count_nonzero(kept & short))
            truth = test.truth[kept]
            executed = test.select(kept, bought)
            for kind in kinds:
                if kind is ModelKind.NBI:
                    model, votes = nbi_model, test.select(kept, bought & nbi_rows)
                else:
                    model, votes = apm_model, executed
                probs, pred, _ = table_posteriors(kind, model, votes)
                rows.append(
                    FoldRow(
                        model=kind.value,
                        strategy=strategy.value,
                        budget=budget,
                        fold=fold,
                        accuracy=_accuracy(pred, truth),
                        neg_log_likelihood=_neg_log_likelihood(probs[range(len(truth)), truth]),
                        tasks_evaluated=len(truth),
                        tasks_skipped=test.num_samples - len(truth),
                        tasks_short_filled=short_filled,
                    )
                )
    return rows


def budget_sweep(
    data: Dataset,
    model_kinds: Sequence[ModelKind | str],
    strategies: Sequence[Strategy | str],
    budgets: Sequence,
    folds: int = 5,
    ig_cfg: IgConfig | None = None,
    seed: int = 0,
    em_cfg: EmConfig | None = None,
    costs: Sequence[Fraction | int | str] | None = None,
) -> SweepResult:
    """Cross-validated accuracy and likelihood across budgets and strategies."""
    folds = as_count(folds, "folds", 1)
    kinds = [member(ModelKind, k, "model kind") for k in model_kinds]
    strats = [member(Strategy, s, "strategy") for s in strategies]
    try:
        budget_list = [_coerce_budget(b) for b in budgets]
    except InputError as exc:
        raise InputError(f"bad budgets {list(budgets)}: {exc}") from None
    if not kinds or not strats or not budget_list:
        raise InputError("model_kinds, strategies and budgets must be non-empty")
    unlabeled = data.first_unlabeled()
    if unlabeled is not None:
        raise InputError(f"task {unlabeled} has no truth; sweeps need labeled data")
    ig_cfg = as_config(ig_cfg, IgConfig)
    em_cfg = as_config(em_cfg, EmConfig)
    cost_list = path_costs(costs if costs is not None else [1] * data.num_paths, data.num_paths)

    fold_rows = [
        row
        for fold, test in enumerate(_test_folds(data, folds, seed))
        for row in _score_fold(
            fold, data if folds == 1 else data.select(~test), data.select(test),
            kinds, strats, budget_list, ig_cfg, em_cfg, cost_list, seed,
        )
    ]

    cells: dict[tuple, list[FoldRow]] = {}
    for r in fold_rows:  # fold by fold, so each cell's sums run in fold order
        cells.setdefault((r.model, r.strategy, r.budget), []).append(r)
    averaged = []
    for kind in kinds:
        for strategy in strats:
            for budget in budget_list:
                cell = cells[kind.value, strategy.value, budget]
                averaged.append(
                    MetricRow(
                        model=kind.value,
                        strategy=strategy.value,
                        budget=budget,
                        accuracy=sum(r.accuracy for r in cell) / len(cell),
                        neg_log_likelihood=sum(r.neg_log_likelihood for r in cell)
                        / len(cell),
                        tasks_evaluated=sum(r.tasks_evaluated for r in cell),
                        tasks_skipped=sum(r.tasks_skipped for r in cell),
                        tasks_short_filled=sum(r.tasks_short_filled for r in cell),
                    )
                )
    return SweepResult(rows=tuple(averaged), fold_rows=tuple(fold_rows))
