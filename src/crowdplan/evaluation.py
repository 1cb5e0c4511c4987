"""Scoring models and plans on held-out tasks.

`budget_sweep` is the main harness: split tasks into folds, fit on the
training side, choose a plan per (strategy, budget) cell, execute it against
each test task's recorded votes, and score every requested model kind on the
same vote subsets. Metrics come back per fold and averaged over folds.

All aggregation runs over tasks in sorted task-id order and every random
choice is keyed by task id, so metric rows do not depend on dataset order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._parallel import map_ordered
from ._rng import derive_seed, substream
from .errors import InputError
from .infogain import IgConfig
from .inference import ModelKind, Posterior, infer
from .learning import EmConfig, fit_em, fit_nbi
from .model import AccessPlan, Dataset, NbiModel, TaskSample, with_costs
from .planner import Strategy, build_plan

_NLL_FLOOR = 1e-12


def accuracy(posteriors: Sequence[Posterior], truths: Sequence[int]) -> float:
    """Fraction of tasks whose predicted label matches the truth."""
    if len(posteriors) != len(truths):
        raise InputError("posteriors and truths differ in length")
    if not posteriors:
        return 0.0
    hits = sum(1 for p, t in zip(posteriors, truths) if p.prediction == t)
    return hits / len(posteriors)


def neg_log_likelihood(posteriors: Sequence[Posterior], truths: Sequence[int]) -> float:
    """Sum of -log posterior mass on the true label, floored at 1e-12."""
    if len(posteriors) != len(truths):
        raise InputError("posteriors and truths differ in length")
    total = 0.0
    for post, t in zip(posteriors, truths):
        total -= float(np.log(max(float(post.probs[t]), _NLL_FLOOR)))
    return total


@dataclass(frozen=True)
class ExecutedSample:
    """A task restricted to the votes a plan actually buys."""

    sample: TaskSample
    short_filled: bool
    skipped: bool


def execute_plan_on_sample(
    sample: TaskSample, plan: AccessPlan | Sequence[int], seed: int = 0
) -> ExecutedSample:
    """Draw the plan's vote counts from a task's recorded votes, per path.

    Selection is without replacement; a path with fewer recorded votes than
    requested contributes everything it has and the task is marked
    short-filled. A task left with no votes at all is marked skipped.
    """
    counts = plan.counts if isinstance(plan, AccessPlan) else tuple(int(c) for c in plan)
    rng = substream(seed, "exec", sample.task_id)
    votes = {}
    short = False
    for path in sorted(sample.votes):
        if path >= len(counts):
            raise InputError(f"task {sample.task_id}: path {path} outside plan")
        want = counts[path]
        have = sample.votes[path]
        if want == 0:
            continue
        if want >= len(have):
            if want > len(have):
                short = True
            votes[path] = have
            continue
        picked = sorted(rng.choice(len(have), size=want, replace=False).tolist())
        votes[path] = tuple(have[i] for i in picked)
    short = short or any(
        counts[p] > 0 and p not in sample.votes for p in range(len(counts))
    )
    executed = TaskSample(task_id=sample.task_id, votes=votes, truth=sample.truth)
    return ExecutedSample(
        sample=executed, short_filled=short, skipped=executed.total_votes == 0
    )


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


@dataclass(frozen=True)
class FoldRow:
    model: str
    strategy: str
    budget: Fraction
    fold: int
    accuracy: float
    neg_log_likelihood: float
    tasks_evaluated: int
    tasks_skipped: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[MetricRow, ...]
    fold_rows: tuple[FoldRow, ...]


def _fold_split(data: Dataset, folds: int, seed: int) -> list[tuple[Dataset, Dataset]]:
    ids = sorted(range(len(data.samples)), key=lambda i: data.samples[i].task_id)
    if folds == 1:
        full = Dataset(
            samples=tuple(data.samples[i] for i in ids),
            num_paths=data.num_paths,
            num_labels=data.num_labels,
        )
        return [(full, full)]
    if folds > len(ids):
        raise InputError(f"{folds} folds for {len(ids)} tasks")
    order = substream(seed, "folds").permutation(len(ids))
    shuffled = [ids[i] for i in order]
    out = []
    for f in range(folds):
        test_ids = set(shuffled[f::folds])
        train = tuple(data.samples[i] for i in ids if i not in test_ids)
        test = tuple(data.samples[i] for i in ids if i in test_ids)
        out.append(
            (
                Dataset(samples=train, num_paths=data.num_paths, num_labels=data.num_labels),
                Dataset(samples=test, num_paths=data.num_paths, num_labels=data.num_labels),
            )
        )
    return out


def _known_workers_only(sample: TaskSample, model: NbiModel) -> TaskSample:
    votes = {
        p: tuple(wv for wv in vs if wv[0] is not None and str(wv[0]) in model.worker_cpts)
        for p, vs in sample.votes.items()
    }
    return TaskSample(task_id=sample.task_id, votes=votes, truth=sample.truth)


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
    nbi_model = None
    if ModelKind.NBI in kinds:
        nbi_model, _ = fit_nbi(train, cfg=em_cfg)

    ordered_tasks = sorted(test.samples, key=lambda s: s.task_id)
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
            executed = [
                execute_plan_on_sample(task, plan.plan, cell_seed)
                for task in ordered_tasks
            ]
            kept = [e for e in executed if not e.skipped]
            skipped = len(executed) - len(kept)
            truths = [e.sample.truth for e in kept]
            samples = [e.sample for e in kept]
            for kind in kinds:
                if kind is ModelKind.NBI:
                    known = [_known_workers_only(s, nbi_model) for s in samples]
                    posts = infer(kind, nbi_model, known)
                else:
                    posts = infer(kind, apm_model, samples)
                rows.append(
                    FoldRow(
                        model=kind.value,
                        strategy=strategy.value,
                        budget=budget,
                        fold=fold,
                        accuracy=accuracy(posts, truths),
                        neg_log_likelihood=neg_log_likelihood(posts, truths),
                        tasks_evaluated=len(kept),
                        tasks_skipped=skipped,
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
    threads: int = 1,
) -> SweepResult:
    """Cross-validated accuracy and likelihood across budgets and strategies."""
    if folds < 1:
        raise InputError(f"folds must be >= 1, got {folds}")
    kinds = [ModelKind(k) for k in model_kinds]
    strats = [Strategy(s) for s in strategies]
    budget_list = [Fraction(b) for b in budgets]
    if not kinds or not strats or not budget_list:
        raise InputError("model_kinds, strategies and budgets must be non-empty")
    for s in data.samples:
        if s.truth is None:
            raise InputError(f"task {s.task_id} has no truth; sweeps need labeled data")
    ig_cfg = ig_cfg or IgConfig()
    em_cfg = em_cfg or EmConfig()
    cost_list = [Fraction(c) for c in costs] if costs is not None else [Fraction(1)] * data.num_paths
    if len(cost_list) != data.num_paths:
        raise InputError(f"{len(cost_list)} costs for {data.num_paths} paths")

    splits = _fold_split(data, folds, seed)
    fold_rows_nested = map_ordered(
        lambda item: _score_fold(
            item[0], item[1][0], item[1][1], kinds, strats, budget_list,
            ig_cfg, em_cfg, cost_list, seed,
        ),
        list(enumerate(splits)),
        threads,
    )
    fold_rows = [row for rows in fold_rows_nested for row in rows]

    averaged = []
    for kind in kinds:
        for strategy in strats:
            for budget in budget_list:
                cell = [
                    r
                    for r in fold_rows
                    if r.model == kind.value
                    and r.strategy == strategy.value
                    and r.budget == budget
                ]
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
                    )
                )
    return SweepResult(rows=tuple(averaged), fold_rows=tuple(fold_rows))
