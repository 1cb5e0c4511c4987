"""Scoring models and plans on held-out tasks.

`budget_sweep` is the main harness: split tasks into folds, fit on the
training side, choose a plan per (strategy, budget) cell, execute it against
each test task's recorded votes, and score every requested model kind on the
same vote subsets. Metrics come back per fold and averaged over folds.

All aggregation runs over tasks in sorted task-id order and every random
choice is keyed by task id, so metric rows do not depend on dataset order.

Plan execution (`_execute`) draws each task's votes without replacement:
one 64-bit word per vote, from `_rng.counter_words` keyed by the cell's seed
and the task id, and a path keeps the votes with the smallest words, the
unweighted case of Efraimidis & Spirakis (IPL 2006). A stack's words take
one pass of integer array ops and depend on no `Generator` method.

A fold plans each (strategy, budget) cell on its own, since a cell's plan
seed depends on its budget. It then executes and scores its cells in stacks:
one table holding one copy of the test tasks per cell of the stack, with one
`table_posteriors` call per model kind. A stack holds as many cells as fit
in `_STACK_CELLS` array cells, and at least one, so memory does not grow
with the number of budgets. A task's posterior depends on its own votes
alone, so each cell's slice of the rows has the bits of scoring the cell by
itself, and its NLL is still summed task by task in order.

`budget_sweep` parses its model kinds, strategies, budgets and costs as
inference, the planner and the model types do, before it fits fold 0, so a
bad one is an InputError that costs no fitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from ._rng import counter_words, derive_seed, substream
from .errors import InputError
from .infogain import IgConfig
from .inference import ModelKind, table_posteriors
from .learning import EmConfig, fit_em, fit_nbi
from .model import (
    AccessPlan,
    ApmModel,
    Dataset,
    NbiModel,
    as_config,
    as_count,
    member,
    path_costs,
    with_costs,
)
from .planner import Strategy, _coerce_budget, build_plan

_NLL_FLOOR = 1e-12
# A fold scores at most this many cells of its largest array per stack, so
# the apm kernels' (K, K, N, tasks) float64 arrays stay near 8 MiB each.
_STACK_CELLS = 2**20


def _accuracy(prediction: np.ndarray, truth: np.ndarray) -> float:
    return int(np.count_nonzero(prediction == truth)) / len(truth) if len(truth) else 0.0


def _neg_log_likelihood(at_truth: np.ndarray) -> float:
    total = 0.0  # summed task by task, in order
    for surprise in np.log(np.maximum(at_truth, _NLL_FLOOR)).tolist():
        total -= surprise
    return total


def _execute(
    table: Dataset, plans: Sequence[AccessPlan], seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the votes that each plan buys and of the tasks it short-fills,
    over `table.tiled(len(plans))`: plan c executes on copy c, keyed by seeds[c].

    A (task, path) holding more votes than a plan asks for is a group: it
    keeps the k votes whose words are smallest, equal words keeping the vote
    stored first. Plan c's word for the j-th vote of task t, counting its
    votes in stored order (paths in order, then votes as stored), is word j
    of `counter_words` keyed by `derive_seed(seeds[c], "exec")` XOR the
    task's folded id, and only the votes of groups get one. A task is
    short-filled when some path holds fewer votes than the plan asks for.
    Counts above the table's vote count only short-fill, so they are capped
    at one more than it and every count fits an int64.
    """
    s = table.stored
    v = len(s)
    counts = np.array([[min(c, v + 1) for c in plan.counts] for plan in plans], dtype=np.int64)
    task, path = table.sample_idx[s], table.path_idx[s]
    start = np.flatnonzero(np.diff(task, prepend=-1) | np.diff(path, prepend=-1))
    have = np.diff(start, append=v)
    want = counts[:, path[start]]
    draw = (want > 0) & (want < have)
    keep = np.arange(v) - np.repeat(start, have) < np.repeat(np.where(draw, 0, want), have, axis=1)
    bases = np.array([derive_seed(seed, "exec") for seed in seeds], dtype=np.uint64)
    copy, group = np.divmod(np.flatnonzero(draw), len(start))
    if len(group):
        n = have[group]
        first = np.cumsum(n) - n
        of = np.repeat(np.arange(len(n)), n)  # the group of each word, ascending
        at = (start[group] - first)[of] + np.arange(len(of))  # the stored position of its vote
        tasks = np.flatnonzero(np.diff(task, prepend=-1))
        j = np.arange(v) - np.repeat(tasks, np.diff(tasks, append=v))  # position in its task
        words = counter_words(bases[copy[of]] ^ table.folded_ids[task[at]], j[at])
        order = np.lexsort((words, of))  # group by group, smallest word first
        rank = np.arange(len(words)) - first[of]  # of word order[i] in its group
        keep.reshape(-1)[(copy[of] * v + at)[order[rank < want[copy, group][of]]]] = True
    bought = np.empty_like(keep)
    bought[:, s] = keep
    cell = np.arange(len(plans))[:, None] * len(table) + task[start]  # (copy, task) of a group
    filled = np.bincount(cell[(want > 0) & (want <= have)], minlength=len(plans) * len(table))
    short = filled.reshape(len(plans), -1) < np.count_nonzero(counts, axis=1)[:, None]
    return bought.reshape(-1), short.reshape(-1)


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
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[substream(seed, "folds").permutation(n)] = np.arange(n) % folds
    return [fold_of == f for f in range(folds)]


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
    """Fit on `train`, then score every (strategy, budget) cell on `test`, in
    stacks of cells (`_score_stack`): rows cell by cell, model kinds in order
    within a cell."""
    apm_model, _ = fit_em(train, share_workers=True, cfg=em_cfg)
    apm_model = with_costs(apm_model, costs)
    nbi = None
    if ModelKind.NBI in kinds:
        nbi_model, _ = fit_nbi(train, cfg=em_cfg)
        # nbi scores only the votes of workers it was fitted on
        known = [w in nbi_model.worker_cpts for w in test.workers] + [False]
        nbi = nbi_model, np.array(known, dtype=bool)[test.worker_idx]

    cells = [(strategy, budget) for strategy in strategies for budget in budgets]
    plans = [
        build_plan(
            strategy,
            apm_model,
            budget,
            seed=derive_seed(seed, "plan", fold, strategy.value, str(budget)),
            ig_cfg=ig_cfg,
        ).plan
        for strategy, budget in cells
    ]
    seeds = [derive_seed(seed, "exec", fold, s.value, str(b)) for s, b in cells]
    k = apm_model.num_labels
    size = k * k * test.num_paths * len(test) + len(test.stored)  # apm's terms, the vote masks
    step = max(1, _STACK_CELLS // size)
    return [
        row
        for lo in range(0, len(cells), step)
        for row in _score_stack(
            fold, test, cells[lo : lo + step], plans[lo : lo + step], seeds[lo : lo + step],
            kinds, apm_model, nbi,
        )
    ]


def _score_stack(
    fold: int,
    test: Dataset,
    cells: Sequence[tuple[Strategy, Fraction]],
    plans: Sequence[AccessPlan],
    seeds: Sequence[int],
    kinds: Sequence[ModelKind],
    apm_model: ApmModel,
    nbi: tuple[NbiModel, np.ndarray] | None,
) -> list[FoldRow]:
    """Execute the cells' plans and score them in one table holding one copy of
    the test tasks per cell, cell by cell, once per kind: a task's posterior
    comes from its own votes alone. `nbi` is the nbi model and the mask of the
    test votes it knows the worker of."""
    bought, short = _execute(test, plans, seeds)
    stack = test.tiled(len(cells))
    kept = np.bincount(stack.sample_idx[bought], minlength=len(stack)) > 0
    truth = stack.truth[kept]
    executed_votes = stack.select(kept, bought)
    scores = []
    for kind in kinds:
        if kind is ModelKind.NBI:
            model, votes = nbi[0], stack.select(kept, bought & np.tile(nbi[1], len(cells)))
        else:
            model, votes = apm_model, executed_votes
        probs, pred, _ = table_posteriors(kind, model, votes)
        scores.append((pred, probs[range(len(truth)), truth]))

    n = test.num_samples
    ends = np.cumsum(np.count_nonzero(kept.reshape(len(cells), n), axis=1)).tolist()
    short_filled = np.count_nonzero((kept & short).reshape(len(cells), n), axis=1).tolist()
    rows = []
    for (strategy, budget), lo, hi, short_c in zip(cells, [0] + ends, ends, short_filled):
        for kind, (pred, at_truth) in zip(kinds, scores):
            rows.append(
                FoldRow(
                    model=kind.value,
                    strategy=strategy.value,
                    budget=budget,
                    fold=fold,
                    accuracy=_accuracy(pred[lo:hi], truth[lo:hi]),
                    neg_log_likelihood=_neg_log_likelihood(at_truth[lo:hi]),
                    tasks_evaluated=hi - lo,
                    tasks_skipped=n - (hi - lo),
                    tasks_short_filled=short_c,
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
    for kind, strategy, budget in product(kinds, strats, budget_list):
        cell = cells[kind.value, strategy.value, budget]
        averaged.append(
            MetricRow(
                model=kind.value,
                strategy=strategy.value,
                budget=budget,
                accuracy=sum(r.accuracy for r in cell) / len(cell),
                neg_log_likelihood=sum(r.neg_log_likelihood for r in cell) / len(cell),
                tasks_evaluated=sum(r.tasks_evaluated for r in cell),
                tasks_skipped=sum(r.tasks_skipped for r in cell),
                tasks_short_filled=sum(r.tasks_short_filled for r in cell),
            )
        )
    return SweepResult(rows=tuple(averaged), fold_rows=tuple(fold_rows))
