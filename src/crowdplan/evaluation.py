"""Scoring models and plans on held-out tasks.

`budget_sweep` is the main harness: split tasks into folds, fit on the
training side, choose a plan per (strategy, budget) cell, execute it against
each test task's recorded votes, and score every requested model kind on the
same vote subsets. Metrics come back per fold and averaged over folds.

All aggregation runs over tasks in sorted task-id order and every random
choice is keyed by task id, so metric rows do not depend on dataset order.

Plan execution (`_execute`) draws each task's votes without replacement from
the task's own stream, exactly as numpy's `Generator.choice` would, but
replays the draws of all tasks together in arrays from the streams' raw
Philox words: Floyd's algorithm (Bentley & Floyd, CACM 1987) on
Lemire-bounded 32-bit draws (Lemire, ACM TOMACS 2019). A task whose draws
the replay does not follow calls `choice` itself.

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
from itertools import chain
from typing import Sequence

import numpy as np

from ._rng import _fold, derive_seed, substream, substream_words, substreams
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
# numpy's `Generator.choice(n, k, replace=False)` runs Floyd's algorithm for
# n <= 10,000; above that it may shuffle a tail of all n instead.
_FLOYD_MAX_POPULATION = 10_000
# A group drawing more votes than this takes `rng.choice`, so a replay makes
# at most this many vectorised steps. Each step costs about 10 us, and the
# replay of one such group among 80 small ones broke even with its `choice`
# call near 20-30 picks, of 16 such groups near 40-48 (2-core x86, numpy 2.4).
_REPLAY_MAX_PICKS = 32
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


def _draw_bounds(n: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The group and inclusive upper bound of each 32-bit draw that
    `choice(n[g], k[g], replace=False)` takes, groups in turn, 1 <= k < n.

    Floyd's algorithm takes k draws bounded by n-k .. n-1, then the shuffle of
    the k picks takes k - 1 draws bounded by k-1 .. 1.
    """
    per = 2 * k - 1
    group = np.repeat(np.arange(len(k)), per)
    step = np.arange(len(group)) - np.repeat(np.cumsum(per) - per, per)
    kg = k[group]
    return group, np.where(step < kg, n[group] - kg + step, 2 * kg - 2 - step)


def _lemire_rejects(draws: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Whether numpy's Lemire bounding of each 32-bit draw to 0..bound rejects it,
    so that numpy takes another draw: the low word of draw * (bound + 1) falls
    below (2**32 - 1 - bound) mod (bound + 1)."""
    return (draws * (bound + 1)) & 0xFFFFFFFF < (0xFFFFFFFF - bound) % (bound + 1)


def _floyd(draws: np.ndarray, base: np.ndarray, n: np.ndarray, k: np.ndarray,
           at: np.ndarray, out: np.ndarray) -> None:
    """Set out[at[g] + i] for each i that `choice(n[g], k[g], replace=False)` picks.

    Group g's Floyd draws are draws[base[g]:base[g] + k[g]], none of them
    rejected, 1 <= k < n. Step t bounds each group's draw to 0..j with
    j = n - k + t and picks it, or j when it is already picked. The shuffle
    after Floyd only orders the picks, so it is not replayed. Groups run
    together, one step per pick, the longest first.
    """
    longest = np.argsort(-k, kind="stable")
    k, j0, base, at = k[longest], (n - k)[longest], base[longest], at[longest]
    for t in range(int(k.max(initial=0))):
        live = np.count_nonzero(k > t)
        j = j0[:live] + t
        pick = (draws[base[:live] + t] * (j + 1)) >> 32
        pick = np.where(out[at[:live] + pick], j, pick)
        out[at[:live] + pick] = True


def _execute(
    table: Dataset, plans: Sequence[AccessPlan], seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the votes that each plan buys and of the tasks it short-fills,
    over `table.tiled(len(plans))`: plan c executes on copy c, keyed by seeds[c].

    A (task, path) holding more votes than a plan asks for is a group: it
    draws without replacement, by stored position, from its task's stream for
    that plan, groups in path order. Only tasks with a group get a stream. A
    task is short-filled when some path holds fewer votes than the plan asks
    for. Counts above the table's vote count only short-fill, so they are
    capped at one more than it and every count fits an int64.

    The draws equal `rng.choice(n, k, replace=False)` on the task's stream
    (`_rng.substreams`), group after group, but are replayed in arrays for
    every plan at once. A group of k from n takes 2k - 1 32-bit draws, the
    low then the high half of each raw Philox word, so a task whose groups
    take D draws reads ceil(D / 2) words from one `random_raw` call
    (`_rng.substream_words`). Each draw is checked for a Lemire rejection,
    and Floyd's algorithm then runs for every group at once (`_floyd`).

    A task takes `rng.choice` itself instead, the only other route, when one
    of its groups has n above `_FLOYD_MAX_POPULATION` (where numpy may take a
    tail shuffle, whose picks differ) or k above `_REPLAY_MAX_PICKS`, or when
    any of its draws is rejected (numpy would then take one more draw).
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
    for seed in seeds:
        _fold(seed)  # checked even when nothing is drawn
    copy, group = np.divmod(np.flatnonzero(draw), len(start))
    if len(group):
        g = start[group]
        k = want[copy, group]
        _draw(keep.reshape(-1), table, seeds, copy, copy * v + g, have[group], k, task[g])
    bought = np.empty_like(keep)
    bought[:, s] = keep
    cell = np.arange(len(plans))[:, None] * len(table) + task[start]  # (copy, task) of a group
    filled = np.bincount(cell[(want > 0) & (want <= have)], minlength=len(plans) * len(table))
    short = filled.reshape(len(plans), -1) < np.count_nonzero(counts, axis=1)[:, None]
    return bought.reshape(-1), short.reshape(-1)


def _draw(keep: np.ndarray, table: Dataset, seeds: Sequence[int], copy: np.ndarray,
          at: np.ndarray, n: np.ndarray, k: np.ndarray, task: np.ndarray) -> None:
    """Set keep[at[g] + i] for each i that group g of task `task[g]` picks under
    plan `copy[g]` (see `_execute`).

    Groups come plan by plan, then task by task, each task's in path order,
    with 1 <= k < n.
    """
    opens = (np.diff(copy, prepend=-1) != 0) | (np.diff(task, prepend=-1) != 0)
    first = np.flatnonzero(opens)
    of_task, tasks, copies = np.cumsum(opens) - 1, task[first], copy[first]
    per = 2 * k - 1

    def by_plan(mask: np.ndarray) -> list[tuple[int, list[str], slice]]:
        """The seed, the task ids and the slice of the tasks in `mask` of each plan
        holding any, in order."""
        ids = [table.task_ids[t] for t in tasks[mask].tolist()]
        cuts = np.searchsorted(copies[mask], np.arange(len(seeds) + 1)).tolist()
        return [
            (seed, ids[lo:hi], slice(lo, hi))
            for seed, lo, hi in zip(seeds, cuts, cuts[1:])
            if hi > lo
        ]

    slow = np.add.reduceat((n > _FLOYD_MAX_POPULATION) | (k > _REPLAY_MAX_PICKS), first) > 0
    fast = np.flatnonzero(~slow[of_task])
    if len(fast):
        need = np.add.reduceat(per, first)[~slow]
        size = (need + 1) // 2
        words = np.concatenate(
            [substream_words(seed, ("exec",), ids, size[cut]) for seed, ids, cut in by_plan(~slow)]
        )
        used = np.ones(2 * len(words), dtype=bool)
        used[2 * np.cumsum(size)[need % 2 == 1] - 1] = False  # the spare half of an odd D
        draws = words.astype("<u8", copy=False).view("<u4")[used].astype(np.int64)
        group, bound = _draw_bounds(n[fast], k[fast])
        slow[of_task[fast[group[_lemire_rejects(draws, bound)]]]] = True
        ok = ~slow[of_task[fast]]
        base = np.cumsum(per[fast]) - per[fast]
        _floyd(draws, base[ok], n[fast][ok], k[fast][ok], at[fast][ok], keep)
    if slow.any():
        streams = chain.from_iterable(
            substreams(seed, ("exec",), ids) for seed, ids, _ in by_plan(slow)
        )
        by_choice = np.flatnonzero(slow[of_task])
        for g, new in zip(by_choice.tolist(), opens[by_choice].tolist()):
            rng = next(streams) if new else rng
            keep[at[g] + rng.choice(int(n[g]), size=int(k[g]), replace=False)] = True


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
