"""Synthetic crowds: data generation, vote correlation, worker-to-path grouping.

Generation samples ancestrally from a model: truth, then one latent state per
path, then votes. Each task owns one counter-based stream keyed by
(seed, task index) and draws in a fixed order, so generation is reproducible
and no task's draws depend on any other task.

`inject_correlation` degrades vote independence the way herding does: walking
the votes of a path in stored order, each vote after the first is replaced,
with probability p, by the running majority of the votes already processed in
that path. Ties keep the original vote. With p = 1 and binary labels every
vote in a path equals its first vote.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ._rng import categorical, substream
from .errors import InputError
from .model import AccessPlan, ApmModel, Cpt, Dataset, TaskSample, Vote, as_counts


def _draw(rng: np.random.Generator, probs: np.ndarray) -> int:
    return int(categorical(rng, probs, 1)[0])


def _path_workers(model: ApmModel, path: int) -> tuple[str, ...] | None:
    table = model.worker_cpts[path]
    if isinstance(table, Cpt):
        return None
    workers = tuple(sorted(table))
    if not workers:
        raise InputError(f"path {path} has no workers to vote")
    return workers


def _generate_task(
    model: ApmModel, counts: Sequence[int], seed: int, index: int
) -> TaskSample:
    rng = substream(seed, "gen", index)
    y = _draw(rng, model.prior)
    votes: dict[int, tuple[Vote, ...]] = {}
    for path in range(model.num_paths):
        if counts[path] == 0:
            continue
        z = _draw(rng, model.path_cpts[path].rows[y])
        workers = _path_workers(model, path)
        collected = []
        for j in range(counts[path]):
            worker = None if workers is None else workers[j % len(workers)]
            table = model.worker_cpts[path] if workers is None else model.worker_cpts[path][worker]
            collected.append((worker, _draw(rng, table.rows[z])))
        votes[path] = tuple(collected)
    return TaskSample(task_id=f"t{index:06d}", votes=votes, truth=y)


def generate(
    model: ApmModel,
    votes_per_path: AccessPlan | Sequence[int],
    num_tasks: int,
    seed: int = 0,
) -> Dataset:
    """Sample `num_tasks` tasks with the given vote counts per path."""
    if num_tasks < 0:
        raise InputError(f"num_tasks must be non-negative, got {num_tasks}")
    counts = as_counts(votes_per_path, model.num_paths)
    samples = tuple(_generate_task(model, counts, seed, t) for t in range(num_tasks))
    return Dataset(samples=samples, num_paths=model.num_paths, num_labels=model.num_labels)


def _inject_task(sample: TaskSample, p: float, seed: int, num_labels: int) -> TaskSample:
    rng = substream(seed, "inject", sample.task_id)
    votes: dict[int, tuple[Vote, ...]] = {}
    for path in sorted(sample.votes):
        processed: list[Vote] = []
        tally = np.zeros(num_labels, dtype=np.int64)
        for j, (worker, label) in enumerate(sample.votes[path]):
            if j > 0 and rng.random() < p:
                top = int(tally.max())
                leaders = np.flatnonzero(tally == top)
                if len(leaders) == 1:
                    label = int(leaders[0])
            processed.append((worker, label))
            tally[label] += 1
        votes[path] = tuple(processed)
    return TaskSample(task_id=sample.task_id, votes=votes, truth=sample.truth)


def inject_correlation(data: Dataset, p: float, seed: int = 0) -> Dataset:
    """Replace votes with the running within-path majority with probability p."""
    if not 0.0 <= p <= 1.0:
        raise InputError(f"correlation probability must be in [0, 1], got {p}")
    samples = tuple(_inject_task(s, p, seed, data.num_labels) for s in data.samples)
    return Dataset(samples=samples, num_paths=data.num_paths, num_labels=data.num_labels)


def quantile_paths(accuracies: Mapping[str, float], num_paths: int) -> dict[str, int]:
    """Group workers into paths by accuracy quantile.

    Workers are sorted by (accuracy, id) and split into num_paths bands of as
    equal size as possible; band 0 holds the least accurate workers. Returns
    worker id -> path index.
    """
    if num_paths < 1:
        raise InputError(f"num_paths must be >= 1, got {num_paths}")
    n = len(accuracies)
    if n < num_paths:
        raise InputError(f"{n} workers cannot fill {num_paths} paths")
    ranked = sorted(accuracies.items(), key=lambda kv: (kv[1], kv[0]))
    return {worker: rank * num_paths // n for rank, (worker, _) in enumerate(ranked)}
