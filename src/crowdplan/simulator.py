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
from .model import AccessPlan, ApmModel, Cpt, Dataset, as_counts


def _draw(rng: np.random.Generator, probs: np.ndarray) -> int:
    return int(categorical(probs, rng.random(1))[0])


def _path_workers(model: ApmModel, path: int) -> tuple[str, ...] | None:
    table = model.worker_cpts[path]
    if isinstance(table, Cpt):
        return None
    workers = tuple(sorted(table))
    if not workers:
        raise InputError(f"path {path} has no workers to vote")
    return workers


def _generate_task(
    model: ApmModel, counts: Sequence[int], seed: int, index: int, votes: tuple, workers: dict
) -> int:
    """Draw task `index`: return its truth and append its votes to the columns `votes`.

    The columns are task index, path, worker code and label; `workers` codes
    worker ids (None for a shared table) in first-seen order.
    """
    rng = substream(seed, "gen", index)
    y = _draw(rng, model.prior)
    task, paths, worker_code, label = votes
    for path in range(model.num_paths):
        if counts[path] == 0:
            continue
        z = _draw(rng, model.path_cpts[path].rows[y])
        names = _path_workers(model, path)
        for j in range(counts[path]):
            worker = None if names is None else names[j % len(names)]
            table = model.worker_cpts[path] if names is None else model.worker_cpts[path][worker]
            task.append(index)
            paths.append(path)
            worker_code.append(workers.setdefault(worker, len(workers)))
            label.append(_draw(rng, table.rows[z]))
    return y


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
    votes: tuple = ([], [], [], [])
    workers: dict = {}
    truths = [_generate_task(model, counts, seed, t, votes, workers) for t in range(num_tasks)]
    ids = [f"t{t:06d}" for t in range(num_tasks)]
    return Dataset.tabulate(ids, truths, *votes, list(workers), model.num_labels, model.num_paths)


def inject_correlation(data: Dataset, p: float, seed: int = 0) -> Dataset:
    """Replace votes with the running within-path majority with probability p."""
    if not 0.0 <= p <= 1.0:
        raise InputError(f"correlation probability must be in [0, 1], got {p}")
    cols = data.stored_columns()
    labels = []
    task = path = rng = tally = None
    for r, i, label in zip(*(cols[c].tolist() for c in ("task", "path", "label"))):
        if r != task:
            task, path, rng = r, None, substream(seed, "inject", cols["task_ids"][r])
        if i != path:
            path, tally = i, [0] * data.num_labels
        elif rng.random() < p:
            top = max(tally)
            if tally.count(top) == 1:
                label = tally.index(top)
        labels.append(label)
        tally[label] += 1
    return Dataset.tabulate(**{**cols, "label": labels})


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
