"""Synthetic crowds: data generation, vote correlation, worker-to-path grouping.

Generation samples ancestrally from a model: truth, then one latent state per
path, then votes. Each task owns one counter-based stream keyed by
(seed, "gen", task index), so generation is reproducible and no task's draws
depend on any other task. A task takes all its uniforms in one call, in the
order: its truth; then for each path with votes in the plan, in path order,
the path's latent state and then its votes in turn. A plan of S_i votes on
path i therefore reads 1 + sum over voted paths of (1 + S_i) uniforms per
task. The j-th vote on a per-worker path is cast by the j-th worker in id
order, wrapping round when the plan asks for more votes than there are
workers.

`inject_correlation` degrades vote independence the way herding does: walking
the votes of a path in stored order, each vote after the first is replaced,
with probability p, by the running majority of the votes already processed in
that path. Ties keep the original vote. With p = 1 and binary labels every
vote in a path equals its first vote. A task takes one uniform per vote after
the first on each of its paths, in stored order, from one stream keyed by
(seed, "inject", task id); a task with no such vote opens no stream.

Every draw maps a uniform u to the first category whose cumulative weight
exceeds u times the row total (`_rng.categorical_rows`). A task takes its n
uniforms from its stream in one call, and `_rng.substreams` derives all the
tasks' stream keys in one pass; neither changes a stream or an output bit.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ._rng import categorical_rows, substreams
from .errors import InputError
from .model import AccessPlan, ApmModel, Cpt, Dataset, as_count, as_counts, as_real, check_cells


def _vote_tables(model: ApmModel, path: int) -> tuple[list[str | None], np.ndarray]:
    """The workers voting on `path`, in round-robin order (None for a shared
    table), and the cumulative rows of each one's table, shape (W, K, K)."""
    table = model.worker_cpts[path]
    if isinstance(table, Cpt):
        return [None], np.cumsum(table.rows, axis=1)[None]
    names = sorted(table)
    if not names:
        raise InputError(f"path {path} has no workers to vote")
    return names, np.stack([np.cumsum(table[w].rows, axis=1) for w in names])


def generate(
    model: ApmModel,
    votes_per_path: AccessPlan | Sequence[int],
    num_tasks: int,
    seed: int = 0,
) -> Dataset:
    """Sample `num_tasks` tasks with the given vote counts per path."""
    num_tasks = as_count(num_tasks, "num_tasks")
    counts = as_counts(votes_per_path, model.num_paths)
    voted = [i for i, c in enumerate(counts) if c > 0]
    width = 1 + sum(1 + counts[i] for i in voted)
    streams = substreams(seed, ("gen",), range(num_tasks))
    # Checked at 0 tasks too: the per-task vote layout is built either way.
    check_cells(max(num_tasks, 1) * width, "simulation")
    u = np.array([rng.random(width) for rng in streams])
    u = u.reshape(num_tasks, width)
    y = categorical_rows(np.cumsum(model.prior)[None], u[:, 0])
    labels, slot_workers, col = [np.zeros((num_tasks, 0), dtype=np.int64)], [], 1
    for i in voted:
        z = categorical_rows(np.cumsum(model.path_cpts[i].rows, axis=1)[y], u[:, col])
        names, edges = _vote_tables(model, i)
        owner = np.arange(counts[i]) % len(names)
        # Vote j of task t draws from row z[t] of its worker's table.
        votes = u[:, col + 1 : col + 1 + counts[i]].T
        labels.append(categorical_rows(edges[owner[:, None], z], votes).T)
        slot_workers.extend(names[w] for w in owner)
        col += 1 + counts[i]
    code = {w: c for c, w in enumerate(dict.fromkeys(slot_workers))}
    return Dataset.tabulate(
        [f"t{t:06d}" for t in range(num_tasks)],
        y,
        np.repeat(np.arange(num_tasks), len(slot_workers)),
        np.tile(np.repeat(voted, [counts[i] for i in voted]), num_tasks),
        np.tile([code[w] for w in slot_workers], num_tasks),
        np.hstack(labels).ravel(),
        list(code) if num_tasks else [],  # no tasks, no worker ids
        model.num_labels,
        model.num_paths,
    )


def inject_correlation(data: Dataset, p: float, seed: int = 0) -> Dataset:
    """Replace votes with the running within-path majority with probability p."""
    if not 0.0 <= as_real(p, "correlation probability") <= 1.0:
        raise InputError(f"correlation probability must be in [0, 1], got {p}")
    cols = data.stored_columns()
    task, path = cols["task"], cols["path"]
    label = cols["label"].copy()
    first = np.ones(len(label), dtype=bool)
    first[1:] = (task[1:] != task[:-1]) | (path[1:] != path[:-1])
    draws = np.bincount(task[~first], minlength=len(data)).tolist()
    drawing = [t for t, m in enumerate(draws) if m]
    streams = substreams(seed, ("inject",), [cols["task_ids"][t] for t in drawing])
    u = [rng.random(draws[t]) for t, rng in zip(drawing, streams)]
    replace = np.zeros(len(label), dtype=bool)
    replace[~first] = np.concatenate([np.empty(0), *u]) < p
    # Walk the votes by position in their (task, path) group, every group at
    # once; the tally counts each group's labels after replacement.
    start = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    position = np.arange(len(label)) - start[group]
    by_position = np.argsort(position, kind="stable")
    tally = np.zeros((len(start), data.num_labels), dtype=np.int64)
    for rows in np.split(by_position, np.cumsum(np.bincount(position))[:-1]):
        g = group[rows]
        seen = tally[g]
        top = seen.max(axis=1)
        take = replace[rows] & ((seen == top[:, None]).sum(axis=1) == 1)
        label[rows[take]] = seen[take].argmax(axis=1)
        tally[g, label[rows]] += 1
    return Dataset.tabulate(**{**cols, "label": label})


def quantile_paths(accuracies: Mapping[str, float], num_paths: int) -> dict[str, int]:
    """Group workers into paths by accuracy quantile.

    Workers are sorted by (accuracy, id) and split into num_paths bands of as
    equal size as possible; band 0 holds the least accurate workers. Returns
    worker id -> path index.
    """
    num_paths = as_count(num_paths, "num_paths", 1)
    n = len(accuracies)
    if n < num_paths:
        raise InputError(f"{n} workers cannot fill {num_paths} paths")
    ranked = sorted(
        accuracies.items(), key=lambda kv: (as_real(kv[1], f"accuracy of worker {kv[0]!r}"), kv[0])
    )
    return {worker: rank * num_paths // n for rank, (worker, _) in enumerate(ranked)}
