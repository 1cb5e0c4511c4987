"""Posterior computation for the four aggregation models.

`table_posteriors(kind, model, table)` checks a `Dataset` against the
model's layout once and computes every posterior in one batched pass through
the kernels in `_kernel`, as arrays in table order. The posterior of one task
is that of a one-task table.

Each call lays its votes out once as label entries (`_kernel.label_entries`,
the layout EM fits on): runs of votes with one (cell, slot, label), each
adding m log p(label | .) through one kernel, `_kernel.evidence`. For apm a
cell is path * n + task and a slot the path, or the (path, worker) pair
where a voted path has per-worker tables; for nbap a cell is the task and a
slot the path's marginal table, for nbi the task and the worker. nbap and
nbi add the log prior after the votes.

Posteriors come from the scaled kernel `_kernel.normalise`. The vote table
sorts votes into a canonical order (task id, then path, then worker id, then
label) before any sum is taken, so shuffling the stored votes, or the tasks,
changes nothing, bit for bit.

The four model kinds:

* mv    -- majority vote over all votes, paths ignored.
* nbi   -- naive Bayes with one table per worker, conditioned on the outcome.
* nbap  -- naive Bayes with one effective table per path: the path marginal
           p(x | y) = sum_z p(z | y) p(x | z), applied independently per vote.
* apm   -- the full model; votes in a path are dependent through the latent
           path state, which is summed out exactly.

When evidence has zero probability under every outcome the posterior falls
back to the prior and sets `degenerate_evidence`.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from ._kernel import Entries, apm_log_joints, evidence, label_entries, log, normalise, path_factors
from .errors import InputError, MissingWorkerCptError
from .model import ApmModel, Dataset, NbiModel, member


class ModelKind(str, enum.Enum):
    MV = "mv"
    NBI = "nbi"
    NBAP = "nbap"
    APM = "apm"


def _stack(rows: list[np.ndarray], k: int) -> np.ndarray:
    return np.array(rows, dtype=np.float64).reshape(-1, k, k)


class Slots(NamedTuple):
    """The vote tables of an apm table: each vote's slot, and each slot's path and worker."""

    idx: np.ndarray                 # (V,) the slot of each vote
    path: tuple[int, ...]           # owning path per slot
    worker: tuple[str | None, ...]  # worker id per slot, None when shared


def vote_slots(table: Dataset, shared: bool) -> Slots:
    """One slot per path when `shared`, else one per distinct (path, worker) pair."""
    if shared:
        return Slots(table.path_idx, tuple(range(table.num_paths)), (None,) * table.num_paths)
    pairs, idx = table.path_worker_slots()
    workers = (None,) + table.workers  # worker index -1 is no id
    paths, owners = pairs.T.tolist()
    return Slots(idx, tuple(paths), tuple(workers[w + 1] for w in owners))


def _apm(model: ApmModel, table: Dataset, slots: Slots | None = None,
         entries: Entries | None = None) -> np.ndarray:
    """log p(y, x) (K, n), through the given slots and their `label_entries`, or,
    without them, through one slot per path when every voted path is shared."""
    k, voted = model.num_labels, table.active.any(axis=1).tolist()
    if slots is None:
        slots = vote_slots(table, all(model.is_shared(i) for i, v in enumerate(voted) if v))
        entries = label_entries(table, slots.idx)
    # a voteless path's table is never read
    tables = [model.vote_cpt(p, w).rows if voted[p] else np.ones((k, k))
              for p, w in zip(slots.path, slots.worker)]
    cells = evidence(log(_stack(tables, k))[None], entries).reshape(k, *table.active.shape)
    path_cpts = _stack([c.rows for c in model.path_cpts], k)
    factors, _ = path_factors(path_cpts, cells, posterior=False)
    return apm_log_joints(log(model.prior), factors, table.active)


def _direct(prior: np.ndarray, tables: list[np.ndarray], entries: Entries) -> np.ndarray:
    """log p(y, x) (K, n): the log prior plus the evidence of task cells."""
    return log(prior)[:, None] + evidence(log(_stack(tables, len(prior)))[None], entries)[:, 0]


def _nbap(model: ApmModel, table: Dataset) -> np.ndarray:
    marginals = [pc.rows @ wc.rows for pc, wc in zip(model.path_cpts, model.worker_cpts)]
    return _direct(model.prior, marginals, label_entries(table, table.path_idx, per_path=False))


def _nbi(model: NbiModel, table: Dataset, entries: Entries | None = None) -> np.ndarray:
    """log p(y, x) (K, n), through the given per-worker entries or the table's own."""
    if (table.worker_idx < 0).any():
        raise MissingWorkerCptError(str(None))
    tables = [model.vote_cpt(w).rows for w in table.workers]
    if entries is None:
        entries = label_entries(table, table.worker_idx, per_path=False)
    return _direct(model.prior, tables, entries)


_LOG_JOINTS = {ModelKind.APM: _apm, ModelKind.NBAP: _nbap, ModelKind.NBI: _nbi}


def _check(
    kind: ModelKind | str, model: ApmModel | NbiModel, table: Dataset
) -> tuple[ModelKind, Dataset]:
    """The kind checked against the model, and the table laid out for the model."""
    kind = member(ModelKind, kind, "model kind")
    if kind is ModelKind.NBI and not isinstance(model, NbiModel):
        raise InputError("nbi prediction needs an NbiModel")
    if kind in (ModelKind.APM, ModelKind.NBAP) and not isinstance(model, ApmModel):
        raise InputError(f"{kind.value} prediction needs an ApmModel")
    if kind is ModelKind.NBAP:
        for i in range(model.num_paths):
            if not model.is_shared(i):
                raise InputError(f"nbap requires shared worker CPTs; path {i} is per-worker")
    paths = model.num_paths if isinstance(model, ApmModel) else None
    return kind, table.within(model.num_labels, paths)


def table_log_joint(kind: ModelKind, model: ApmModel | NbiModel, table: Dataset) -> np.ndarray:
    """log p(y, x) under `kind` for every task of `table`, shape (n, K), in table order;
    the table is checked against the model's layout first, as in `table_posteriors`."""
    kind, table = _check(kind, model, table)
    if kind is ModelKind.MV:
        raise InputError("mv has no log joint")
    return _LOG_JOINTS[kind](model, table).T


def table_posteriors(
    kind: ModelKind | str, model: ApmModel | NbiModel, table: Dataset
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probabilities (n, K), prediction and degenerate flag of every task, in table order.

    Votes are checked against the model's layout first: a path index beyond
    an apm model's paths or a label index beyond its labels is an InputError.
    """
    kind, table = _check(kind, model, table)
    k = model.num_labels
    n = table.num_samples
    if kind is ModelKind.MV:
        counts = np.bincount(table.sample_idx * k + table.label, minlength=n * k)
        counts = counts.reshape(n, k).astype(np.float64)
        totals = counts.sum(axis=1, keepdims=True)
        probs = np.where(totals > 0, counts / np.maximum(totals, 1.0), 1.0 / k)
        degenerate = np.zeros(n, dtype=bool)
    else:
        norm, probs = normalise(_LOG_JOINTS[kind](model, table))
        degenerate = ~np.isfinite(norm)
        probs[:, degenerate] = model.prior[:, None]
        probs = probs.T
    return probs, np.argmax(probs, axis=1), degenerate
