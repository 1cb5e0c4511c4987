"""Posterior computation for the four aggregation models.

`table_posteriors(kind, model, table)` checks a `Dataset` against the
model's layout once and computes every posterior in one batched pass through
the kernels in `_kernel`, as arrays in table order. The posterior of one task
is that of a one-task table.

All posteriors are computed in log space. The vote table sorts votes into a
canonical order (task id, then path, then worker id, then label) before any
sum is taken, so shuffling the stored votes, or the tasks, changes nothing,
bit for bit.

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

import numpy as np

from ._kernel import (
    apm_log_joints,
    direct_log_joints,
    label_columns,
    log,
    logsumexp,
    path_factors,
    vote_evidence,
)
from .errors import InputError, MissingWorkerCptError
from .model import ApmModel, Dataset, NbiModel, member


class ModelKind(str, enum.Enum):
    MV = "mv"
    NBI = "nbi"
    NBAP = "nbap"
    APM = "apm"


def _log_stack(rows: list[np.ndarray], k: int) -> np.ndarray:
    return log(np.array(rows, dtype=np.float64).reshape(-1, k, k))


def _apm(model: ApmModel, table: Dataset) -> np.ndarray:
    pairs, slot_idx = table.path_worker_slots()
    log_tables = _log_stack(
        [model.vote_cpt(int(p), table.workers[w] if w >= 0 else None).rows for p, w in pairs],
        model.num_labels,
    )
    log_path_cpts = _log_stack([c.rows for c in model.path_cpts], model.num_labels)
    _, factors = path_factors(log_path_cpts, vote_evidence(table, slot_idx, log_tables))
    return apm_log_joints(log(model.prior), factors, table.active)


def _nbap(model: ApmModel, table: Dataset) -> np.ndarray:
    marginals = [pc.rows @ wc.rows for pc, wc in zip(model.path_cpts, model.worker_cpts)]
    rows = label_columns(_log_stack(marginals, model.num_labels), table.path_idx, table.label)
    return direct_log_joints(log(model.prior), table.sample_idx, rows, table.num_samples)


def _nbi(model: NbiModel, table: Dataset) -> np.ndarray:
    if (table.worker_idx < 0).any():
        raise MissingWorkerCptError(str(None))
    log_tables = _log_stack([model.vote_cpt(w).rows for w in table.workers], model.num_labels)
    rows = label_columns(log_tables, table.worker_idx, table.label)
    return direct_log_joints(log(model.prior), table.sample_idx, rows, table.num_samples)


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
        log_joint = _LOG_JOINTS[kind](model, table)
        norm = logsumexp(log_joint, axis=0)
        degenerate = ~np.isfinite(norm)
        with np.errstate(invalid="ignore"):
            probs = np.exp(log_joint - norm)
        probs[:, degenerate] = model.prior[:, None]
        probs = probs.T
    return probs, np.argmax(probs, axis=1), degenerate
