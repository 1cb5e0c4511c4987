"""Posterior computation for the four aggregation models.

`infer(kind, model, samples)` is the entry point: it tabulates the samples'
votes into one `VoteTable`, checks them against the model's layout once, and
computes every posterior in one batched pass through the kernels in
`_kernel`. `predict` and the per-kind functions (`apm_posterior`, ...) run the
same code on a batch of one.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernel import apm_log_joints, direct_log_joints, log, logsumexp, path_factors, vote_evidence
from .errors import InputError, MissingWorkerCptError
from .model import ApmModel, NbiModel, TaskSample, VoteTable


class ModelKind(str, enum.Enum):
    MV = "mv"
    NBI = "nbi"
    NBAP = "nbap"
    APM = "apm"


@dataclass(frozen=True)
class Posterior:
    """A distribution over outcomes plus its argmax summary.

    `prediction` is the smallest index attaining the maximum probability.
    """

    probs: np.ndarray
    prediction: int
    confidence: float
    degenerate_evidence: bool = False

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


def _log_stack(rows: list[np.ndarray], k: int) -> np.ndarray:
    return log(np.array(rows, dtype=np.float64).reshape(-1, k, k))


def _apm(model: ApmModel, table: VoteTable) -> np.ndarray:
    pairs, slot_idx = table.path_worker_slots()
    log_tables = _log_stack(
        [model.vote_cpt(int(p), table.workers[w] if w >= 0 else None).rows for p, w in pairs],
        model.num_labels,
    )
    log_path_cpts = _log_stack([c.rows for c in model.path_cpts], model.num_labels)
    _, factors = path_factors(log_path_cpts, vote_evidence(table, slot_idx, log_tables))
    return apm_log_joints(log(model.prior), factors, table.active)


def _nbap(model: ApmModel, table: VoteTable) -> np.ndarray:
    marginals = [pc.rows @ wc.rows for pc, wc in zip(model.path_cpts, model.worker_cpts)]
    rows = _log_stack(marginals, model.num_labels)[table.path_idx, :, table.label]
    return direct_log_joints(log(model.prior), table.sample_idx, rows, table.num_samples)


def _nbi(model: NbiModel, table: VoteTable) -> np.ndarray:
    if (table.worker_idx < 0).any():
        raise MissingWorkerCptError(str(None))
    log_tables = _log_stack([model.vote_cpt(w).rows for w in table.workers], model.num_labels)
    rows = log_tables[table.worker_idx, :, table.label]
    return direct_log_joints(log(model.prior), table.sample_idx, rows, table.num_samples)


def table_log_joint(kind: ModelKind, model: ApmModel | NbiModel, table: VoteTable) -> np.ndarray:
    """log p(y, x) under `kind` for every task of `table`, shape (n, K), in table order."""
    return {ModelKind.APM: _apm, ModelKind.NBAP: _nbap, ModelKind.NBI: _nbi}[kind](model, table)


def _check(kind: ModelKind | str, model: ApmModel | NbiModel) -> ModelKind:
    try:
        kind = ModelKind(kind)
    except ValueError:
        raise InputError(f"unknown model kind {kind!r}") from None
    if kind is ModelKind.NBI and not isinstance(model, NbiModel):
        raise InputError("nbi prediction needs an NbiModel")
    if kind in (ModelKind.APM, ModelKind.NBAP) and not isinstance(model, ApmModel):
        raise InputError(f"{kind.value} prediction needs an ApmModel")
    if kind is ModelKind.NBAP:
        for i in range(model.num_paths):
            if not model.is_shared(i):
                raise InputError(f"nbap requires shared worker CPTs; path {i} is per-worker")
    return kind


def infer(
    kind: ModelKind | str, model: ApmModel | NbiModel, samples: Sequence[TaskSample]
) -> list[Posterior]:
    """Posteriors of many tasks in one batched pass, in the order of `samples`.

    Votes are checked against the model's layout first: a path index beyond
    an apm model's paths or a label index beyond its labels is an InputError.
    """
    kind = _check(kind, model)
    k = model.num_labels
    table = VoteTable.build(
        samples, k, model.num_paths if isinstance(model, ApmModel) else None
    )
    n = table.num_samples
    if kind is ModelKind.MV:
        counts = np.zeros((n, k))
        np.add.at(counts, (table.sample_idx, table.label), 1.0)
        totals = counts.sum(axis=1, keepdims=True)
        probs = np.where(totals > 0, counts / np.maximum(totals, 1.0), 1.0 / k)
        degenerate = np.zeros(n, dtype=bool)
    else:
        log_joint = table_log_joint(kind, model, table)
        norm = logsumexp(log_joint, axis=1)
        degenerate = ~np.isfinite(norm)
        with np.errstate(invalid="ignore"):
            probs = np.exp(log_joint - norm[:, None])
        probs[degenerate] = model.prior
    back = np.argsort(table.order)
    probs, degenerate = probs[back], degenerate[back]
    pred = np.argmax(probs, axis=1)
    conf = probs[np.arange(n), pred]
    return [
        Posterior(probs=p, prediction=int(y), confidence=float(c), degenerate_evidence=bool(d))
        for p, y, c, d in zip(probs, pred, conf, degenerate)
    ]


def apm_log_joint(model: ApmModel, sample: TaskSample) -> np.ndarray:
    """log p(y, votes) for every outcome y, latent path states summed out."""
    _check(ModelKind.APM, model)
    return _apm(model, VoteTable.build([sample], model.num_labels, model.num_paths))[0]


def apm_posterior(model: ApmModel, sample: TaskSample) -> Posterior:
    """Exact posterior under the full access path model."""
    return infer(ModelKind.APM, model, [sample])[0]


def nbap_posterior(model: ApmModel, sample: TaskSample) -> Posterior:
    """Posterior treating every vote on a path as independent given the outcome.

    Uses the same parameters as `apm_posterior`; only the independence
    assumption differs. Requires shared worker tables on every path.
    """
    return infer(ModelKind.NBAP, model, [sample])[0]


def nbi_posterior(model: NbiModel, sample: TaskSample) -> Posterior:
    """Posterior under per-worker naive Bayes; every vote needs a known worker."""
    return infer(ModelKind.NBI, model, [sample])[0]


def mv_predict(model: ApmModel | NbiModel, sample: TaskSample) -> Posterior:
    """Majority vote. Posterior probabilities are vote shares; no votes means uniform."""
    return infer(ModelKind.MV, model, [sample])[0]


def predict(kind: ModelKind | str, model: ApmModel | NbiModel, sample: TaskSample) -> Posterior:
    """Posterior of one task under `kind`, checking the model type."""
    return infer(kind, model, [sample])[0]
