"""Parameter fitting: EM for the access path model and per-worker naive Bayes.

One engine handles both the supervised case (truths observed, path states
latent) and the full case (truths and path states latent); a sample with a
known truth simply has its outcome posterior pinned to a point mass. The
per-worker naive Bayes fitter below follows the classic latent-class scheme
over workers.

With smoothing_alpha > 0 the M-step adds alpha pseudo-counts to every table
cell, i.e. EM maximizes the log-likelihood plus alpha * sum(log theta) over
all parameters. That penalized objective is what `FitReport.history` records,
because it is the quantity EM provably never decreases; with alpha = 0 it is
the plain log-likelihood. `final_log_likelihood` is always the plain
observed-data log-likelihood of the returned parameters.

Latent path states are only identified up to relabeling, so after fitting,
each path's states are permuted to put as much mass as possible on the
diagonal of its p(z | y) table. Fitting is bitwise deterministic for a fixed
dataset, config, and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from ._kernel import apm_log_joints, direct_log_joints, log, logsumexp, path_factors, vote_evidence
from ._rng import substream
from .errors import InputError
from .inference import ModelKind, table_log_joint
from .model import (
    AccessPathSpec,
    ApmModel,
    Cpt,
    Dataset,
    LabelSpace,
    NbiModel,
    VoteTable,
    validate_model,
)

_IDENTITY_BLEND = 0.7
_JITTER = 0.02


@dataclass(frozen=True)
class EmConfig:
    """EM settings.

    Args:
        max_iters: hard cap on EM iterations per restart.
        rel_tol: relative objective improvement below which EM stops.
        smoothing_alpha: pseudo-count added to every table cell in the M-step.
        seed: base seed for initialization jitter.
        restarts: independent initializations; the best final objective wins.
    """

    max_iters: int = 500
    rel_tol: float = 1e-6
    smoothing_alpha: float = 1.0
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        if self.max_iters < 1:
            raise InputError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.rel_tol > 0:
            raise InputError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not self.smoothing_alpha >= 0:
            raise InputError(f"smoothing_alpha must be >= 0, got {self.smoothing_alpha}")
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class FitReport:
    """Summary of one fitting run.

    history holds the optimized objective per iteration for the winning
    restart (non-decreasing within 1e-8). sparse_paths lists paths that had no
    votes at all and fell back to uniform tables; sparse_workers lists workers
    below the observation threshold in `fit_nbi`.
    """

    final_log_likelihood: float
    iterations: int
    converged: bool
    restart_index: int
    history: tuple[float, ...] = field(default_factory=tuple)
    sparse_paths: tuple[int, ...] = field(default_factory=tuple)
    sparse_workers: tuple[str, ...] = field(default_factory=tuple)


class _Params(NamedTuple):
    prior: np.ndarray          # (K,)
    path_cpts: np.ndarray      # (N, K, K), row y, col z
    tables: np.ndarray         # (C, K, K), one vote table per slot, row z, col v


class _Slots(NamedTuple):
    idx: np.ndarray                 # (V,) which vote table generated each vote
    path: tuple[int, ...]           # owning path per table
    worker: tuple[str | None, ...]  # worker id per table, None when shared


def _slots(t: VoteTable, share_workers: bool) -> _Slots:
    if share_workers:
        return _Slots(t.path_idx, tuple(range(t.num_paths)), (None,) * t.num_paths)
    if (t.worker_idx < 0).any():
        raise InputError("per-worker fitting requires a worker id on every vote")
    pairs, idx = t.path_worker_slots()
    return _Slots(idx, tuple(int(p) for p, _ in pairs), tuple(t.workers[w] for _, w in pairs))


def _voteless_paths(t: VoteTable) -> tuple[int, ...]:
    return tuple(int(p) for p in np.setdiff1d(np.arange(t.num_paths), t.path_idx))


def _outcome_posterior(log_joint: np.ndarray, truth: np.ndarray):
    """q(y) per task, a point mass where the truth is known, and the log-likelihood."""
    k = log_joint.shape[1]
    norm = logsumexp(log_joint, axis=1)
    with np.errstate(invalid="ignore"):
        q_y = np.exp(log_joint - norm[:, None])
    q_y = np.where(np.isfinite(norm)[:, None], q_y, 1.0 / k)
    known = truth >= 0
    q_y[known] = np.eye(k)[truth[known]]
    at_truth = np.take_along_axis(log_joint, np.maximum(truth, 0)[:, None], axis=1)[:, 0]
    return q_y, float(np.where(known, at_truth, norm).sum())


def _blended_identity(k: int, rng: np.random.Generator) -> np.ndarray:
    base = _IDENTITY_BLEND * np.eye(k) + (1.0 - _IDENTITY_BLEND) / k
    rows = base + rng.uniform(-_JITTER, _JITTER, size=(k, k))
    rows = np.clip(rows, 1e-6, None)
    return rows / rows.sum(axis=1, keepdims=True)


def _init_prior(y_known: np.ndarray, k: int) -> np.ndarray:
    counts = np.bincount(y_known[y_known >= 0], minlength=k).astype(np.float64)
    return (counts + 1.0) / (counts.sum() + k)


def _init_params(t: VoteTable, slots: _Slots, cfg: EmConfig, restart: int) -> _Params:
    rng = substream(cfg.seed, "em-init", restart)
    k = t.num_labels
    path_cpts = np.stack([_blended_identity(k, rng) for _ in range(t.num_paths)])
    tables = np.stack([_blended_identity(k, rng) for _ in slots.path])
    return _Params(prior=_init_prior(t.truth, k), path_cpts=path_cpts, tables=tables)


def _estep(params: _Params, t: VoteTable, slots: _Slots):
    evidence = vote_evidence(t, slots.idx, log(params.tables))      # (n, N, K_z)
    terms, f = path_factors(log(params.path_cpts), evidence)        # f: (n, N, K_y)
    log_joint = apm_log_joints(log(params.prior), f, t.active)      # (n, K_y)
    with np.errstate(invalid="ignore"):
        q_z = np.exp(terms - f[:, :, :, None])
    q_z = np.where(np.isfinite(f)[:, :, :, None], q_z, 1.0 / t.num_labels)
    q_y, loglik = _outcome_posterior(log_joint, t.truth)
    return q_y, q_z, loglik


def _penalty(params: _Params, alpha: float) -> float:
    if alpha == 0.0:
        return 0.0
    return float(
        alpha
        * (
            log(params.prior).sum()
            + log(params.path_cpts).sum()
            + log(params.tables).sum()
        )
    )


def _normalize_rows(counts: np.ndarray) -> np.ndarray:
    sums = counts.sum(axis=-1, keepdims=True)
    safe = np.where(sums > 0, sums, 1.0)
    out = counts / safe
    uniform = 1.0 / counts.shape[-1]
    return np.where(sums > 0, out, uniform)


def _mstep(t: VoteTable, slots: _Slots, q_y: np.ndarray, q_z: np.ndarray, alpha: float) -> _Params:
    prior = _normalize_rows(q_y.sum(axis=0) + alpha)
    path_counts = np.einsum("ky,kiyz->iyz", q_y, q_z) + alpha
    r = np.einsum("ky,kiyz->kiz", q_y, q_z)
    table_counts = np.zeros((len(slots.path), t.num_labels, t.num_labels))
    np.add.at(table_counts.transpose(0, 2, 1), (slots.idx, t.label), r[t.sample_idx, t.path_idx])
    return _Params(
        prior=prior,
        path_cpts=_normalize_rows(path_counts),
        tables=_normalize_rows(table_counts + alpha),
    )


def _run_restart(t: VoteTable, slots: _Slots, cfg: EmConfig, restart: int):
    params = _init_params(t, slots, cfg, restart)
    history: list[float] = []
    loglik = -np.inf
    converged = False
    for _ in range(cfg.max_iters):
        q_y, q_z, loglik = _estep(params, t, slots)
        objective = loglik + _penalty(params, cfg.smoothing_alpha)
        if history and abs(objective - history[-1]) <= cfg.rel_tol * (abs(history[-1]) + 1e-12):
            history.append(objective)
            converged = True
            break
        history.append(objective)
        params = _mstep(t, slots, q_y, q_z, cfg.smoothing_alpha)
    return params, history, loglik, converged


def _align_latent_states(params: _Params, slots: _Slots) -> _Params:
    """Relabel each path's latent states to maximize the diagonal of p(z | y)."""
    path_cpts = params.path_cpts.copy()
    tables = params.tables.copy()
    for i in range(len(path_cpts)):
        _, cols = linear_sum_assignment(-path_cpts[i])
        if np.array_equal(cols, np.arange(len(cols))):
            continue
        path_cpts[i] = path_cpts[i][:, cols]
        for slot, owner in enumerate(slots.path):
            if owner == i:
                tables[slot] = tables[slot][cols, :]
    return _Params(prior=params.prior, path_cpts=path_cpts, tables=tables)


def _to_model(params: _Params, t: VoteTable, slots: _Slots, share_workers: bool) -> ApmModel:
    k = t.num_labels
    uniform = Cpt(np.full((k, k), 1.0 / k))
    voteless = _voteless_paths(t)
    path_cpts: list[Cpt] = []
    worker_cpts = []
    for i in range(t.num_paths):
        if i in voteless:
            path_cpts.append(uniform)
            worker_cpts.append(uniform)
            continue
        path_cpts.append(Cpt(params.path_cpts[i]))
        if share_workers:
            worker_cpts.append(Cpt(params.tables[i]))
        else:
            table = {
                slots.worker[slot]: Cpt(params.tables[slot])
                for slot, owner in enumerate(slots.path)
                if owner == i
            }
            worker_cpts.append(table)
    model = ApmModel(
        labels=LabelSpace(k),
        prior=params.prior,
        paths=tuple(AccessPathSpec(index=i, cost=Fraction(1)) for i in range(t.num_paths)),
        path_cpts=tuple(path_cpts),
        worker_cpts=tuple(worker_cpts),
    )
    problems = validate_model(model)
    if problems:
        raise InputError("fit produced an invalid model: " + "; ".join(problems))
    return model


def _fit_apm(data: Dataset, share_workers: bool, cfg: EmConfig) -> tuple[ApmModel, FitReport]:
    t = data.vote_table()
    slots = _slots(t, share_workers)
    best = None
    for restart in range(cfg.restarts):
        params, history, loglik, converged = _run_restart(t, slots, cfg, restart)
        if best is None or history[-1] > best[1][-1]:
            best = (params, history, loglik, converged, restart)
    params, history, _, converged, restart = best
    params = _align_latent_states(params, slots)
    model = _to_model(params, t, slots, share_workers)
    final_loglik = log_likelihood(model, data) if len(data) else 0.0
    report = FitReport(
        final_log_likelihood=final_loglik,
        iterations=len(history),
        converged=converged,
        restart_index=restart,
        history=tuple(history),
        sparse_paths=_voteless_paths(t),
    )
    return model, report


def fit_supervised(
    data: Dataset, share_workers: bool = True, cfg: EmConfig | None = None
) -> tuple[ApmModel, FitReport]:
    """Fit with every truth observed; only the path states are latent."""
    cfg = cfg or EmConfig()
    for s in data.samples:
        if s.truth is None:
            raise InputError(f"task {s.task_id} has no truth; use fit_em for partial labels")
    return _fit_apm(data, share_workers, cfg)


def fit_em(
    data: Dataset, share_workers: bool = True, cfg: EmConfig | None = None
) -> tuple[ApmModel, FitReport]:
    """Fit with truths optional; unlabeled tasks contribute through their posterior."""
    cfg = cfg or EmConfig()
    return _fit_apm(data, share_workers, cfg)


def log_likelihood(model: ApmModel | NbiModel, data: Dataset) -> float:
    """Observed-data log-likelihood: latent states summed out, truths used when known."""
    if isinstance(model, ApmModel) and (
        data.num_labels != model.num_labels or data.num_paths != model.num_paths
    ):
        raise InputError(
            f"dataset layout ({data.num_paths} paths, {data.num_labels} labels) does not "
            f"match model ({model.num_paths} paths, {model.num_labels} labels)"
        )
    if not len(data):
        return 0.0
    kind = ModelKind.NBI if isinstance(model, NbiModel) else ModelKind.APM
    t = data.vote_table()
    return _outcome_posterior(table_log_joint(kind, model, t), t.truth)[1]


# --- per-worker naive Bayes (latent-class estimation over workers) ---


def _nbi_estep(prior: np.ndarray, tables: np.ndarray, t: VoteTable):
    rows = log(tables)[t.worker_idx, :, t.label]
    log_joint = direct_log_joints(log(prior), t.sample_idx, rows, t.num_samples)
    return _outcome_posterior(log_joint, t.truth)


def _nbi_mstep(t: VoteTable, q_y: np.ndarray, alpha: float):
    prior = _normalize_rows(q_y.sum(axis=0) + alpha)
    counts = np.zeros((len(t.workers), t.num_labels, t.num_labels))
    np.add.at(counts.transpose(0, 2, 1), (t.worker_idx, t.label), q_y[t.sample_idx])
    return prior, _normalize_rows(counts + alpha)


def fit_nbi(
    data: Dataset, cfg: EmConfig | None = None, min_votes: int = 5
) -> tuple[NbiModel, FitReport]:
    """Fit per-worker vote tables and the class prior.

    Workers with fewer than min_votes observed votes are given uniform tables
    and flagged sparse; their few votes still count toward the prior.
    """
    cfg = cfg or EmConfig()
    t = data.vote_table()
    if (t.worker_idx < 0).any():
        raise InputError("nbi fitting requires a worker id on every vote")
    k = t.num_labels
    best = None
    for restart in range(cfg.restarts):
        rng = substream(cfg.seed, "nbi-init", restart)
        prior = _init_prior(t.truth, k)
        tables = np.array([_blended_identity(k, rng) for _ in t.workers]).reshape(-1, k, k)
        history: list[float] = []
        converged = False
        for _ in range(cfg.max_iters):
            q_y, loglik = _nbi_estep(prior, tables, t)
            objective = loglik + (
                cfg.smoothing_alpha * (log(prior).sum() + log(tables).sum())
                if cfg.smoothing_alpha > 0
                else 0.0
            )
            if history and abs(objective - history[-1]) <= cfg.rel_tol * (
                abs(history[-1]) + 1e-12
            ):
                history.append(objective)
                converged = True
                break
            history.append(objective)
            prior, tables = _nbi_mstep(t, q_y, cfg.smoothing_alpha)
        if best is None or history[-1] > best[3][-1]:
            best = (prior, tables, converged, history, restart)
    prior, tables, converged, history, restart = best

    if not (t.truth >= 0).any() and t.workers:
        # No observed truths pin the outcome labels; relabel to put worker
        # agreement mass on the diagonal.
        agreement = tables.sum(axis=0)
        _, cols = linear_sum_assignment(-agreement.T)
        if not np.array_equal(cols, np.arange(k)):
            prior = prior[cols]
            tables = tables[:, cols, :]

    vote_totals = np.bincount(t.worker_idx, minlength=len(t.workers))
    sparse = tuple(w for i, w in enumerate(t.workers) if vote_totals[i] < min_votes)
    uniform = np.full((k, k), 1.0 / k)
    worker_cpts = {}
    for i, w in enumerate(t.workers):
        worker_cpts[w] = Cpt(uniform if w in sparse else tables[i])
    model = NbiModel(
        labels=LabelSpace(k),
        prior=prior,
        worker_cpts=worker_cpts,
        sparse_workers=frozenset(sparse),
    )
    report = FitReport(
        final_log_likelihood=log_likelihood(model, data),
        iterations=len(history),
        converged=converged,
        restart_index=restart,
        history=tuple(history),
        sparse_workers=sparse,
    )
    return model, report
