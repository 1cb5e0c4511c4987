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

EM fits every restart at once on a run axis: parameters carry a leading run
axis R (prior (R, K), path CPTs (R, N, K, K), vote tables (R, C, K, K)) and
the posteriors put it after their label and state axes (q_y (K, R, n), q_z
(K_y, K_z, R, N, n)). Each run keeps its own initialization stream, objective
history and stopping test; a run that stops leaves the stack. Every sum
adds one run's terms in the order a lone restart adds them, so a stacked
fit gives the bits of fitting its restarts one after another.

Latent path states are only identified up to relabeling, so after fitting,
each path's states are permuted to put as much mass as possible on the
diagonal of its p(z | y) table. Fitting is bitwise deterministic for a fixed
dataset, config, and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import compress
from typing import NamedTuple

import numpy as np

from ._kernel import (
    apm_log_joints,
    direct_log_joints,
    label_columns,
    label_sum,
    log,
    logsumexp,
    path_factors,
    scatter_rows,
    task_sum,
    vote_evidence,
)
from ._rng import _fold, substream
from .errors import InputError, NumericError
from .inference import ModelKind, table_log_joint
from .model import (
    AccessPathSpec,
    ApmModel,
    Cpt,
    Dataset,
    LabelSpace,
    NbiModel,
    as_config,
    as_count,
    as_real,
    check_cells,
    validate_model,
)

_IDENTITY_BLEND = 0.7
_JITTER = 0.02
_MIN_WORKER_VOTES = 5  # fit_nbi gives a worker with fewer votes a uniform table


@dataclass(frozen=True)
class EmConfig:
    """EM settings.

    Args:
        max_iters: hard cap on EM iterations per restart.
        rel_tol: relative objective improvement below which EM stops.
        smoothing_alpha: pseudo-count added to every table cell in the M-step.
        seed: base seed for initialization jitter, an int or a str.
        restarts: independent initializations; the best final objective wins.
    """

    max_iters: int = 500
    rel_tol: float = 1e-6
    smoothing_alpha: float = 1.0
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        for name in ("max_iters", "restarts"):
            object.__setattr__(self, name, as_count(getattr(self, name), name, 1))
        _fold(self.seed)
        if not as_real(self.rel_tol, "rel_tol") > 0:
            raise InputError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not 0 <= as_real(self.smoothing_alpha, "smoothing_alpha") < math.inf:
            raise InputError(f"smoothing_alpha must be finite and >= 0, got {self.smoothing_alpha}")


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
    prior: np.ndarray          # (R, K)
    path_cpts: np.ndarray      # (R, N, K, K), row y, col z
    tables: np.ndarray         # (R, C, K, K), one vote table per slot, row z, col v


class _Slots(NamedTuple):
    idx: np.ndarray                 # (V,) which vote table generated each vote
    path: tuple[int, ...]           # owning path per table
    worker: tuple[str | None, ...]  # worker id per table, None when shared


def _slots(t: Dataset, share_workers: bool) -> _Slots:
    if share_workers:
        return _Slots(t.path_idx, tuple(range(t.num_paths)), (None,) * t.num_paths)
    if (t.worker_idx < 0).any():
        raise InputError("per-worker fitting requires a worker id on every vote")
    if not t.worker_idx.size:
        raise InputError("per-worker fitting needs at least one vote")
    pairs, idx = t.path_worker_slots()
    return _Slots(idx, tuple(int(p) for p, _ in pairs), tuple(t.workers[w] for _, w in pairs))


def _voteless_paths(t: Dataset) -> tuple[int, ...]:
    return tuple(int(p) for p in np.setdiff1d(np.arange(t.num_paths), t.path_idx))


def _slots_by_path(slots: _Slots, num_paths: int) -> list[list[int]]:
    """The slots of each path, in slot order, from one scan of the slots."""
    out: list[list[int]] = [[] for _ in range(num_paths)]
    for slot, owner in enumerate(slots.path):
        out[owner].append(slot)
    return out


def _outcome_posterior(log_joint: np.ndarray, truth: np.ndarray):
    """q(y) of each task in each run from log p(y, x) (K, R, n), a point mass where
    the truth is known, shape (K, R, n), and each run's log-likelihood, shape (R,)."""
    k = log_joint.shape[0]
    norm = logsumexp(log_joint, axis=0)
    with np.errstate(invalid="ignore"):
        q_y = np.exp(log_joint - norm)
    q_y = np.where(np.isfinite(norm), q_y, 1.0 / k)
    known = truth >= 0
    q_y[..., known] = np.eye(k)[:, None, truth[known]]
    at_truth = np.take_along_axis(log_joint, np.maximum(truth, 0)[None, None], axis=0)[0]
    return q_y, np.where(known, at_truth, norm).sum(axis=-1)


def _blended_identities(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """n jittered near-identity K x K tables, (n, K, K), from one draw of n*K*K uniforms."""
    base = _IDENTITY_BLEND * np.eye(k) + (1.0 - _IDENTITY_BLEND) / k
    rows = base + rng.uniform(-_JITTER, _JITTER, size=(n, k, k))
    rows = np.clip(rows, 1e-6, None)
    return rows / rows.sum(axis=-1, keepdims=True)


def _init_prior(y_known: np.ndarray, k: int) -> np.ndarray:
    counts = np.bincount(y_known[y_known >= 0], minlength=k).astype(np.float64)
    return (counts + 1.0) / (counts.sum() + k)


def _init_params(t: Dataset, slots: _Slots, cfg: EmConfig, restart: int) -> _Params:
    rng = substream(cfg.seed, "em-init", restart)
    k = t.num_labels
    path_cpts = _blended_identities(t.num_paths, k, rng)
    tables = _blended_identities(len(slots.path), k, rng)
    return _Params(prior=_init_prior(t.truth, k), path_cpts=path_cpts, tables=tables)


def _estep(logs: _Params, t: Dataset, slots: _Slots):
    """The posteriors and log-likelihoods of every run, from the logs of its parameters."""
    evidence = vote_evidence(t, slots.idx, logs.tables)             # (K_z, R, N, n)
    terms, f = path_factors(logs.path_cpts, evidence)               # f: (K_y, R, N, n)
    log_joint = apm_log_joints(logs.prior.T, f, t.active)           # (K_y, R, n)
    with np.errstate(invalid="ignore"):
        q_z = np.exp(terms - f[:, None])                            # (K_y, K_z, R, N, n)
    q_z = np.where(np.isfinite(f)[:, None], q_z, 1.0 / t.num_labels)
    q_y, loglik = _outcome_posterior(log_joint, t.truth)            # q_y: (K_y, R, n)
    return q_y, q_z, loglik


def _penalty(logs: tuple[np.ndarray, ...], alpha: float):
    """The smoothing term of each run's objective: alpha times the summed logs of its tables."""
    if alpha == 0.0:
        return 0.0
    return alpha * sum(table.reshape(len(table), -1).sum(axis=1) for table in logs)


def _normalize_rows(counts: np.ndarray) -> np.ndarray:
    sums = counts.sum(axis=-1, keepdims=True)
    safe = np.where(sums > 0, sums, 1.0)
    out = counts / safe
    uniform = 1.0 / counts.shape[-1]
    return np.where(sums > 0, out, uniform)


def _label_scatter(num_tables: int, table_idx: np.ndarray, t: Dataset, rows: np.ndarray):
    """counts[r, c, z, x]: the sum of rows[z, r, v] over the votes v on table c with label x."""
    k, runs = t.num_labels, rows.shape[1]
    counts = scatter_rows(table_idx * k + t.label, rows, num_tables * k)
    return np.ascontiguousarray(counts.reshape(k, runs, num_tables, k).transpose(1, 2, 0, 3))


def _prior(q_y: np.ndarray, alpha: float) -> np.ndarray:
    """Each run's prior (R, K) from q_y (K, R, n), its rows contiguous as a lone prior's."""
    return _normalize_rows(np.ascontiguousarray(task_sum(q_y).T) + alpha)


def _mstep(t: Dataset, slots: _Slots, q_y: np.ndarray, q_z: np.ndarray, alpha: float) -> _Params:
    joint = q_y[:, None, :, None] * q_z                                 # (K_y, K_z, R, N, n)
    path_counts = np.ascontiguousarray(task_sum(joint).transpose(2, 3, 0, 1)) + alpha
    r = label_sum(joint, axis=0)                                        # (K_z, R, N, n)
    r = r.reshape(*r.shape[:2], -1)                                     # (K_z, R, N * n)
    table_counts = _label_scatter(len(slots.path), slots.idx, t, np.take(r, t.cells, axis=-1))
    return _Params(
        prior=_prior(q_y, alpha),
        path_cpts=_normalize_rows(path_counts),
        tables=_normalize_rows(table_counts + alpha),
    )


def _em(cfg: EmConfig, init, estep, mstep) -> tuple[tuple[np.ndarray, ...], FitReport]:
    """EM on every restart at once; the highest final objective wins, the first on a tie.

    `init(restart)` gives one restart's parameters; the restarts are stacked
    on a leading run axis. `estep(logs)` gives, from the logs of the stacked
    parameters, the posteriors and each run's log-likelihood, `mstep(*posteriors)`
    the next stacked parameters. A run stops once its objective changes by at
    most `cfg.rel_tol` relative to its last, and leaves the stack with the
    parameters it was evaluated at. Returns the winning restart's parameters
    and a report of it; the fitter fills in `final_log_likelihood`, NaN here,
    and its sparse list.
    """
    params = tuple(np.stack(p) for p in zip(*map(init, range(cfg.restarts))))
    live = list(range(cfg.restarts))  # the restart of each stacked run
    histories = [[] for _ in live]
    final: list = [None] * cfg.restarts
    for _ in range(cfg.max_iters):
        logs = tuple(map(log, params))
        *posteriors, loglik = estep(logs)
        keep = []
        for j, objective in enumerate((loglik + _penalty(logs, cfg.smoothing_alpha)).tolist()):
            history = histories[live[j]]
            if history and abs(objective - history[-1]) <= cfg.rel_tol * (abs(history[-1]) + 1e-12):
                final[live[j]] = tuple(p[j] for p in params)
            else:
                keep.append(j)
            history.append(objective)
        if not keep:
            break
        params = mstep(*posteriors)
        if len(keep) < len(live):
            params = tuple(p[keep] for p in params)
            live = [live[j] for j in keep]
    converged = [p is not None for p in final]
    for j, restart in enumerate(live):
        if not converged[restart]:
            final[restart] = tuple(p[j] for p in params)
    best = 0
    for restart in range(1, cfg.restarts):
        if histories[restart][-1] > histories[best][-1]:
            best = restart
    history = tuple(histories[best])
    return final[best], FitReport(math.nan, len(history), converged[best], best, history)


def _max_assignment(weights: np.ndarray) -> list[int]:
    """The column matched to each row of a square matrix, maximizing the total weight.

    A port of scipy's `rectangular_lsap`, the shortest augmenting path solver
    after Crouse, "On implementing 2D rectangular assignment algorithms"
    (IEEE TAES 2016), for square matrices. It keeps that solver's arithmetic
    and tie rules (columns scanned in reverse order, a free column preferred
    on ties, reduced costs ((min + c) - u) - v, the same dual updates), so it
    returns exactly the columns of `scipy.optimize.linear_sum_assignment(-weights)`.

    Raises NumericError if an entry is NaN or infinite, or if the reduced
    costs overflow, where scipy reports the matrix infeasible.
    """
    if not np.isfinite(weights).all():
        raise NumericError("cannot relabel states: a table holds NaN or an infinity")
    cost = (-weights).tolist()
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows, cols = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            rows.append(i)
            row, u_i = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j], shortest[j] = i, r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] < 0):
                    index, lowest = it, shortest[j]
            if lowest == math.inf:
                raise NumericError("cannot relabel states: the reduced costs overflowed")
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _to_model(params: _Params, t: Dataset, slots: _Slots, share_workers: bool) -> ApmModel:
    """Assemble the fitted model in one pass over the voted paths.

    Each voted path's latent states are relabeled to maximize the diagonal of
    p(z | y), and its slots' vote tables with them. Voteless paths share one
    uniform table.
    """
    k = t.num_labels
    uniform, one = Cpt(np.full((k, k), 1.0 / k)), Fraction(1)
    path_cpts: list[Cpt] = [uniform] * t.num_paths
    worker_cpts: list = [uniform] * t.num_paths
    owned = _slots_by_path(slots, t.num_paths)
    for i in np.unique(t.path_idx).tolist():
        cols = _max_assignment(params.path_cpts[i])
        path_cpts[i] = Cpt(params.path_cpts[i][:, cols])
        if share_workers:
            worker_cpts[i] = Cpt(params.tables[i][cols, :])
        else:
            worker_cpts[i] = {slots.worker[s]: Cpt(params.tables[s][cols, :]) for s in owned[i]}
    model = ApmModel(
        labels=LabelSpace(k),
        prior=params.prior,
        paths=tuple(AccessPathSpec(index=i, cost=one) for i in range(t.num_paths)),
        path_cpts=tuple(path_cpts),
        worker_cpts=tuple(worker_cpts),
    )
    problems = validate_model(model)
    if problems:
        raise InputError("fit produced an invalid model: " + "; ".join(problems))
    return model


def fit_supervised(
    data: Dataset, share_workers: bool = True, cfg: EmConfig | None = None
) -> tuple[ApmModel, FitReport]:
    """Fit with every truth observed; only the path states are latent."""
    unlabeled = data.first_unlabeled()
    if unlabeled is not None:
        raise InputError(f"task {unlabeled} has no truth; use fit_em for partial labels")
    return fit_em(data, share_workers, cfg)


def fit_em(
    data: Dataset, share_workers: bool = True, cfg: EmConfig | None = None
) -> tuple[ApmModel, FitReport]:
    """Fit with truths optional; unlabeled tasks contribute through their posterior."""
    cfg = as_config(cfg, EmConfig)
    k = data.num_labels
    check_cells(data.num_paths * k**2, "fitting every path's table")
    slots = _slots(data, share_workers)
    check_cells(
        cfg.restarts * k**2 * (data.num_paths * max(data.num_samples, 1) + len(slots.path)),
        "fitting every restart's tables and posteriors",
    )
    params, report = _em(
        cfg,
        lambda restart: _init_params(data, slots, cfg, restart),
        lambda logs: _estep(_Params(*logs), data, slots),
        lambda q_y, q_z: _mstep(data, slots, q_y, q_z, cfg.smoothing_alpha),
    )
    model = _to_model(_Params(*params), data, slots, share_workers)
    final = log_likelihood(model, data)
    return model, replace(report, final_log_likelihood=final, sparse_paths=_voteless_paths(data))


def log_likelihood(model: ApmModel | NbiModel, data: Dataset) -> float:
    """Observed-data log-likelihood: latent states summed out, truths used when known;
    a vote or truth outside the model's paths or labels is an InputError."""
    if not len(data):
        return 0.0
    kind = ModelKind.NBI if isinstance(model, NbiModel) else ModelKind.APM
    log_joint = table_log_joint(kind, model, data).T[:, None]  # one run: (K, 1, n)
    return float(_outcome_posterior(log_joint, data.truth)[1][0])


# --- per-worker naive Bayes (latent-class estimation over workers) ---


def _nbi_estep(log_prior: np.ndarray, log_tables: np.ndarray, t: Dataset):
    rows = label_columns(log_tables, t.worker_idx, t.label)                 # (K_y, R, V)
    log_joint = direct_log_joints(log_prior.T, t.sample_idx, rows, t.num_samples)  # (K_y, R, n)
    return _outcome_posterior(log_joint, t.truth)


def _nbi_mstep(t: Dataset, q_y: np.ndarray, alpha: float):
    counts = _label_scatter(len(t.workers), t.worker_idx, t, np.take(q_y, t.sample_idx, axis=-1))
    return _prior(q_y, alpha), _normalize_rows(counts + alpha)              # q_y: (K_y, R, n)


def fit_nbi(data: Dataset, cfg: EmConfig | None = None) -> tuple[NbiModel, FitReport]:
    """Fit per-worker vote tables and the class prior.

    Workers with fewer than _MIN_WORKER_VOTES observed votes are given uniform
    tables and flagged sparse; their few votes still count toward the prior.
    """
    cfg = as_config(cfg, EmConfig)
    if (data.worker_idx < 0).any():
        raise InputError("nbi fitting requires a worker id on every vote")
    k = data.num_labels
    check_cells(
        cfg.restarts * k * (len(data.workers) * k + data.num_samples + len(data.label)),
        "fitting every restart's tables and posteriors",
    )
    (prior, tables), report = _em(
        cfg,
        lambda restart: (
            _init_prior(data.truth, k),
            _blended_identities(len(data.workers), k, substream(cfg.seed, "nbi-init", restart)),
        ),
        lambda logs: _nbi_estep(*logs, data),
        lambda q_y: _nbi_mstep(data, q_y, cfg.smoothing_alpha),
    )

    if not (data.truth >= 0).any() and data.workers:
        # No observed truths pin the outcome labels; relabel to put worker
        # agreement mass on the diagonal.
        agreement = tables.sum(axis=0)
        cols = _max_assignment(agreement.T)
        if cols != list(range(k)):
            prior = prior[cols]
            tables = tables[:, cols, :]

    is_sparse = np.bincount(data.worker_idx, minlength=len(data.workers)) < _MIN_WORKER_VOTES
    sparse = tuple(compress(data.workers, is_sparse))
    uniform = np.full((k, k), 1.0 / k)
    worker_cpts = {}
    for i, w in enumerate(data.workers):
        worker_cpts[w] = Cpt(uniform if is_sparse[i] else tables[i])
    model = NbiModel(
        labels=LabelSpace(k),
        prior=prior,
        worker_cpts=worker_cpts,
        sparse_workers=frozenset(sparse),
    )
    final = log_likelihood(model, data)
    return model, replace(report, final_log_likelihood=final, sparse_workers=sparse)
