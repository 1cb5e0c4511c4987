"""Batched log-space kernels behind inference, fitting and information gain.

Two kernels give log p(y, x) for n tasks at once, shape (n, K):

* `apm_log_joints` sums the per-path factors of `path_factors`, which sum out
  each path's latent state from evidence log p(x_i | z) of shape (n, N, K_z).
  This is the access path model.
* `direct_log_joints` adds one table row per vote straight onto the outcome.
  This is naive Bayes over workers, and over paths (nbap) when the rows come
  from the path marginals p(x | y) = sum_z p(z | y) p(x | z).

Evidence comes from a `VoteTable` (`vote_evidence`) or from label count
vectors (`count_evidence`). Scatter-adds follow the table's canonical row
order, so results do not depend on how the votes were stored.
"""

from __future__ import annotations

import numpy as np

from .model import VoteTable


def log(x) -> np.ndarray:
    """Natural log with log 0 = -inf and no warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) along `axis`; a slice of all -inf gives -inf, not NaN.

    The largest terms are split off and the rest added through log1p, the
    same arithmetic as scipy.special.logsumexp, without its per-call overhead.
    """
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = np.sum(top, axis=axis, keepdims=True, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        rest = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=axis, keepdims=True)
    out = np.where(np.isfinite(a_max), np.log1p(rest / m) + np.log(m) + a_max, a_max)
    return np.squeeze(out, axis=axis)


def vote_evidence(table: VoteTable, slot_idx: np.ndarray, log_tables: np.ndarray) -> np.ndarray:
    """evidence[s, i, z]: the sum over task s's votes on path i of log p(x | z).

    `log_tables[c]` is the log vote table (row z, column x) of slot c, and
    `slot_idx` names each vote's slot.
    """
    out = np.zeros((table.num_samples, table.num_paths, table.num_labels))
    np.add.at(out, (table.sample_idx, table.path_idx), log_tables[slot_idx, :, table.label])
    return out


def count_evidence(counts: np.ndarray, log_tables: np.ndarray) -> np.ndarray:
    """evidence[..., i, z] = sum_x counts[..., i, x] log p(x | z) on path i, with 0 log 0 = 0."""
    counts = counts[..., None, :]
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, counts * log_tables, 0.0).sum(axis=-1)


def path_factors(log_path_cpts: np.ndarray, evidence: np.ndarray):
    """Sum out each path's latent state.

    Returns terms[s, i, y, z] = log p(z | y) + evidence[s, i, z] and the path
    factors log p(x_i | y) = logsumexp over z of the terms, shape (n, N, K_y).
    """
    terms = log_path_cpts[None, :, :, :] + evidence[:, :, None, :]
    return terms, logsumexp(terms, axis=3)


def apm_log_joints(
    log_prior: np.ndarray, factors: np.ndarray, active: np.ndarray | None = None
) -> np.ndarray:
    """log p(y, x): the log prior plus the factors of the voted paths.

    `active` (n, N) marks the paths with votes; a path without votes has
    likelihood exactly 1. None means every path has votes.
    """
    if active is not None:
        factors = np.where(active[:, :, None], factors, 0.0)
    return log_prior + factors.sum(axis=1)


def direct_log_joints(
    log_prior: np.ndarray, sample_idx: np.ndarray, vote_rows: np.ndarray, num_samples: int
) -> np.ndarray:
    """log p(y, x) when vote j adds its own row vote_rows[j] = log p(x_j | y).

    Vote j belongs to task sample_idx[j].
    """
    out = np.tile(log_prior, (num_samples, 1))
    np.add.at(out, sample_idx, vote_rows)
    return out
