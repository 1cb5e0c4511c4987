"""Batched log-space kernels behind inference, fitting and information gain.

Two kernels give log p(y, x) for n tasks at once, shape (n, K):

* `apm_log_joints` sums the per-path factors of `path_factors`, which sum out
  each path's latent state from evidence log p(x_i | z) of shape (n, N, K_z).
  This is the access path model.
* `direct_log_joints` adds one table row per vote straight onto the outcome.
  This is naive Bayes over workers, and over paths (nbap) when the rows come
  from the path marginals p(x | y) = sum_z p(z | y) p(x | z).

Evidence comes from a `Dataset` (`vote_evidence`) or from label count
vectors (`count_evidence`). Scatter-adds follow the table's canonical row
order, so results do not depend on how the votes were stored.

Two numpy slow paths are avoided, with the same arithmetic as the plain
calls:

* A label or state axis is only K = 2..10 long, and numpy reduces such a
  short trailing axis at tens of nanoseconds per element. `label_sum` and
  `logsumexp` instead make one full-width elementwise pass per entry, adding
  the entries in order from 0.0. numpy's own sum adds up to 7 entries in that
  same order, so for K <= 7 every result equals `a.sum(axis)` bit for bit;
  from K = 8 numpy sums pairwise and the two may differ in the last bit.
* `np.add.at` is slow per index. `scatter_rows` runs one `np.bincount` per
  column instead, which adds its weights in input order, as `np.add.at`
  does, so the sums keep their bits for every K.
"""

from __future__ import annotations

import numpy as np

from .model import Dataset


def log(x) -> np.ndarray:
    """Natural log with log 0 = -inf and no warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def label_sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum over a short label axis: 0.0 plus each entry in order, one pass each."""
    out = 0.0
    for col in np.moveaxis(a, axis, 0):
        out = out + col
    return out


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) along `axis`; a slice of all -inf gives -inf, not NaN.

    The largest terms are split off and the rest added through log1p, the
    same arithmetic as scipy.special.logsumexp, without its per-call overhead.
    """
    cols = np.moveaxis(a, axis, 0)
    a_max = cols[0]
    for col in cols[1:]:
        a_max = np.maximum(a_max, col)
    m = rest = 0.0
    with np.errstate(invalid="ignore"):
        for col in cols:
            top = col == a_max
            m = m + top
            rest = rest + np.exp(col - a_max) * ~top
    return np.where(np.isfinite(a_max), np.log1p(rest / m) + np.log(m) + a_max, a_max)


def scatter_rows(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """out[j] = the sum of rows[v] over every v with index[v] == j, shape (size, K).

    Rows are added in their order, from 0.0: the bits of `np.add.at`.
    """
    return np.stack(
        [np.bincount(index, weights=rows[:, c], minlength=size) for c in range(rows.shape[1])],
        axis=1,
        dtype=np.float64,  # bincount returns ints when there are no rows
    )


def vote_evidence(table: Dataset, slot_idx: np.ndarray, log_tables: np.ndarray) -> np.ndarray:
    """evidence[s, i, z]: the sum over task s's votes on path i of log p(x | z).

    `log_tables[c]` is the log vote table (row z, column x) of slot c, and
    `slot_idx` names each vote's slot.
    """
    n, paths = table.num_samples, table.num_paths
    cells = table.sample_idx * paths + table.path_idx
    rows = log_tables[slot_idx, :, table.label]
    return scatter_rows(cells, rows, n * paths).reshape(n, paths, table.num_labels)


def count_evidence(counts: np.ndarray, log_tables: np.ndarray) -> np.ndarray:
    """evidence[..., i, z] = sum_x counts[..., i, x] log p(x | z) on path i, with 0 log 0 = 0."""
    counts = counts[..., None, :]
    with np.errstate(invalid="ignore"):
        return label_sum(np.where(counts > 0, counts * log_tables, 0.0))


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

    Vote j belongs to task sample_idx[j]. Each task's log prior goes in ahead
    of its votes.
    """
    index = np.concatenate([np.arange(num_samples), sample_idx])
    rows = np.concatenate([np.broadcast_to(log_prior, (num_samples, len(log_prior))), vote_rows])
    return scatter_rows(index, rows, num_samples)
