"""Batched log-space kernels behind inference, fitting and information gain.

Layout: the kernels are label-major. The label and state axes come first and
the task axis (or, in information gain, the draw or count-vector axis) comes
last and is contiguous. K is only 2..10, so with the label axis last numpy
would run each elementwise pass as n inner loops of K elements; label-major,
each pass is one inner loop over all n (or N * n) entries.

EM fits all of its restarts at once, so the kernels it calls take a run
axis R right after the label and state axes: evidence is (K_z, R, N, n),
state posteriors (K_y, K_z, R, N, n) and log joints (K, R, n), from tables
with a leading run axis, (R, C, K, K). Without it (information gain) every
shape drops R; inference passes a single run. The vote kernels gather and
scatter through indices that depend only on the votes, so a fit builds them
once, before its first iteration, and an inference call once per call. Each
index is label-major (`label_major`), entry z * V + v serving label z of
vote v, so one `np.take` and one `np.bincount` per run cover every label,
and a run's sums are those it would get alone.

Two kernels give log p(y, x) for n tasks at once, shape (K, n):

* `apm_log_joints` sums the per-path factors of `path_factors`, which sum out
  each path's latent state from evidence log p(x_i | z) of shape (K_z, N, n).
  This is the access path model.
* `direct_log_joints` adds one table column per vote straight onto the
  outcome. This is naive Bayes over workers, and over paths (nbap) when the
  columns come from the path marginals p(x | y) = sum_z p(z | y) p(x | z).

Evidence comes from a `Dataset` (`vote_evidence`, over the path-major cells
path * n + task) or from label count vectors (`count_evidence`, which keeps
the count vectors' own layout, label axis last; information gain transposes
its result before `path_factors`). Scatter-adds follow the table's canonical
vote order, so results do not depend on how the votes were stored.

Every normalised sum (a path factor, a posterior, exact IG's p(c)) is scaled
as in the scaled forward algorithm (Rabiner, Proc. IEEE 1989): `scale` takes
one `exp` of each term less the axis's largest, and `normalise` sums in
probability space. A scaled sum below `_UNDERFLOW`, whose log may be finite,
is taken again by `_log_space`, which adds its axis in order, in log space.

Other sums are numpy's own `sum`, so their bytes hold for a fixed numpy
version and SIMD target (see README, Determinism). `np.add.at` is slow per
index, so `scatter_rows` runs one `np.bincount` per run, which adds its
weights in input order as `np.add.at` does: the sums keep their bits.
"""

from __future__ import annotations

import numpy as np

from .model import Dataset

_UNDERFLOW = 1e-250  # scaled sums below this are taken again in log space
_MOST_NEGATIVE = -1.7976931348623157e308  # the most negative float


def log(x) -> np.ndarray:
    """Natural log with log 0 = -inf and no warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def _log_space(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log sum_k exp(terms[k]) and posterior exp(terms - that) over axis 0, in the
    log1p arithmetic of scipy's logsumexp; all -inf gives -inf and a uniform posterior."""
    top = terms.max(axis=0)
    m = rest = 0.0
    with np.errstate(invalid="ignore"):
        for row in terms:
            at_top = row == top
            m = m + at_top
            rest = rest + np.exp(row - top) * ~at_top
        norm = np.where(np.isfinite(top), np.log1p(rest / m) + np.log(m) + top, top)
        post = np.exp(terms - norm)
    return norm, np.where(np.isfinite(norm), post, 1.0 / len(terms))


def scale(log_x: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """exp(log_x - top) and top, the largest of `log_x` along `axis` (dropped); a
    slice of all -inf scales to zeros (no -inf - -inf is formed), its top -inf."""
    top = log_x.max(axis=axis, keepdims=True)
    e = log_x - np.maximum(top, _MOST_NEGATIVE)
    return np.exp(e, out=e), top.squeeze(axis)


def normalise(
    log_x: np.ndarray, weights: np.ndarray | None = None, axis: int = 0, posterior: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """log s and the posterior w / s, for w = weights * exp(log_x) (exp(log_x) without
    weights), s its sum along `axis` and the weights probabilities broadcasting
    against `log_x`. Both are scaled by `scale`, and taken again in log space where
    s < `_UNDERFLOW`. Without `posterior`, None stands in for the posterior and
    log s keeps its bits."""
    w, top = scale(log_x, axis)
    if weights is None:
        weights = 1.0
    else:
        w = w * weights
    s = w.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        post = np.divide(w, s, out=w) if posterior else None
        s = s.squeeze(axis)
        norm = np.log(s) + top
    if (s < _UNDERFLOW).any():
        low = np.nonzero(s < _UNDERFLOW)
        terms = [np.moveaxis(np.broadcast_to(a, w.shape), axis, -1)[low] for a in (weights, log_x)]
        norm[low], at_low = _log_space((log(terms[0]) + terms[1]).T)
        if posterior:
            np.moveaxis(post, axis, -1)[low] = at_low.T
    return norm, post


def label_major(index: np.ndarray, k: int, stride: int) -> np.ndarray:
    """index + z * stride for each label z in turn, shape (K * len(index),): entry
    z * len(index) + v serves label z of entry v."""
    return (np.arange(k)[:, None] * stride + index).reshape(-1)


def scatter_rows(sources, gather: np.ndarray, bins: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[r], flattened, holds at j the sum of sources[r].flat[gather[i]] over every
    i with bins[i] == j, for one source per run r.

    One `np.take` and one `np.bincount` per run, so each bin adds its own run's
    entries in index order, from 0.0: the bits of `np.add.at`.
    """
    for run, source in zip(out, sources):
        run[...] = np.bincount(bins, np.take(source, gather), run.size).reshape(run.shape)
    return out


def vote_columns(slot_idx: np.ndarray, label: np.ndarray, k: int) -> np.ndarray:
    """Each vote's log p(label | z) in its slot's flattened (C, K, K) tables, slot * K * K
    + z * K + label, label-major."""
    return label_major(slot_idx * (k * k) + label, k, k)


def vote_cells(table: Dataset) -> np.ndarray:
    """Each vote's path-major evidence cell, z * N * n + path * n + task, label-major."""
    return label_major(table.cells, table.num_labels, table.num_paths * table.num_samples)


def vote_evidence(log_tables: np.ndarray, columns: np.ndarray, cells: np.ndarray, table: Dataset):
    """evidence[z, r, i, s]: the sum over task s's votes on path i of log p(x | z) in
    run r, shape (K_z, R, N, n).

    `log_tables[r, c]` is the log vote table (row z, column x) of slot c; `columns`
    (`vote_columns`) and `cells` (`vote_cells`) place each vote in them and in the
    evidence. Votes are added in table order.
    """
    out = np.empty((table.num_labels, len(log_tables), table.num_paths, table.num_samples))
    scatter_rows(log_tables, columns, cells, out.swapaxes(0, 1))
    return out


def prior_first(table: Dataset, slot_idx: np.ndarray, num_slots: int):
    """The columns and task bins of `direct_log_joints`: first the K * n log priors,
    z * n + task, then each vote's `vote_columns` and its task z * n + task."""
    k, n = table.num_labels, table.num_samples
    priors = label_major(np.full(n, num_slots * k * k), k, k)
    columns = np.concatenate([priors, vote_columns(slot_idx, table.label, k)])
    tasks = np.concatenate([np.arange(k * n), label_major(table.sample_idx, k, n)])
    return columns, tasks


def count_evidence(counts: np.ndarray, log_tables: np.ndarray) -> np.ndarray:
    """evidence[..., i, z] = sum_x counts[..., i, x] log p(x | z) on path i, with 0 log 0 = 0."""
    counts = counts[..., None, :]
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, counts * log_tables, 0.0).sum(axis=-1)


def path_factors(path_cpts: np.ndarray, evidence: np.ndarray, posterior: bool = True):
    """The path factors log p(x_i | y) = log sum_z p(z | y) p(x_i | z), shape
    (K_y, R, N, n), and state posteriors q_z[y, z, r, i, s], (K_y, K_z, R, N, n),
    by `normalise` from the CPTs p(z | y) (R, N, K, K) and the evidence
    log p(x_i | z) (K_z, R, N, n). Without the run axis every shape drops it.
    Only EM reads q_z; without `posterior` it is None, and the factors keep their bits.
    """
    d = path_cpts.ndim
    weights = path_cpts.transpose(d - 2, d - 1, *range(d - 2))[..., None]
    return normalise(evidence[None], weights, 1, posterior)


def apm_log_joints(
    log_prior: np.ndarray, factors: np.ndarray, active: np.ndarray | None = None
) -> np.ndarray:
    """log p(y, x), shape (K, R, n): the log prior (K, R) plus the factors
    (K, R, N, n) of the voted paths, added path by path in order. A prior (K,)
    and factors (K, N, n) give (K, n).

    `active` (N, n) marks the paths with votes; a path without votes has
    likelihood exactly 1. None means every path has votes.
    """
    if active is not None:
        factors = np.where(active, factors, 0.0)
    return log_prior[..., None] + factors.sum(axis=-2)


def direct_log_joints(
    log_prior: np.ndarray,
    log_tables: np.ndarray,
    columns: np.ndarray,
    tasks: np.ndarray,
    num_samples: int,
) -> np.ndarray:
    """log p(y, x), shape (K, R, n), when each vote adds its own column log p(x | y) of
    its slot's table, from the log priors (R, K) and tables (R, C, K, K).

    `columns` and `tasks` come from `prior_first`: each task's log prior goes in
    ahead of its votes, gathered from an extra table C whose row y holds log p(y).
    """
    runs, _, k, _ = log_tables.shape
    out = np.empty((k, runs, num_samples))
    sources = (np.append(t, np.repeat(p, k)) for t, p in zip(log_tables, log_prior))
    scatter_rows(sources, columns, tasks, out.swapaxes(0, 1))
    return out
