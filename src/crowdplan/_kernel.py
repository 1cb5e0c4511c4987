"""Batched log-space kernels behind inference, fitting and information gain.

Layout: the kernels are label-major. The label and state axes come first and
the task axis (or, in information gain, the draw or count-vector axis) comes
last and is contiguous. K is only 2..10, so with the label axis last numpy
would run each elementwise pass as n inner loops of K elements; label-major,
each pass is one inner loop over all n (or N * n) entries.

EM fits all of its restarts at once, so the kernels it calls take an
optional run axis R right after the label and state axes: evidence is
(K_z, R, N, n), state posteriors (K_y, K_z, R, N, n) and log joints (K, R, n), from
tables with a leading run axis, (R, C, K, K). Without it (inference and
information gain) every shape drops R. The vote gather takes each run's
tables at a per-run offset, and a scatter runs over the bins r * size + j,
so a run's sums are those it would get alone.

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
index, so `scatter_rows` runs one `np.bincount` per label, which adds its
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
    log_x: np.ndarray, weights=1.0, axis: int = 0, posterior: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """log s and the posterior w / s, for w = weights * exp(log_x), s its sum along
    `axis` and the weights probabilities broadcasting against `log_x`. Both are
    scaled by `scale`, and taken again in log space where s < `_UNDERFLOW`.
    Without `posterior`, None stands in for the posterior and log s keeps its bits."""
    w, top = scale(log_x, axis)
    w = np.multiply(w, weights, out=w if np.shape(weights) == () else None)
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


def scatter_rows(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """out[:, r, j] = the sum of rows[:, r, v] over every v with index[v] == j, shape
    (K, R, size); rows without a run axis, (K, V), give (K, size).

    One bincount per label, over the bins r * size + index, so each bin adds
    its own run's columns in their order, from 0.0: the bits of `np.add.at`.
    """
    runs = rows.shape[1:-1]
    num_runs = runs[0] if runs else 1
    bins = (np.arange(num_runs)[:, None] * size + index).reshape(-1)
    return np.stack(
        [np.bincount(bins, weights=row.reshape(-1), minlength=num_runs * size) for row in rows],
        dtype=np.float64,  # bincount returns ints when there are no columns
    ).reshape(len(rows), *runs, size)


def label_columns(log_tables: np.ndarray, table_idx: np.ndarray, label: np.ndarray) -> np.ndarray:
    """rows[z, r, v] = log_tables[r, table_idx[v], z, label[v]], shape (K, R, V): column
    label[v] of each vote's K x K table in each run, taken in one flat gather with a
    per-run offset. Tables without a run axis, (C, K, K), give (K, V)."""
    *runs, tables, k, _ = log_tables.shape
    num_runs = runs[0] if runs else 1
    cells = np.arange(num_runs)[:, None] * (tables * k * k) + (table_idx * (k * k) + label)
    rows = log_tables.reshape(-1)[np.arange(0, k * k, k)[:, None, None] + cells]
    return rows.reshape(k, *runs, -1)


def vote_evidence(table: Dataset, slot_idx: np.ndarray, log_tables: np.ndarray) -> np.ndarray:
    """evidence[z, r, i, s]: the sum over task s's votes on path i of log p(x | z) in
    run r, shape (K_z, R, N, n), or (K_z, N, n) for tables without a run axis.

    `log_tables[r, c]` is the log vote table (row z, column x) of slot c, and
    `slot_idx` names each vote's slot. Votes are added by their path-major cells.
    """
    n, paths = table.num_samples, table.num_paths
    rows = label_columns(log_tables, slot_idx, table.label)
    return scatter_rows(table.cells, rows, paths * n).reshape(*rows.shape[:-1], paths, n)


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
    log_prior: np.ndarray, sample_idx: np.ndarray, vote_rows: np.ndarray, num_samples: int
) -> np.ndarray:
    """log p(y, x), shape (K, R, n), when vote j adds its own column
    vote_rows[:, r, j] = log p(x_j | y) in run r. A prior (K,) and rows (K, V)
    give (K, n).

    Vote j belongs to task sample_idx[j]. Each task's log prior (K, R) goes in
    ahead of its votes.
    """
    index = np.concatenate([np.arange(num_samples), sample_idx])
    prior = np.broadcast_to(log_prior[..., None], (*vote_rows.shape[:-1], num_samples))
    return scatter_rows(index, np.concatenate([prior, vote_rows], axis=-1), num_samples)
