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
shape drops R; inference passes a single run.

Evidence has one layout and one kernel. The layout is a table's label
entries (`Entries`): each entry is m votes with one label, read from one
slot's table and added to one cell, a label count vector stored by its
non-zero entries. A table's entries are its runs of votes with one (cell,
slot, label) in canonical order (`label_entries`); the cell is path * n +
task for the access path model and the task for naive Bayes, the slot the
table a vote reads. Exact information gain's count vectors give theirs
directly, one per non-zero count. The entries depend only on the votes, so
a fit builds them once, before its first iteration, and an inference call
once per call. The kernel, `scatter_rows`, adds m times a gathered source
entry into a bin: `evidence` gathers log p(label | z) from the tables into
the cells, and EM's M-step gathers posteriors from the cells into the
tables' count cells. Each index is label-major, entry z * E + e serving
label z of entry e, so one gather and one `np.bincount` per run cover
every label, and a run's sums are those it would get alone.

From the evidence, `path_factors` sums out each path's latent state and
`apm_log_joints` adds the voted paths' factors to the log prior: the access
path model. Naive Bayes over workers (nbi), and over paths (nbap) with the
path marginals p(x | y) = sum_z p(z | y) p(x | z) as tables, adds the log
prior to the evidence of its task cells.

Every normalised sum (a path factor, a posterior, exact IG's p(c)) is scaled
as in the scaled forward algorithm (Rabiner, Proc. IEEE 1989): `scale` takes
one `exp` of each term less the axis's largest, and `normalise` sums in
probability space. A scaled sum below `_UNDERFLOW`, whose log may be finite,
is taken again by `_log_space`, which adds its axis in order, in log space.

Other sums are numpy's own `sum`, so their bytes hold for a fixed numpy
version and SIMD target (see README, Determinism). `np.add.at` is slow per
index, so `scatter_rows` runs one `np.bincount` per run, which adds its
weights in input order as `np.add.at` does: entries add in canonical order.
"""

from __future__ import annotations

from typing import NamedTuple

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


class Entries(NamedTuple):
    """E label entries, each m votes with one label in one slot's table that add to
    one cell. The indices are label-major: index z * E + e serves state or
    outcome z of entry e."""

    columns: np.ndarray    # (K * E,) slot * K * K + z * K + label, in flat (C, K, K) tables
    cells: np.ndarray      # (K * E,) z * num_cells + cell
    m: np.ndarray | None   # (K * E,) the multiplicity, float; None when every entry's is 1
    num_cells: int


def entries(k: int, num_cells: int, cell, slot, label, m) -> Entries:
    """The `Entries` of E entries (cell, slot, label) of multiplicity m."""
    columns = label_major(slot * (k * k) + label, k, k)
    m = None if (m == 1).all() else np.tile(m.astype(np.float64), k)
    return Entries(columns, label_major(cell, k, num_cells), m, num_cells)


def label_entries(table: Dataset, slot: np.ndarray, per_path: bool = True) -> Entries:
    """A table's label entries: each run of votes with one (cell, slot, label) in
    canonical order, its length the multiplicity. The cell is path * n + task
    (`per_path`) or the task, and `slot` (V,) the table each vote reads."""
    cell = table.cells if per_path else table.sample_idx
    new = np.zeros(cell.size, dtype=bool)  # where a run starts
    new[:1] = True
    for column in (cell, slot, table.label):
        new[1:] |= column[1:] != column[:-1]
    start = np.flatnonzero(new)
    num_cells = table.num_samples * (table.num_paths if per_path else 1)
    m = np.diff(start, append=cell.size)
    return entries(table.num_labels, num_cells, cell[start], slot[start], table.label[start], m)


def scatter_rows(
    sources, gather: np.ndarray, bins: np.ndarray, m: np.ndarray | None, out: np.ndarray
) -> np.ndarray:
    """out[r], flattened, holds at j the sum of m[i] * sources[r].flat[gather[i]] over
    every i with bins[i] == j, for one source per run r; m None stands for all 1,
    whose multiply would change no bit.

    One gather and one `np.bincount` per run, so each bin adds its own run's
    entries in index order, from 0.0: the bits of `np.add.at`.
    """
    for run, source in zip(out, sources):
        terms = source.reshape(-1)[gather]
        if m is not None:
            terms *= m
        run[...] = np.bincount(bins, terms, run.size).reshape(run.shape)
    return out


def evidence(log_tables: np.ndarray, e: Entries) -> np.ndarray:
    """evidence[z, r, cell]: the sum over the cell's entries of m log p(label | z) in
    its slot's table of run r, shape (K, R, num_cells), from log tables (R, C, K, K)."""
    out = np.empty((log_tables.shape[-1], len(log_tables), e.num_cells))
    scatter_rows(log_tables, e.columns, e.cells, e.m, out.swapaxes(0, 1))
    return out


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
