"""Information gain of an access plan about the task outcome.

The quality of a plan S (a vote count per path) is IG(Y; X_S) = H(Y) - H(Y | X_S)
in nats. Two evaluation modes:

exact
    Votes on a path are exchangeable given the latent path state, so the sum
    over vote assignments collapses to a sum over per-path label count vectors
    weighted by multinomial multiplicities. The enumeration size is the product
    over paths of C(S_i + K - 1, K - 1), far below K^(sum S_i), and at most
    `EXACT_LIMIT`. Each path's count vectors and factors are built once per
    model content, kept in a memo here, and reused by every later plan that
    puts the same number of votes on that path. The count vectors are label
    entries, one per non-zero (vector, label, count) cell, and their factors
    come from the evidence kernel that inference and EM use
    (`_kernel.evidence`). The memo is found by what its
    tables are computed from: the prior and each path's CPT and shared worker
    CPT, as shapes and bytes. So a model loaded again from the same file, or
    copied with new labels, reuses the tables of the first. A live model
    keeps its memo; besides those, the memos of the `_KEPT` most recently
    used contents stay alive, so at most that many dead models' tables are
    held in memory.

    The gain is IG(Y; X_S) = H(C) - H(C | Y), C the voted paths' count
    vectors. Given Y the paths are independent, so H(C | Y) = sum_i
    H(C_i | Y) (Cover & Thomas, *Elements of Information Theory*, ch. 2); the
    memo keeps each term, prior-weighted, beside its path's table. Only H(C)
    is enumerated. Its p(c) = sum_y p(y, c) is a K-term sum of products of
    two sides, p(y, c') over every voted path but the last (with the prior)
    and the last path's p(c_last | y), each scaled by `_kernel.scale`, in one
    `np.einsum` per block. A sum below `_UNDERFLOW` is taken again by the
    kernel's log-space recompute, -inf only where every term is -inf; such a
    p(c) moves H(C) by less than 1e-247, so what the recompute prevents is
    0 * log 0, a NaN. Blocks of at most `_EXACT_ROWS` count vectors pass on
    two sums each, so peak memory is one side plus one block.

sampled
    A Rao-Blackwellized Monte Carlo estimate: draw whole vote sets from the
    model and average the exact posterior entropy H(Y | x) of each draw. Draws
    are partitioned into fixed-size blocks. A block takes its outcomes y from
    the counter-based stream (seed, "ig-block", block) and each voted path's
    latent states and votes from its own stream (seed, "ig-block", block,
    path), so the result does not depend on evaluation order, and a path's
    factor table log p(x_i | y) depends only on the block, the path and its
    vote count. The standard error reported is std / sqrt(G).

    `sampled_conditional_entropies` scores several plans under one config: it
    draws each block once, builds each distinct (path, votes) table once, and
    reduces each plan's tables exactly as a lone call would, so every value
    equals that of a call with the plan alone, bit for bit. A plan that votes
    on all N paths and its N one-vote extensions need 2N tables per block.
    Vote j of a path reads only its latent state and the path's (1 + j)-th
    row of uniforms, so its draws for c votes are the first c of its draws
    for more: a block draws each path once, for the most votes it needs.

    A greedy search scores its steps through one private holder of each
    block's outcome draws and tables, which `greedy_plan` owns and drops when
    it returns; a lone call makes its own and drops each block once scored.
    A step drops the tables none of its plans use, so the holder keeps at
    most the c_i and c_i + 1 tables of each path and no votes; after a vote
    on path j the next step builds only (j, c_j + 2), redrawing j's stream
    from its start, one table per block.

    A table gathers each draw's factors from the exact memo: c votes over K
    labels give one of C(c + K - 1, K - 1) count vectors (56 for c = 5,
    K = 4), the columns of the memo's label-major (K, V) table for (path, c),
    however many draws a block holds. Scoring works count vector by count
    vector, so a gathered column equals the column scored from the draw's own
    counts, bit for bit. Where that table would hold more count vectors than
    the block has draws, or its dense rank array more than `_RANK_LIMIT`
    entries, the table scores each distinct drawn count vector once instead
    and gathers those columns back to the draws. A block is scored
    label-major too, (K, paths, draws), so every pass runs along the draws.

auto picks exact when the enumeration exact mode would perform, the count
vectors prod_i C(S_i + K - 1, K - 1), is at most both `EXACT_LIMIT` and the
number of votes the sampled estimator would simulate, G * sum S_i. Measured
on a 2-core x86 machine at G = 10^4, one count vector of an enumeration of
10^5 to 10^6 costs 0.2 to 0.5 times one simulated vote (six plans on a K=4,
5-path model), so auto takes exact, which has no sampling error, wherever it
costs at most about 0.5 times what sampling would.

`information_gains` is the one builder of `IgEstimate`s: it resolves each
plan's mode alone and scores all sampled plans in one batched call. Every
planner hands it its candidates as one list.
"""

from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from ._kernel import (
    _MOST_NEGATIVE,
    _UNDERFLOW,
    _log_space,
    apm_log_joints,
    entries,
    evidence,
    log,
    normalise,
    path_factors,
    scale,
)
from ._rng import _fold, categorical_rows, substream, substreams
from .errors import InputError, NumericError, ResourceLimitError
from .model import (
    AccessPlan,
    ApmModel,
    Cpt,
    _frozen_array,
    as_config,
    as_count,
    as_counts,
    check_cells,
    member,
)

EXACT_LIMIT = 1_000_000  # most count vectors one exact enumeration may hold
_BLOCK = 8192  # draws per sampled block
_EXACT_ROWS = 1 << 14  # most count vectors one exact block scores
_RANK_LIMIT = 1 << 16  # most codes a sampled table's dense rank array holds
_NEG_TOL = 1e-9
_AUDIT_VOTES = 3  # largest base vote count per path in check_submodularity
_KEPT = 4  # most recently used model contents whose memos outlive their models


class IgMode(str, enum.Enum):
    EXACT = "exact"
    SAMPLED = "sampled"
    AUTO = "auto"


@dataclass(frozen=True)
class IgConfig:
    """Evaluation settings for information gain.

    Args:
        mode: exact, sampled, or auto.
        num_samples: Monte Carlo draws G for sampled mode.
        seed: base seed for the sampled estimator's streams, an int or a str.
    """

    mode: IgMode = IgMode.AUTO
    num_samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mode", member(IgMode, self.mode, "IG mode"))
        object.__setattr__(self, "num_samples", as_count(self.num_samples, "num_samples", 1))
        _fold(self.seed)


@dataclass(frozen=True)
class IgEstimate:
    """An information gain value with its provenance.

    stderr is 0 for exact mode and std/sqrt(G) for sampled mode.
    """

    value: float
    stderr: float
    mode: IgMode


def prior_entropy(prior: np.ndarray | Sequence[float]) -> float:
    """Shannon entropy of a distribution in nats; 0 log 0 counts as 0.

    InputError unless `prior` is a finite distribution: entries in [0, 1]
    summing to 1.
    """
    p = _frozen_array(prior, "prior", 1)
    found = Cpt(p[None]).violations("prior")
    if found:
        raise InputError("; ".join(found))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return float(-terms.sum())


def _require_shared(model: ApmModel, counts: Sequence[int]) -> None:
    for i, c in enumerate(counts):
        if c > 0 and not model.is_shared(i):
            raise InputError(
                f"information gain needs a shared worker CPT on path {i}; "
                "plans do not identify individual workers"
            )


@lru_cache(maxsize=4096)
def _compositions(total: int, k: int) -> np.ndarray:
    """All k-vectors of non-negative ints summing to total, lexicographic."""
    if k == 1:
        out = np.array([[total]], dtype=np.int64)
    else:
        rows = []
        for first in range(total + 1):
            rest = _compositions(total - first, k - 1)
            block = np.empty((rest.shape[0], k), dtype=np.int64)
            block[:, 0] = first
            block[:, 1:] = rest
            rows.append(block)
        out = np.concatenate(rows, axis=0)
    out.setflags(write=False)
    return out


def _plus(counts: Sequence[int], i: int) -> tuple[int, ...]:
    """`counts` with one more vote on path i."""
    return (*counts[:i], counts[i] + 1, *counts[i + 1 :])


def exact_count_vectors(counts: Sequence[int], k: int) -> int:
    """Size of the exact enumeration for a plan: prod_i C(S_i + K - 1, K - 1)."""
    total = 1
    for c in counts:
        total *= math.comb(c + k - 1, k - 1)
    return total


def _factors(model: ApmModel, path: int, label_counts: np.ndarray) -> np.ndarray:
    """log p(x_path | y) for each row of label counts (V, K) on `path`, shape (K, V),
    from the label entries of the non-zero counts, row by row."""
    v, x = np.nonzero(label_counts)
    e = entries(model.num_labels, len(label_counts), v, 0, x, label_counts[v, x])
    cells = evidence(log(model.worker_cpts[path].rows)[None, None], e)  # (K_z, 1, V)
    factor, _ = path_factors(model.path_cpts[path].rows[None], cells, posterior=False)
    return factor[:, 0]


@lru_cache(maxsize=4096)
def _count_vectors(votes: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every label count vector of `votes` votes over k labels, shape (V, k), and
    its log multinomial multiplicity log(votes!) - sum_j log(c_j!), shape (V,)."""
    vecs = _compositions(votes, k)
    log_fact = np.array([math.lgamma(m + 1) for m in range(votes + 1)])
    log_c = log_fact[votes] - log_fact[vecs].sum(axis=1)
    log_c.setflags(write=False)
    return vecs, log_c


class _Side(NamedTuple):
    """Log probabilities of V count vectors under each label, (K, V), and their
    `scale`: scaled by each column's largest, (K, V), and that largest, (V,)."""

    log_p: np.ndarray
    scaled: np.ndarray
    top: np.ndarray


def _side(log_p: np.ndarray) -> _Side:
    return _Side(log_p, *scale(log_p))


class _PathTable(NamedTuple):
    """One path's exact table for one vote count, over its V label count vectors c."""

    log_c: np.ndarray  # (V,) log multinomial multiplicity of c
    factor: np.ndarray  # (K, V) log p(x | y) of one vote assignment with counts c
    side: _Side  # of log p(c | y) = factor + log_c
    entropy: float  # H(C | Y) = sum_y p(y) H(C | Y = y)


def _count_vector_table(model: ApmModel, path: int, votes: int) -> _PathTable:
    """The `_PathTable` of `votes` votes on `path`.

    Its arrays are label-major and C-contiguous, so exact mode broadcasts each
    label's row along V and sampled mode gathers draws' columns from `factor`.
    """
    vecs, log_c = _count_vectors(votes, model.num_labels)
    factor = np.ascontiguousarray(_factors(model, path, vecs))
    side = _side(factor + log_c)
    log_p = np.maximum(side.log_p, _MOST_NEGATIVE)  # so 0 log 0 gives 0, not NaN
    entropy = -float((model.prior * (np.exp(log_p) * log_p).sum(axis=1)).sum())
    for a in (factor, *side):
        a.setflags(write=False)
    return _PathTable(log_c, factor, side, entropy)


# Each model content's memo: its exact tables, keyed by (path, votes) and built
# on first use, and, taken when the memo is made, its prior entropy H(Y) under
# "h_prior" and the `_side` of its log prior as a (K, 1) column under "prior". A
# model's parameters are frozen and its arrays are its own copies, so an entry
# never goes stale. `_TABLES` finds a live model's memo in one lookup and keeps
# no model alive; `_shared_memo` finds it by content for a model made later, a
# `dataclasses.replace` copy or a reload from the same file.
_TABLES: weakref.WeakKeyDictionary[ApmModel, dict] = weakref.WeakKeyDictionary()


def _content(model: ApmModel) -> tuple:
    """What a model's tables are computed from: its label count, and the shape
    and bytes of its prior and of each path's CPT and shared worker CPT (None
    for a per-worker path). Labels and costs stay out; no table reads them."""
    key = [model.num_labels, model.prior.shape, model.prior.tobytes()]
    for path, workers in zip(model.path_cpts, model.worker_cpts):
        key += [path.shape, path.rows.tobytes()]
        key.append((workers.shape, workers.rows.tobytes()) if isinstance(workers, Cpt) else None)
    return tuple(key)


@lru_cache(maxsize=_KEPT)
def _shared_memo(content: tuple) -> dict:
    """The memo of a model content; the last `_KEPT` contents' memos stay alive."""
    return {}


def _memo(model: ApmModel) -> dict:
    memo = _TABLES.get(model)
    if memo is None:
        memo = _shared_memo(_content(model))
        if not memo:
            memo.update(h_prior=prior_entropy(model.prior), prior=_side(log(model.prior)[:, None]))
        _TABLES[model] = memo
    return memo


def _table(memo: dict, model: ApmModel, path: int, votes: int) -> _PathTable:
    """The model's `_count_vector_table` for (path, votes), from its memo."""
    if (path, votes) not in memo:
        memo[path, votes] = _count_vector_table(model, path, votes)
    return memo[path, votes]


def _block(x: _Side, y: _Side) -> tuple[float, float]:
    """-sum p(c) log p(c) and sum p(c) over the count vectors c = (i, j) that pair
    column i of x with column j of y. Entry (i, j) is laid out at row i, so
    the longer side should be y, along the contiguous axis."""
    pc = np.einsum("yp,yj->pj", x.scaled, y.scaled)
    low = None
    if pc.min() < _UNDERFLOW:
        low = np.nonzero(pc < _UNDERFLOW)
        redone, _ = _log_space(x.log_p[:, low[0]] + y.log_p[:, low[1]])
        pc[low] = 1.0  # its log is replaced below
    log_pc = np.log(pc)
    log_pc += x.top[:, None]
    log_pc += y.top
    if low is not None:
        log_pc[low] = np.maximum(redone, _MOST_NEGATIVE)  # so 0 log 0 gives 0
    pc = np.exp(log_pc, out=pc)
    return -float((pc * log_pc).sum()), float(pc.sum())


def exact_conditional_entropy(model: ApmModel, plan: AccessPlan | Sequence[int]) -> float:
    """H(Y | X_S) = H(Y) - IG(Y; X_S), with IG = H(C) - H(C | Y) as the module
    docstring sets out, by exact enumeration over per-path count vectors, at
    most `EXACT_LIMIT` of them, else ResourceLimitError.

    H(C) pairs two `_Side`s: row p of the outer side, log p(y, c') for the
    count vectors c' of every voted path but the last, with the prior (the
    prior's (K, 1) side alone when one path is voted), and row j of the last
    path's memo side. With a and b the scaled sides,
    log p(c) = log sum_y a[y, p] b[y, j] + top_p + top_j. The (P, V_last)
    pairs are scored in blocks of at most `_EXACT_ROWS`, a range of p, or of
    j when the last path alone is wider than a block; peak memory is the
    outer side and one block.
    """
    counts = as_counts(plan, model.num_paths)
    _require_shared(model, counts)
    k = model.num_labels
    size = exact_count_vectors(counts, k)
    if size > EXACT_LIMIT:
        raise ResourceLimitError(
            f"exact enumeration needs {size} count vectors, limit is {EXACT_LIMIT}"
        )

    memo = _memo(model)
    tables = [_table(memo, model, i, s_i) for i, s_i in enumerate(counts) if s_i > 0]
    if not tables:
        return memo["h_prior"]
    h_cond = sum(t.entropy for t in tables)
    cols = tables.pop().side
    rows = memo["prior"]
    if tables:
        outer = rows.log_p
        for t in tables:
            outer = (outer[:, :, None] + t.side.log_p[:, None, :]).reshape(k, -1)
        rows = _side(outer)

    width = len(cols.top)
    step_p = max(1, _EXACT_ROWS // width)
    step_j = min(width, _EXACT_ROWS)
    h_c = mass = 0.0
    for p in range(0, len(rows.top), step_p):
        x = _Side(*(a[..., p : p + step_p] for a in rows))
        for j in range(0, width, step_j):
            y = _Side(*(a[..., j : j + step_j] for a in cols))
            h, m = _block(x, y) if len(x.top) <= len(y.top) else _block(y, x)
            h_c += h
            mass += m
    if not abs(mass - 1.0) <= 1e-6:
        raise NumericError(f"enumerated evidence mass {mass} is not 1")
    return memo["h_prior"] - (h_c - h_cond)


def _digits(votes: int, k: int) -> np.ndarray:
    """Place values that code a count vector of `votes` votes by the counts of
    labels 0..K-2 as a number in base votes + 1, a code below (votes + 1)^(K-1)."""
    digits = (votes + 1) ** np.arange(k, dtype=np.int64)
    digits[-1] = 0
    return digits


@lru_cache(maxsize=64)
def _ranks(votes: int, k: int) -> np.ndarray:
    """Row of each count vector of `_compositions(votes, k)`, indexed by its code."""
    vecs = _compositions(votes, k)
    rank = np.zeros((votes + 1) ** (k - 1), dtype=np.intp)
    rank[vecs @ _digits(votes, k)] = np.arange(len(vecs))
    rank.setflags(write=False)
    return rank


def _draw_votes(model: ApmModel, path: int, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The votes on one path of each draw, shape (len(u) - 1, draws).

    u[0] draws the path's latent state given the outcomes y and u[1:] the
    votes, one row of uniforms per vote, as `len(u)` consecutive draws of the
    path's stream. Vote j reads u[0] and u[1 + j] alone, so the first c rows
    are the votes a draw of c votes would give, bit for bit.
    """
    z = categorical_rows(np.cumsum(model.path_cpts[path].rows, axis=1)[y], u[0])
    return categorical_rows(np.cumsum(model.worker_cpts[path].rows, axis=1)[z], u[1:])


def _path_factor(model: ApmModel, path: int, v: np.ndarray) -> np.ndarray:
    """log p(x_path | y) for each draw of the votes v (votes, draws) on one path.

    Returns shape (K, draws). Each draw's label counts are coded as in
    `_digits`, and its column is gathered, along axis 1, from the memo's
    label-major exact table for (path, votes) through a dense rank array.
    `_factors` scores count vector by count vector, so a gathered column
    equals the column scored from the draw's own counts, bit for bit. The
    fallback, where that table would hold more count vectors than the block
    has draws or there are more than `_RANK_LIMIT` codes: score each distinct
    drawn count vector once, grouped by code, or one draw per group when a
    code might not fit in int64.
    """
    k = model.num_labels
    votes, draws = v.shape
    codes = (votes + 1) ** (k - 1)
    if codes > np.iinfo(np.int64).max:
        code = np.arange(draws)
    else:
        code = _digits(votes, k)[v].sum(axis=0)
        if codes <= _RANK_LIMIT and math.comb(votes + k - 1, k - 1) <= draws:
            factor = _table(_memo(model), model, path, votes).factor
            return np.take(factor, _ranks(votes, k)[code], axis=1)
    distinct, group = np.unique(code, return_inverse=True)
    member = np.empty(len(distinct), dtype=np.intp)
    member[group] = np.arange(len(group))  # any one draw of each group
    label_counts = (v[:, member, None] == np.arange(k)).sum(axis=0, dtype=np.float64)
    return np.take(_factors(model, path, label_counts), group, axis=1)


class _Block(NamedTuple):
    """A sampled block's outcome draws, (size,), and the factor tables, (K, size),
    built from it so far, keyed by (path, votes)."""

    y: np.ndarray
    tables: dict[tuple[int, int], np.ndarray]


def _new_block(model: ApmModel, seed: int, block: int, size: int) -> _Block:
    rng = substream(seed, "ig-block", block)
    return _Block(categorical_rows(np.cumsum(model.prior)[None], rng.random(size)), {})


def _sample_block(
    model: ApmModel, plans: Sequence[Sequence[int]], seed: int, block: int, held: _Block
) -> list[tuple[float, float]]:
    """(sum H, sum H^2) per plan over the draws of one block.

    Drops the held tables no plan uses and builds the ones missing. Each voted
    path reads its own stream from the start (see the module docstring): a
    path that misses tables draws its latent states and votes once, for the
    most votes it misses, and builds each missing (path, votes) table from
    the first rows of those votes.
    """
    y, tables = held
    size = len(y)
    used = {(i, c) for counts in plans for i, c in enumerate(counts) if c > 0}
    for key in tables.keys() - used:
        del tables[key]
    missing = sorted(used - tables.keys())
    most = dict(missing)  # sorted, so each path's largest count comes last
    check_cells((1 + max(most.values(), default=0)) * size, "sampled information gain")
    for i, rng in zip(most, substreams(seed, ("ig-block", block), most)):
        v = _draw_votes(model, i, y, rng.random((1 + most[i]) * size).reshape(-1, size))
        for c in (c for path, c in missing if path == i):
            tables[i, c] = _path_factor(model, i, v[:c])
    log_prior = log(model.prior)
    out = []
    for counts in plans:
        factors = [tables[i, c] for i, c in enumerate(counts) if c > 0]
        log_joint = apm_log_joints(log_prior, np.stack(factors, axis=1))
        norm, post = normalise(log_joint)
        with np.errstate(invalid="ignore"):
            ent = -np.where(post > 0, post * (log_joint - norm), 0.0).sum(axis=0)
        out.append((float(ent.sum()), float((ent * ent).sum())))
    return out


def sampled_conditional_entropies(
    model: ApmModel,
    plans: Sequence[AccessPlan | Sequence[int]],
    cfg: IgConfig,
) -> list[tuple[float, float]]:
    """Monte Carlo estimates of H(Y | X_S) and their standard errors, one per plan.

    Each value equals that of a call with its plan alone, bit for bit: all
    plans read the same blocks of the same streams, and the factor table of a
    (path, votes) they share is built once.
    """
    cfg = as_config(cfg, IgConfig)
    return _entropies(model, [as_counts(plan, model.num_paths) for plan in plans], cfg, None)


def _entropies(
    model: ApmModel,
    all_counts: list[tuple[int, ...]],
    cfg: IgConfig,
    held: dict[int, _Block] | None,
) -> list[tuple[float, float]]:
    """`sampled_conditional_entropies` of checked counts. `held` keeps each block
    by index across the calls that pass it, all under one model, seed and G;
    None drops each block once it is scored, so a call holds one at a time."""
    for counts in all_counts:
        _require_shared(model, counts)
    voted = [counts for counts in all_counts if sum(counts) > 0]
    g = cfg.num_samples
    sums = [(0.0, 0.0)] * len(voted)
    for b in range((g + _BLOCK - 1) // _BLOCK if voted else 0):
        block = (held or {}).get(b) or _new_block(model, cfg.seed, b, min(_BLOCK, g - b * _BLOCK))
        if held is not None:
            held[b] = block
        scored = _sample_block(model, voted, cfg.seed, b, block)
        sums = [(h + sh, h2 + sh2) for (h, h2), (sh, sh2) in zip(sums, scored)]
    out = []
    totals = iter(sums)
    for counts in all_counts:
        if sum(counts) == 0:
            out.append((_memo(model)["h_prior"], 0.0))
            continue
        total_h, total_h2 = next(totals)
        mean = total_h / g
        if g > 1:
            var = max(0.0, (total_h2 - g * mean * mean) / (g - 1))
        else:
            var = 0.0
        out.append((mean, math.sqrt(var / g)))
    return out


def _resolve_mode(cfg: IgConfig, counts: Sequence[int], k: int) -> IgMode:
    """The mode `information_gains` uses for a plan: cfg.mode, or auto's choice.

    Auto takes exact when the count vectors to enumerate are at most
    `EXACT_LIMIT` and at most the votes sampling would simulate, G per planned
    vote. An empty plan needs no enumeration and counts as exact.
    """
    if cfg.mode is not IgMode.AUTO:
        return cfg.mode
    cap = min(EXACT_LIMIT, cfg.num_samples * max(sum(counts), 1))
    if exact_count_vectors(counts, k) <= cap:
        return IgMode.EXACT
    return IgMode.SAMPLED


def information_gains(
    model: ApmModel,
    plans: Sequence[AccessPlan | Sequence[int]],
    cfg: IgConfig | None = None,
) -> list[IgEstimate]:
    """IG(Y; X_S) = H(Y) - H(Y | X_S) for each plan, in nats, in the mode `cfg`
    resolves for that plan alone. All sampled plans share one
    `sampled_conditional_entropies` call, which a lone call matches bit for bit.
    """
    return _information_gains(model, plans, cfg, None)


def _information_gains(
    model: ApmModel,
    plans: Sequence[AccessPlan | Sequence[int]],
    cfg: IgConfig | None,
    held: dict[int, _Block] | None,
) -> list[IgEstimate]:
    """`information_gains`, with the sampled blocks kept in `held` as `_entropies` says."""
    cfg = as_config(cfg, IgConfig)
    all_counts = [as_counts(plan, model.num_paths) for plan in plans]
    modes = [_resolve_mode(cfg, counts, model.num_labels) for counts in all_counts]
    h_prior = _memo(model)["h_prior"]
    sampled = [c for c, mode in zip(all_counts, modes) if mode is IgMode.SAMPLED and any(c)]
    entropies = iter(_entropies(model, sampled, cfg, held))
    out = []
    for counts, mode in zip(all_counts, modes):
        value, stderr = 0.0, 0.0
        if any(counts) and mode is IgMode.EXACT:
            value = h_prior - exact_conditional_entropy(model, counts)
            if value < 0:
                if value < -_NEG_TOL:
                    raise NumericError(f"exact information gain {value} below -{_NEG_TOL}")
                value = 0.0
        elif any(counts):
            h_cond, stderr = next(entropies)
            value = h_prior - h_cond
        out.append(IgEstimate(value=value, stderr=stderr, mode=mode))
    return out


def information_gain(
    model: ApmModel,
    plan: AccessPlan | Sequence[int],
    cfg: IgConfig | None = None,
) -> IgEstimate:
    """IG(Y; X_S) = H(Y) - H(Y | X_S) for a plan, in nats."""
    return information_gains(model, [plan], cfg)[0]


@dataclass(frozen=True)
class SubmodularityReport:
    """Outcome of randomized diminishing-returns checks on exact IG.

    Each trial draws nested plans S <= S' and a path v, then compares the
    marginal gain of one extra vote on v at S against the same addition at S'.
    `worst_margin` is the most negative value of (gain at S) - (gain at S')
    seen; submodularity predicts it stays above -1e-9.
    """

    trials: int
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...], int, float], ...]
    monotonicity_violations: tuple[tuple[tuple[int, ...], int, float], ...]
    worst_margin: float

    @property
    def ok(self) -> bool:
        return not self.violations and not self.monotonicity_violations


def check_submodularity(model: ApmModel, trials: int, seed: int = 0) -> SubmodularityReport:
    """Randomized check that exact IG, as `information_gains` gives it to the planner,
    has diminishing returns over vote multisets of at most _AUDIT_VOTES votes per path."""
    n = model.num_paths
    trials = as_count(trials, "trials")
    cfg = IgConfig(mode=IgMode.EXACT)
    violations = []
    mono_violations = []
    worst = math.inf
    for rng in substreams(seed, ("submod",), range(trials)):
        big = tuple(int(v) for v in rng.integers(0, _AUDIT_VOTES + 1, size=n))
        small = tuple(int(rng.integers(0, c + 1)) for c in big)
        v = int(rng.integers(0, n))
        plans = [small, _plus(small, v), big, _plus(big, v)]
        ig_small, ig_small_v, ig_big, ig_big_v = (
            est.value for est in information_gains(model, plans, cfg)
        )
        gain_small = ig_small_v - ig_small
        gain_big = ig_big_v - ig_big
        margin = gain_small - gain_big
        worst = min(worst, margin)
        if margin < -_NEG_TOL:
            violations.append((small, big, v, margin))
        for base, gain in ((small, gain_small), (big, gain_big)):
            if gain < -_NEG_TOL:
                mono_violations.append((base, v, gain))
    return SubmodularityReport(
        trials=trials,
        violations=tuple(violations),
        monotonicity_violations=tuple(mono_violations),
        worst_margin=worst if trials else 0.0,
    )
