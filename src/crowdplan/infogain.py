"""Information gain of an access plan about the task outcome.

The quality of a plan S (a vote count per path) is IG(Y; X_S) = H(Y) - H(Y | X_S)
in nats. Two evaluation modes:

exact
    Votes on a path are exchangeable given the latent path state, so the sum
    over vote assignments collapses to a sum over per-path label count vectors
    weighted by multinomial multiplicities. The enumeration size is the product
    over paths of C(S_i + K - 1, K - 1), far below K^(sum S_i).

sampled
    A Rao-Blackwellized Monte Carlo estimate: draw whole vote sets from the
    model and average the exact posterior entropy H(Y | x) of each draw. Draws
    are partitioned into fixed-size blocks with one counter-based stream per
    (seed, block), so the result does not depend on evaluation order. The
    standard error reported is std / sqrt(G).

    A block of n draws reads its stream in a fixed layout: n uniforms for the
    outcomes, then for each voted path, in path order, n for its latent state
    and n per vote. A path's factor table log p(x_i | y) is therefore fixed by
    the path, the stream row where its draws start and its vote count.
    `sampled_conditional_entropies` scores several plans under one config: it
    draws each block once, builds each distinct table once, and reduces each
    plan's tables exactly as a lone call would, so every value equals its own
    `sampled_conditional_entropy` call bit for bit. A plan that votes on all
    N paths and its N one-vote extensions need 3N - 1 tables per block
    instead of (N + 1) N: the plan's N, one per extension for the path it
    grows, and one per later path, whose draws every extension shifts by the
    same single row.

auto picks exact when the enumeration exact mode would perform, the count
vectors prod_i C(S_i + K - 1, K - 1), is at most both `exact_limit` and the
number of votes the sampled estimator would simulate, G * sum S_i. One count
vector costs about as much as one simulated vote, so auto takes exact, which
has no sampling error, wherever it is no dearer than sampling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from ._kernel import apm_log_joints, count_evidence, log, logsumexp, path_factors
from ._rng import categorical, categorical_rows, substream
from .errors import InputError, NumericError, ResourceLimitError
from .model import AccessPlan, ApmModel, Cpt, as_counts

_BLOCK = 8192
_NEG_TOL = 1e-9


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
        seed: base seed for the sampled estimator's streams.
        exact_limit: largest enumeration exact mode will attempt.
    """

    mode: IgMode = IgMode.AUTO
    num_samples: int = 10_000
    seed: int = 0
    exact_limit: int = 1_000_000

    def __post_init__(self):
        object.__setattr__(self, "mode", IgMode(self.mode))
        if self.num_samples < 1:
            raise InputError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.exact_limit < 1:
            raise InputError(f"exact_limit must be >= 1, got {self.exact_limit}")


@dataclass(frozen=True)
class IgEstimate:
    """An information gain value with its provenance.

    stderr is 0 for exact mode and std/sqrt(G) for sampled mode.
    """

    value: float
    stderr: float
    mode: IgMode


def prior_entropy(prior: np.ndarray | Sequence[float]) -> float:
    """Shannon entropy of a distribution in nats; 0 log 0 counts as 0."""
    p = np.asarray(prior, dtype=np.float64)
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


def exact_count_vectors(counts: Sequence[int], k: int) -> int:
    """Size of the exact enumeration for a plan: prod_i C(S_i + K - 1, K - 1)."""
    total = 1
    for c in counts:
        total *= math.comb(c + k - 1, k - 1)
    return total


def exact_conditional_entropy(
    model: ApmModel, plan: AccessPlan | Sequence[int], exact_limit: int = 1_000_000
) -> float:
    """H(Y | X_S) by exact enumeration over per-path count vectors."""
    counts = as_counts(plan, model.num_paths)
    _require_shared(model, counts)
    k = model.num_labels
    size = exact_count_vectors(counts, k)
    if size > exact_limit:
        raise ResourceLimitError(
            f"exact enumeration needs {size} count vectors, limit is {exact_limit}"
        )

    log_terms = log(model.prior)[None, :]
    log_mult = np.zeros(1)
    for i, s_i in enumerate(counts):
        if s_i == 0:
            continue
        vecs = _compositions(s_i, k)
        log_c = gammaln(s_i + 1) - gammaln(vecs + 1).sum(axis=1)
        evidence = count_evidence(vecs[:, None, :], log(model.worker_cpts[i].rows)[None])
        _, factor = path_factors(log(model.path_cpts[i].rows)[None], evidence)
        log_terms = (log_terms[:, None, :] + factor[None, :, 0, :]).reshape(-1, k)
        log_mult = (log_mult[:, None] + log_c[None, :]).reshape(-1)

    log_pxy = log_terms + log_mult[:, None]
    log_px = logsumexp(log_pxy, axis=1)
    with np.errstate(invalid="ignore"):
        pxy = np.exp(log_pxy)
        contrib = np.where(pxy > 0, pxy * (log_px[:, None] - log_pxy), 0.0)
    mass = float(pxy.sum())
    if not abs(mass - 1.0) <= 1e-6:
        raise NumericError(f"enumerated evidence mass {mass} is not 1")
    return float(contrib.sum())


def _path_factor(model: ApmModel, path: int, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """log p(x_path | y) for each draw of `len(u) - 1` votes on one path.

    u[0] draws the path's latent state and u[1:] the votes, one row of
    uniforms per vote, as `len(u)` consecutive draws of a block's stream.
    """
    z = categorical_rows(np.cumsum(model.path_cpts[path].rows, axis=1)[y], u[0])
    v = categorical_rows(np.cumsum(model.worker_cpts[path].rows, axis=1)[z], u[1:])
    label_counts = (v[:, :, None] == np.arange(model.num_labels)).sum(axis=0, dtype=np.float64)
    evidence = count_evidence(label_counts[:, None, :], log(model.worker_cpts[path].rows)[None])
    _, factor = path_factors(log(model.path_cpts[path].rows)[None], evidence)
    return factor[:, 0, :]


def _sample_block(
    model: ApmModel, plans: Sequence[Sequence[int]], seed: int, block: int, size: int
) -> list[tuple[float, float]]:
    """Draw `size` vote sets per plan and return (sum H, sum H^2) per plan.

    Every plan reads the block's one stream from the start (layout in the
    module docstring), so each (path, stream row, votes) factor table is
    built once per block, however many plans share it.
    """
    rows = max(1 + sum(1 + c for c in counts if c > 0) for counts in plans)
    u = substream(seed, "ig-block", block).random(rows * size).reshape(rows, size)
    y = categorical(model.prior, u[0])
    log_prior = log(model.prior)
    tables: dict[tuple[int, int, int], np.ndarray] = {}
    out = []
    for counts in plans:
        factors = []
        row = 1
        for i, c in enumerate(counts):
            if c == 0:
                continue
            key = (i, row, c)
            if key not in tables:
                tables[key] = _path_factor(model, i, y, u[row : row + 1 + c])
            factors.append(tables[key])
            row += 1 + c
        log_joint = apm_log_joints(log_prior, np.stack(factors, axis=1))
        norm = logsumexp(log_joint, axis=1)
        log_post = log_joint - norm[:, None]
        with np.errstate(invalid="ignore"):
            post = np.exp(log_post)
            ent = -np.where(post > 0, post * log_post, 0.0).sum(axis=1)
        out.append((float(ent.sum()), float((ent * ent).sum())))
    return out


def sampled_conditional_entropies(
    model: ApmModel,
    plans: Sequence[AccessPlan | Sequence[int]],
    cfg: IgConfig,
) -> list[tuple[float, float]]:
    """Monte Carlo estimates of H(Y | X_S) and their standard errors, one per plan.

    Each value equals a separate `sampled_conditional_entropy` call bit for
    bit: all plans read the same blocks of the same streams, and the factor
    table of a path they draw from the same stream rows is built once.
    """
    all_counts = [as_counts(plan, model.num_paths) for plan in plans]
    for counts in all_counts:
        _require_shared(model, counts)
    voted = [counts for counts in all_counts if sum(counts) > 0]
    g = cfg.num_samples
    sums = [(0.0, 0.0)] * len(voted)
    for b in range((g + _BLOCK - 1) // _BLOCK if voted else 0):
        block = _sample_block(model, voted, cfg.seed, b, min(_BLOCK, g - b * _BLOCK))
        sums = [(h + sh, h2 + sh2) for (h, h2), (sh, sh2) in zip(sums, block)]
    out = []
    totals = iter(sums)
    for counts in all_counts:
        if sum(counts) == 0:
            out.append((prior_entropy(model.prior), 0.0))
            continue
        total_h, total_h2 = next(totals)
        mean = total_h / g
        if g > 1:
            var = max(0.0, (total_h2 - g * mean * mean) / (g - 1))
        else:
            var = 0.0
        out.append((mean, math.sqrt(var / g)))
    return out


def sampled_conditional_entropy(
    model: ApmModel,
    plan: AccessPlan | Sequence[int],
    cfg: IgConfig,
) -> tuple[float, float]:
    """Monte Carlo estimate of H(Y | X_S) and its standard error."""
    return sampled_conditional_entropies(model, [plan], cfg)[0]


def _resolve_mode(cfg: IgConfig, counts: Sequence[int], k: int) -> IgMode:
    """The mode `information_gain` uses for a plan: cfg.mode, or auto's choice.

    Auto takes exact when the count vectors to enumerate are at most
    exact_limit and at most the votes sampling would simulate, G per planned
    vote. An empty plan needs no enumeration and counts as exact.
    """
    if cfg.mode is not IgMode.AUTO:
        return cfg.mode
    cap = min(cfg.exact_limit, cfg.num_samples * max(sum(counts), 1))
    if exact_count_vectors(counts, k) <= cap:
        return IgMode.EXACT
    return IgMode.SAMPLED


def information_gain(
    model: ApmModel,
    plan: AccessPlan | Sequence[int],
    cfg: IgConfig | None = None,
) -> IgEstimate:
    """IG(Y; X_S) = H(Y) - H(Y | X_S) for a plan, in nats."""
    cfg = cfg or IgConfig()
    counts = as_counts(plan, model.num_paths)
    mode = _resolve_mode(cfg, counts, model.num_labels)
    h_prior = prior_entropy(model.prior)
    if sum(counts) == 0:
        return IgEstimate(value=0.0, stderr=0.0, mode=mode)
    if mode is IgMode.EXACT:
        value = h_prior - exact_conditional_entropy(model, counts, cfg.exact_limit)
        if value < 0:
            if value < -_NEG_TOL:
                raise NumericError(f"exact information gain {value} below -{_NEG_TOL}")
            value = 0.0
        return IgEstimate(value=value, stderr=0.0, mode=IgMode.EXACT)
    h_cond, stderr = sampled_conditional_entropy(model, counts, cfg)
    return IgEstimate(value=h_prior - h_cond, stderr=stderr, mode=IgMode.SAMPLED)


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


def check_submodularity(
    model: ApmModel,
    trials: int,
    seed: int = 0,
    max_votes_per_path: int = 3,
    exact_limit: int = 1_000_000,
) -> SubmodularityReport:
    """Randomized check that exact IG has diminishing returns over vote multisets."""
    n = model.num_paths
    cache: dict[tuple[int, ...], float] = {}

    def ig(counts: tuple[int, ...]) -> float:
        if counts not in cache:
            cache[counts] = (
                prior_entropy(model.prior)
                - exact_conditional_entropy(model, counts, exact_limit)
            )
        return cache[counts]

    def plus(counts: tuple[int, ...], path: int) -> tuple[int, ...]:
        return counts[:path] + (counts[path] + 1,) + counts[path + 1 :]

    violations = []
    mono_violations = []
    worst = math.inf
    for t in range(trials):
        rng = substream(seed, "submod", t)
        big = tuple(int(v) for v in rng.integers(0, max_votes_per_path + 1, size=n))
        small = tuple(int(rng.integers(0, c + 1)) for c in big)
        v = int(rng.integers(0, n))
        gain_small = ig(plus(small, v)) - ig(small)
        gain_big = ig(plus(big, v)) - ig(big)
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
