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
    (seed, block), so the result is independent of thread count and evaluation
    order. The standard error reported is std / sqrt(G).

auto picks exact when the raw assignment count K^(sum S_i) fits the limit,
otherwise sampled.
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
from ._parallel import map_ordered
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


def _sample_block(
    model: ApmModel, counts: Sequence[int], seed: int, block: int, size: int
) -> tuple[int, float, float]:
    """Draw `size` vote sets and return (n, sum H, sum H^2) of posterior entropies."""
    rng = substream(seed, "ig-block", block)
    k = model.num_labels
    active = [i for i, c in enumerate(counts) if c > 0]
    y = categorical(rng, model.prior, size)
    label_counts = np.zeros((size, len(active), k), dtype=np.float64)
    for pos, i in enumerate(active):
        z = categorical_rows(rng, model.path_cpts[i].rows[y])
        table = model.worker_cpts[i].rows
        for _ in range(counts[i]):
            v = categorical_rows(rng, table[z])
            np.add.at(label_counts, (np.arange(size), pos, v), 1.0)

    log_x = log(np.stack([model.worker_cpts[i].rows for i in active]))
    log_zy = log(np.stack([model.path_cpts[i].rows for i in active]))
    _, factors = path_factors(log_zy, count_evidence(label_counts, log_x))
    log_joint = apm_log_joints(log(model.prior), factors)
    norm = logsumexp(log_joint, axis=1)
    log_post = log_joint - norm[:, None]
    with np.errstate(invalid="ignore"):
        post = np.exp(log_post)
        ent = -np.where(post > 0, post * log_post, 0.0).sum(axis=1)
    return size, float(ent.sum()), float((ent * ent).sum())


def sampled_conditional_entropy(
    model: ApmModel,
    plan: AccessPlan | Sequence[int],
    cfg: IgConfig,
    threads: int = 1,
) -> tuple[float, float]:
    """Monte Carlo estimate of H(Y | X_S) and its standard error."""
    counts = as_counts(plan, model.num_paths)
    _require_shared(model, counts)
    if sum(counts) == 0:
        return prior_entropy(model.prior), 0.0
    g = cfg.num_samples
    blocks = [(b, min(_BLOCK, g - b * _BLOCK)) for b in range((g + _BLOCK - 1) // _BLOCK)]
    parts = map_ordered(
        lambda bs: _sample_block(model, counts, cfg.seed, bs[0], bs[1]), blocks, threads
    )
    total_h = 0.0
    total_h2 = 0.0
    for _, sh, sh2 in parts:
        total_h += sh
        total_h2 += sh2
    mean = total_h / g
    if g > 1:
        var = max(0.0, (total_h2 - g * mean * mean) / (g - 1))
    else:
        var = 0.0
    return mean, math.sqrt(var / g)


def _resolve_mode(cfg: IgConfig, counts: Sequence[int], k: int) -> IgMode:
    if cfg.mode is not IgMode.AUTO:
        return cfg.mode
    total_votes = sum(counts)
    if total_votes * math.log(k) <= math.log(cfg.exact_limit):
        return IgMode.EXACT
    return IgMode.SAMPLED


def information_gain(
    model: ApmModel,
    plan: AccessPlan | Sequence[int],
    cfg: IgConfig | None = None,
    threads: int = 1,
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
    h_cond, stderr = sampled_conditional_entropy(model, counts, cfg, threads)
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
