"""Plan selection under a budget.

The main routine is the cost-scaled greedy: repeatedly buy the single vote
with the best information gain per unit cost until nothing affordable helps.
Because plan quality is monotone and has diminishing returns over vote
multisets, the greedy plan's gain is at least 1 - e^(-(1 - gamma)) of the
optimum, where gamma = max_i c_i / B; `approximation_bound` computes that
factor and `exhaustive_opt` the true optimum for small instances.

Budgets and costs are exact rationals throughout, so affordability is an
integer comparison and a plan that spends the whole budget is exactly
feasible.

Each greedy step uses one estimator for its base plan and all its candidates:
it is sampled if any affordable candidate would be sampled (in auto mode,
see the `infogain` docstring), else exact, so a marginal gain never subtracts
an exact value from a noisy one.

Exact steps are lazy (accelerated greedy: Minoux 1978; CELF, Leskovec et al.
2007). The base gain is the previous step's winning estimate, and every exact
marginal gain is kept: by diminishing returns it bounds the same vote's gain
at any larger plan. A step re-scores candidates in order of their bounds,
highest first, and stops once no unscored bound plus `_NEG_TOL` (slack for
rounding) reaches the best fresh ratio, so it picks the same vote as scoring
every candidate would. When the final plan resolves exact, its gain is the
last winner's estimate.

Sampled steps score the base plan and every affordable candidate in one
`sampled_conditional_entropies` call under the step's derived seed (common
random numbers), which removes sampling noise from the comparison between
candidates within a step. The call draws each block of votes once and builds
each path's factor table once for all these plans (see the `infogain`
docstring); each value is bit for bit the one a separate call would give, so
the plan is the same as scoring the candidates one by one. A stale sampled
value is not a bound, so nothing carries over between sampled steps.

Every planner checks the path costs (`model.path_costs`) before it loops: a
zero or negative cost is an InputError.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from ._rng import derive_seed, substream
from .errors import InputError, ResourceLimitError
from .infogain import (
    _NEG_TOL,
    IgConfig,
    IgEstimate,
    IgMode,
    _resolve_mode,
    information_gain,
    prior_entropy,
    sampled_conditional_entropies,
)
from .model import AccessPlan, ApmModel, path_costs, plan_cost


class Strategy(str, enum.Enum):
    GREEDY = "greedy"
    OPT = "opt"
    RND = "rnd"
    BEST = "best"
    EQUAL = "equal"


@dataclass(frozen=True)
class TraceStep:
    """One greedy acquisition: which path, what it added, at what rate."""

    step: int
    path: int
    delta_ig: float
    ratio: float


@dataclass(frozen=True)
class PlanResult:
    plan: AccessPlan
    cost: Fraction
    ig: IgEstimate
    trace: tuple[TraceStep, ...] = ()


def _coerce_budget(budget) -> Fraction:
    try:
        b = Fraction(budget)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad budget {budget!r}: {exc}") from None
    if b < 0:
        raise InputError(f"budget must be non-negative, got {b}")
    return b


def approximation_bound(model: ApmModel, budget) -> float:
    """Worst-case greedy/optimal gain ratio, 1 - e^(-(1 - gamma))."""
    costs = path_costs(model.costs, model.num_paths)
    b = _coerce_budget(budget)
    if b <= 0:
        raise InputError("approximation bound needs a positive budget")
    cmax = max(costs)
    if cmax > b:
        raise InputError(
            f"path cost {cmax} exceeds budget {b}; the bound only covers gamma < 1"
        )
    gamma = float(cmax / b)
    return 1.0 - math.exp(-(1.0 - gamma))


def _step_mode(cfg: IgConfig, counts: list[int], affordable: list[int], k: int) -> IgMode:
    """One estimator for a whole greedy step: sampled if any candidate would be."""
    for i in affordable:
        counts[i] += 1
        mode = _resolve_mode(cfg, counts, k)
        counts[i] -= 1
        if mode is IgMode.SAMPLED:
            return mode
    return IgMode.EXACT


def greedy_plan(
    model: ApmModel,
    budget,
    ig_cfg: IgConfig | None = None,
) -> PlanResult:
    """Cost-scaled greedy vote acquisition.

    Each step adds the affordable single vote maximizing gain per cost; ties go
    to the lowest path index; steps with no positive gain end the search early.
    Exact steps evaluate lazily (see the module docstring) and pick the same
    vote as evaluating every candidate would.
    """
    cfg = ig_cfg or IgConfig()
    costs = path_costs(model.costs, model.num_paths)
    b = _coerce_budget(budget)
    counts = [0] * model.num_paths
    spent = Fraction(0)
    trace: list[TraceStep] = []
    # The exact estimate of the current plan, when the last step was exact.
    known: IgEstimate | None = None
    # The latest exact marginal gain of one more vote per path: by
    # submodularity an upper bound on that gain at any larger plan.
    stale: dict[int, float] = {}
    step = 0
    while True:
        affordable = [i for i, c in enumerate(costs) if c <= b - spent]
        if not affordable:
            break
        mode = _step_mode(cfg, counts, affordable, model.num_labels)
        exact = mode is IgMode.EXACT
        step_cfg = replace(cfg, mode=mode)
        if exact:
            if known is None:
                known = information_gain(model, counts, step_cfg)
            base = known.value
        else:
            step_cfg = replace(step_cfg, seed=derive_seed(cfg.seed, "greedy-step", step))
            plans = [counts] + [
                counts[:i] + [counts[i] + 1] + counts[i + 1 :] for i in affordable
            ]
            h_prior = prior_entropy(model.prior)
            base_est, *ests = (
                IgEstimate(value=h_prior - h, stderr=se, mode=IgMode.SAMPLED)
                for h, se in sampled_conditional_entropies(model, plans, step_cfg)
            )
            base = base_est.value
            scored = dict(zip(affordable, ests))

        # Candidates in order of their bounds; a sampled step has none, and
        # takes its scored candidates in path order.
        heap = [
            (-(stale[i] + _NEG_TOL) / float(costs[i]) if exact and i in stale
             else -math.inf, i)
            for i in affordable
        ]
        heapq.heapify(heap)
        best = None
        while heap:
            neg_bound, i = heapq.heappop(heap)
            if -neg_bound < (best[2] if best else 0.0):
                break
            if exact:
                counts[i] += 1
                est = information_gain(model, counts, step_cfg)
                counts[i] -= 1
                stale[i] = est.value - base
            else:
                est = scored[i]
            delta = est.value - base
            if delta <= 0:
                continue
            ratio = delta / float(costs[i])
            if best is None or ratio > best[2] or (ratio == best[2] and i < best[0]):
                best = (i, delta, ratio, est)
        if best is None:
            break
        i, delta, ratio, est = best
        counts[i] += 1
        spent += costs[i]
        trace.append(TraceStep(step=step, path=i, delta_ig=delta, ratio=ratio))
        known = est if exact else None
        step += 1
    if known is None or _resolve_mode(cfg, counts, model.num_labels) is not IgMode.EXACT:
        known = information_gain(model, counts, cfg)
    return PlanResult(
        plan=AccessPlan(tuple(counts)),
        cost=spent,
        ig=known,
        trace=tuple(trace),
    )


def exhaustive_opt(
    model: ApmModel,
    budget,
    ig_cfg: IgConfig | None = None,
    enumeration_limit: int = 200_000,
) -> PlanResult:
    """True optimum by enumerating every maximal feasible plan with exact gain.

    A plan is maximal when no path is still affordable with what it leaves of
    the budget. Gain is monotone, so a non-maximal plan cannot beat the
    maximal plans that extend it, and only maximal plans are scored. Ties
    prefer the lexicographically smallest maximal plan. Raises
    ResourceLimitError when the feasible set exceeds enumeration_limit.
    """
    cfg = ig_cfg or IgConfig()
    costs = path_costs(model.costs, model.num_paths)
    b = _coerce_budget(budget)
    caps = [int(b // c) for c in costs]
    total = 1
    for cap in caps:
        total *= cap + 1
    if total > enumeration_limit:
        raise ResourceLimitError(
            f"{total} candidate plans exceed the enumeration limit {enumeration_limit}"
        )

    exact_cfg = replace(cfg, mode=IgMode.EXACT)
    cheapest = min(costs)
    best_counts: tuple[int, ...] | None = None
    best_ig: IgEstimate | None = None

    def recurse(path: int, prefix: list[int], remaining: Fraction):
        nonlocal best_counts, best_ig
        if path == model.num_paths:
            if remaining >= cheapest:
                return
            est = information_gain(model, prefix, exact_cfg)
            if best_ig is None or est.value > best_ig.value:
                best_counts = tuple(prefix)
                best_ig = est
            return
        cost = costs[path]
        count = 0
        while count * cost <= remaining:
            prefix.append(count)
            recurse(path + 1, prefix, remaining - count * cost)
            prefix.pop()
            count += 1

    recurse(0, [], b)
    assert best_counts is not None and best_ig is not None
    return PlanResult(
        plan=AccessPlan(best_counts),
        cost=plan_cost(model, best_counts),
        ig=best_ig,
    )


def baseline_plan(
    strategy: Strategy | str,
    model: ApmModel,
    budget,
    seed: int = 0,
    ig_cfg: IgConfig | None = None,
) -> PlanResult:
    """Reference allocations: random, single-best-path, or equal spread."""
    strategy = Strategy(strategy)
    cfg = ig_cfg or IgConfig()
    costs = path_costs(model.costs, model.num_paths)
    b = _coerce_budget(budget)
    counts = [0] * model.num_paths
    spent = Fraction(0)

    if strategy is Strategy.RND:
        rng = substream(seed, "rnd-plan")
        while True:
            affordable = [i for i, c in enumerate(costs) if c <= b - spent]
            if not affordable:
                break
            i = affordable[int(rng.integers(0, len(affordable)))]
            counts[i] += 1
            spent += costs[i]
    elif strategy is Strategy.BEST:
        exact_cfg = replace(cfg, mode=IgMode.EXACT)
        best_path = None
        best_gain = -1.0
        for i in range(model.num_paths):
            one = [0] * model.num_paths
            one[i] = 1
            gain = information_gain(model, one, exact_cfg).value
            if gain > best_gain:
                best_path, best_gain = i, gain
        if costs[best_path] <= b:
            counts[best_path] = int(b // costs[best_path])
            spent = costs[best_path] * counts[best_path]
    elif strategy is Strategy.EQUAL:
        progressed = True
        while progressed:
            progressed = False
            for i, c in enumerate(costs):
                if c <= b - spent:
                    counts[i] += 1
                    spent += c
                    progressed = True
    else:
        raise InputError(
            f"{strategy.value} is not a baseline; call greedy_plan or exhaustive_opt"
        )

    return PlanResult(
        plan=AccessPlan(tuple(counts)),
        cost=spent,
        ig=information_gain(model, counts, cfg),
    )


def build_plan(
    strategy: Strategy | str,
    model: ApmModel,
    budget,
    seed: int = 0,
    ig_cfg: IgConfig | None = None,
    enumeration_limit: int = 200_000,
) -> PlanResult:
    """Uniform entry point over all strategies."""
    strategy = Strategy(strategy)
    if strategy is Strategy.GREEDY:
        return greedy_plan(model, budget, ig_cfg)
    if strategy is Strategy.OPT:
        return exhaustive_opt(model, budget, ig_cfg, enumeration_limit)
    return baseline_plan(strategy, model, budget, seed, ig_cfg)
