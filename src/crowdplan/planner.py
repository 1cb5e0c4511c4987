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

Greedy, `equal` and `rnd` buy through one loop, `_buy`, with one size guard;
each names the next vote: the best ratio, the affordable path with the fewest
votes (lowest index on ties), or a uniform draw. `exhaustive_opt` always
scores exactly.

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
every candidate would.

Sampled steps score every affordable candidate in one `information_gains`
call under the caller's seed: common random numbers within a step, which
remove sampling noise from the comparison between candidates, and across
steps, so the whole search runs on one fixed sample (sample-average
approximation: Kleywegt, Shapiro & Homem-de-Mello 2002). The calls share
one holder of each block's draws and path tables, dropped when the search
returns (see the `infogain` docstring); each value is bit for bit the one a
separate call would give. So the base gain of a sampled step is the previous
sampled step's winning estimate, and only the first sampled step scores its
base plan. No estimate carries into a step of the other mode: an exact step
after a sampled one scores an exact base, and the other way round. The
final plan keeps the last step's estimate of it when it resolves to that
step's mode. `exhaustive_opt` and `best` also score all their candidates in
one call.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from ._rng import _fold, substream
from .errors import InputError, ResourceLimitError
from .infogain import (
    _NEG_TOL,
    IgConfig,
    IgEstimate,
    IgMode,
    _information_gains,
    _plus,
    _resolve_mode,
    information_gain,
    information_gains,
)
from .model import AccessPlan, ApmModel, as_config, check_cells, member, plan_cost

_OPT_LIMIT = 200_000  # most candidate count vectors exhaustive_opt searches
_EXACT = IgConfig(mode=IgMode.EXACT)  # exact mode reads no other IgConfig field


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
    except (OverflowError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad budget {budget!r}: {exc}") from None
    if b < 0:
        raise InputError(f"budget must be non-negative, got {b}")
    return b


def _buy(model: ApmModel, b: Fraction, pick) -> list[int]:
    """Buy one vote on the path `pick(counts, affordable)` names until nothing
    is affordable or it names None. ResourceLimitError first when the budget
    buys more votes than the size guard allows: no sampled block or
    enumeration could hold the plan."""
    costs = model.costs
    check_cells(max((b // c for c in costs), default=0), f"a plan at budget {b}")
    counts = [0] * model.num_paths
    left = b
    while affordable := [i for i, c in enumerate(costs) if c <= left]:
        i = pick(counts, affordable)
        if i is None:
            break
        counts[i] += 1
        left -= costs[i]
    return counts


def approximation_bound(model: ApmModel, budget) -> float:
    """Worst-case greedy/optimal gain ratio, 1 - e^(-(1 - gamma))."""
    b = _coerce_budget(budget)
    if b <= 0:
        raise InputError("approximation bound needs a positive budget")
    cmax = max(model.costs)
    if cmax > b:
        raise InputError(
            f"path cost {cmax} exceeds budget {b}; the bound only covers gamma < 1"
        )
    gamma = float(cmax / b)
    return 1.0 - math.exp(-(1.0 - gamma))


def _result(model: ApmModel, counts, ig: IgEstimate, trace=()) -> PlanResult:
    return PlanResult(AccessPlan(tuple(counts)), plan_cost(model, counts), ig, tuple(trace))


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
    cfg = as_config(ig_cfg, IgConfig)
    costs = model.costs
    b = _coerce_budget(budget)
    trace: list[TraceStep] = []
    # The estimate of the current plan from the last step, in that step's mode.
    known: IgEstimate | None = None
    # The latest exact marginal gain of one more vote per path: by
    # submodularity an upper bound on that gain at any larger plan.
    stale: dict[int, float] = {}
    # Each sampled block's draws and path tables, kept from step to step.
    held: dict = {}

    def pick(counts, affordable):
        nonlocal known
        exact = all(
            _resolve_mode(cfg, _plus(counts, i), model.num_labels) is IgMode.EXACT
            for i in affordable
        )
        step_cfg = replace(cfg, mode=IgMode.EXACT if exact else IgMode.SAMPLED)
        if known is not None and known.mode is not step_cfg.mode:
            known = None
        if exact:
            if known is None:
                known = information_gain(model, counts, step_cfg)
        else:
            plans = [counts] * (known is None) + [_plus(counts, i) for i in affordable]
            ests = _information_gains(model, plans, step_cfg, held)
            if known is None:
                known, *ests = ests
            scored = dict(zip(affordable, ests))
        base = known.value

        # Candidates in order of their bounds; a sampled step has none, and
        # takes its scored candidates in path order.
        order = sorted(
            (-(stale[i] + _NEG_TOL) / float(costs[i]) if exact and i in stale
             else -math.inf, i)
            for i in affordable
        )
        best = None
        for neg_bound, i in order:
            if -neg_bound < (best[2] if best else 0.0):
                break
            if exact:
                est = information_gain(model, _plus(counts, i), step_cfg)
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
            return None
        i, delta, ratio, known = best
        trace.append(TraceStep(step=len(trace), path=i, delta_ig=delta, ratio=ratio))
        return i

    counts = _buy(model, b, pick)
    if known is None or known.mode is not _resolve_mode(cfg, counts, model.num_labels):
        known = information_gain(model, counts, cfg)
    return _result(model, counts, known, trace)


def exhaustive_opt(model: ApmModel, budget) -> PlanResult:
    """True optimum by enumerating every maximal feasible plan with exact gain.

    A plan is maximal when no path is still affordable with what it leaves of
    the budget. Gain is monotone, so a non-maximal plan cannot beat the
    maximal plans that extend it, and only maximal plans are scored. Ties
    prefer the lexicographically smallest maximal plan. Raises
    ResourceLimitError when the box of plans with at most floor(B / c_i)
    votes per path, prod_i (floor(B / c_i) + 1) count vectors, a superset of
    the feasible plans, exceeds _OPT_LIMIT.
    """
    costs = model.costs
    b = _coerce_budget(budget)
    caps = [int(b // c) for c in costs]
    total = math.prod(cap + 1 for cap in caps)
    if total > _OPT_LIMIT:
        raise ResourceLimitError(
            f"{total} candidate plans exceed the enumeration limit {_OPT_LIMIT}"
        )

    # Integer units of 1 / lcm(denominators) keep the arithmetic below exact.
    # A plan is maximal when 0 <= rest - n_last * u_last < cheapest, where rest
    # is what its other paths leave: n_last runs over a range per prefix.
    scale = math.lcm(b.denominator, *(c.denominator for c in costs))
    units = [int(c * scale) for c in costs]
    left = int(b * scale)
    cheapest = min(units)
    *head, u_last = units
    plans = []
    for prefix in itertools.product(*(range(cap + 1) for cap in caps[:-1])):
        rest = left - sum(n * u for n, u in zip(prefix, head))
        if rest >= 0:
            low = max(0, (rest - cheapest) // u_last + 1)
            plans += [(*prefix, n) for n in range(low, rest // u_last + 1)]
    ests = information_gains(model, plans, _EXACT)
    est, counts = max(zip(ests, plans), key=lambda pair: pair[0].value)  # first maximum
    return _result(model, counts, est)


def baseline_plan(
    strategy: Strategy | str,
    model: ApmModel,
    budget,
    seed: int = 0,
    ig_cfg: IgConfig | None = None,
) -> PlanResult:
    """Reference allocations: random, single-best-path, or equal spread."""
    strategy = member(Strategy, strategy, "strategy")
    _fold(seed)
    cfg = as_config(ig_cfg, IgConfig)
    b = _coerce_budget(budget)

    if strategy is Strategy.RND:
        rng = substream(seed, "rnd-plan")
        counts = _buy(model, b, lambda counts, ok: ok[int(rng.integers(0, len(ok)))])
    elif strategy is Strategy.BEST:
        n = model.num_paths
        ones = [[int(i == j) for j in range(n)] for i in range(n)]
        gains = [est.value for est in information_gains(model, ones, _EXACT)]
        best_path = gains.index(max(gains))
        counts = [0] * n
        counts[best_path] = int(b // model.costs[best_path])
    elif strategy is Strategy.EQUAL:
        counts = _buy(model, b, lambda counts, ok: min(ok, key=lambda i: (counts[i], i)))
    else:
        raise InputError(
            f"{strategy.value} is not a baseline; call greedy_plan or exhaustive_opt"
        )

    return _result(model, counts, information_gain(model, counts, cfg))


def build_plan(
    strategy: Strategy | str,
    model: ApmModel,
    budget,
    seed: int = 0,
    ig_cfg: IgConfig | None = None,
) -> PlanResult:
    """Uniform entry point over all strategies."""
    strategy = member(Strategy, strategy, "strategy")
    _fold(seed)
    ig_cfg = as_config(ig_cfg, IgConfig)
    if strategy is Strategy.GREEDY:
        return greedy_plan(model, budget, ig_cfg)
    if strategy is Strategy.OPT:
        return exhaustive_opt(model, budget)
    return baseline_plan(strategy, model, budget, seed, ig_cfg)
