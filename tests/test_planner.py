import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from crowdplan.errors import InputError, ResourceLimitError
from crowdplan.infogain import IgConfig, IgMode, information_gain
from crowdplan.model import plan_cost
from crowdplan.planner import (
    Strategy,
    approximation_bound,
    baseline_plan,
    build_plan,
    exhaustive_opt,
    greedy_plan,
)

from _oracles import random_model, sym_model

EXACT = IgConfig(mode=IgMode.EXACT)


class TestApproximationBound:
    def test_frozen_values(self):
        m = sym_model([0.5, 0.5], [0.9, 0.8], [0.8, 0.7], costs=[4, 2])
        assert approximation_bound(m, 8) == pytest.approx(
            0.3934693402873666, abs=1e-15
        )
        m2 = sym_model([0.5, 0.5], [0.9], [0.8], costs=[1])
        assert approximation_bound(m2, 10) == pytest.approx(
            0.5934303402594009, abs=1e-15
        )

    def test_approaches_well_known_limit(self):
        m = sym_model([0.5, 0.5], [0.9], [0.8], costs=[1])
        near = approximation_bound(m, 10_000)
        assert near < 1 - math.exp(-1)
        assert near == pytest.approx(1 - math.exp(-1), abs=1e-3)

    def test_unaffordable_path_rejected(self):
        m = sym_model([0.5, 0.5], [0.9, 0.8], [0.8, 0.7], costs=[5, 1])
        with pytest.raises(InputError):
            approximation_bound(m, 4)
        with pytest.raises(InputError):
            approximation_bound(m, 0)


class TestGreedy:
    def test_spends_exact_fractional_budget(self):
        m = sym_model([0.5, 0.5], [0.9], [0.8], costs=["1/3"])
        res = greedy_plan(m, 1, EXACT)
        assert res.plan.counts == (3,)
        assert res.cost == Fraction(1)

    def test_budget_below_cheapest_path(self):
        m = sym_model([0.5, 0.5], [0.9], [0.8], costs=[5])
        res = greedy_plan(m, 4, EXACT)
        assert res.plan.counts == (0,)
        assert res.ig.value == 0.0
        assert res.trace == ()

    def test_tie_breaks_to_lowest_index(self):
        m = sym_model([0.5, 0.5], [0.9, 0.9], [0.8, 0.8])
        res = greedy_plan(m, 1, EXACT)
        assert res.plan.counts == (1, 0)

    def test_trace_ratios_non_increasing(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            m = random_model(rng, 2, k=2, costs=[1, 2])
            res = greedy_plan(m, 6, EXACT)
            ratios = [step.ratio for step in res.trace]
            assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_trace_is_consistent(self):
        m = sym_model([0.5, 0.5], [0.9, 0.8], [0.8, 0.85], costs=[2, 1])
        res = greedy_plan(m, 6, EXACT)
        assert plan_cost(m, res.plan) == res.cost
        assert res.cost <= Fraction(6)
        rebuilt = [0, 0]
        for i, step in enumerate(res.trace):
            assert step.step == i
            rebuilt[step.path] += 1
        assert tuple(rebuilt) == res.plan.counts
        assert res.ig.value == pytest.approx(
            information_gain(m, res.plan, EXACT).value, abs=1e-12
        )

    def test_stops_when_no_positive_gain(self):
        """A certain path answers the question; further votes add nothing."""
        m = sym_model([0.5, 0.5], [1.0], [1.0])
        res = greedy_plan(m, 50, EXACT)
        assert sum(res.plan.counts) == 1

    def test_deterministic_in_sampled_mode(self):
        m = sym_model([0.5, 0.5], [0.85, 0.7], [0.8, 0.9])
        cfg = IgConfig(mode=IgMode.SAMPLED, num_samples=8192, seed=4)
        a = greedy_plan(m, 4, cfg)
        b = greedy_plan(m, 4, cfg)
        assert a.plan.counts == b.plan.counts
        assert a.ig.value == b.ig.value


class TestExhaustive:
    def enumerate_best(self, model, budget):
        caps = [int(Fraction(budget) // c) for c in model.costs]
        best, best_ig = None, -1.0
        for plan in itertools.product(*(range(c + 1) for c in caps)):
            if plan_cost(model, plan) > Fraction(budget):
                continue
            ig = information_gain(model, plan, EXACT).value
            if ig > best_ig:
                best, best_ig = plan, ig
        return best, best_ig

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(71)
        for trial in range(8):
            costs = [int(c) for c in rng.integers(1, 4, size=2)]
            m = random_model(rng, 2, k=2, costs=costs)
            budget = int(rng.integers(max(costs), 7))
            res = exhaustive_opt(m, budget, EXACT)
            want_plan, want_ig = self.enumerate_best(m, budget)
            assert res.plan.counts == want_plan
            assert res.ig.value == pytest.approx(want_ig, abs=1e-12)

    def test_tie_prefers_lexicographically_smallest(self):
        m = sym_model([0.5, 0.5], [0.9, 0.9], [0.8, 0.8])
        res = exhaustive_opt(m, 1, EXACT)
        assert res.plan.counts == (0, 1)

    def test_enumeration_limit(self):
        m = sym_model([0.5, 0.5], [0.9] * 3, [0.8] * 3)
        with pytest.raises(ResourceLimitError):
            exhaustive_opt(m, 50, EXACT, enumeration_limit=100)

    def test_greedy_meets_guarantee(self):
        rng = np.random.default_rng(99)
        for trial in range(25):
            n = int(rng.integers(1, 4))
            costs = [int(c) for c in rng.integers(1, 5, size=n)]
            m = random_model(rng, n, k=2, costs=costs)
            budget = int(rng.integers(max(costs), 9))
            greedy = greedy_plan(m, budget, EXACT)
            opt = exhaustive_opt(m, budget, EXACT)
            bound = approximation_bound(m, budget)
            assert greedy.ig.value >= bound * opt.ig.value - 1e-9


class TestBaselines:
    def test_equal_spread_unit_costs(self):
        m = sym_model([0.5, 0.5], [0.9, 0.8, 0.7], [0.8] * 3)
        res = baseline_plan(Strategy.EQUAL, m, 3)
        assert res.plan.counts == (1, 1, 1)

    def test_equal_spread_mixed_costs(self):
        m = sym_model([0.5, 0.5], [0.9, 0.8, 0.7], [0.8] * 3, costs=[2, 3, 4])
        res = baseline_plan(Strategy.EQUAL, m, 9)
        assert res.plan.counts == (1, 1, 1)
        assert res.cost == Fraction(9)

    def test_equal_spread_leftover_budget(self):
        m = sym_model([0.5, 0.5], [0.9, 0.8], [0.8, 0.8], costs=[1, 3])
        res = baseline_plan(Strategy.EQUAL, m, 6)
        # rounds: (1,0) for 1, (1,1) for 4, then only path 0 still fits
        assert res.plan.counts == (3, 1)
        assert res.cost <= Fraction(6)

    def test_best_path_floors_budget(self):
        m = sym_model([0.5, 0.5], [0.95, 0.6], [0.9, 0.9], costs=[2, 1])
        res = baseline_plan(Strategy.BEST, m, 7)
        assert res.plan.counts == (3, 0)

    def test_random_is_seed_deterministic_and_feasible(self):
        m = sym_model([0.5, 0.5], [0.9, 0.8], [0.8, 0.8], costs=[2, 3])
        a = baseline_plan(Strategy.RND, m, 11, seed=5)
        b = baseline_plan(Strategy.RND, m, 11, seed=5)
        assert a.plan.counts == b.plan.counts
        assert plan_cost(m, a.plan) <= Fraction(11)
        leftover = Fraction(11) - plan_cost(m, a.plan)
        assert leftover < min(m.costs)

    def test_random_varies_with_seed(self):
        m = sym_model([0.5, 0.5], [0.9, 0.8], [0.8, 0.8])
        seen = {baseline_plan(Strategy.RND, m, 9, seed=s).plan.counts for s in range(6)}
        assert len(seen) > 1


class TestBuildPlan:
    def test_dispatch(self):
        m = sym_model([0.5, 0.5], [0.9, 0.8], [0.8, 0.8])
        for strategy in Strategy:
            res = build_plan(strategy, m, 4, ig_cfg=EXACT)
            assert sum(res.plan.counts) >= 1
            assert plan_cost(m, res.plan) <= Fraction(4)

    def test_string_budgets_and_strategies(self):
        m = sym_model([0.5, 0.5], [0.9], [0.8], costs=["1/2"])
        res = build_plan("greedy", m, "3/2", ig_cfg=EXACT)
        assert res.plan.counts == (3,)
        with pytest.raises(InputError):
            build_plan("greedy", m, -1)
        with pytest.raises(ValueError):
            build_plan("clever", m, 1)


class TestNonPositiveCosts:
    """A hand-built model's costs are checked before any planning loop.

    Without the check a zero cost divides by zero in greedy and opt, and
    equal, rnd and opt never run out of budget.
    """

    @staticmethod
    def model(cost):
        return sym_model([0.5, 0.5], [0.9, 0.8], [0.8, 0.7], costs=[1, cost])

    @pytest.mark.parametrize("cost", [0, -1])
    def test_greedy(self, cost):
        with pytest.raises(InputError, match="non-positive cost"):
            greedy_plan(self.model(cost), 4)

    @pytest.mark.parametrize("cost", [0, -1])
    def test_opt(self, cost):
        with pytest.raises(InputError, match="non-positive cost"):
            exhaustive_opt(self.model(cost), 4)

    @pytest.mark.parametrize("cost", [0, -1])
    def test_equal(self, cost):
        with pytest.raises(InputError, match="non-positive cost"):
            baseline_plan(Strategy.EQUAL, self.model(cost), 4)

    @pytest.mark.parametrize("cost", [0, -1])
    def test_rnd(self, cost):
        with pytest.raises(InputError, match="non-positive cost"):
            baseline_plan(Strategy.RND, self.model(cost), 4, seed=1)

    @pytest.mark.parametrize("cost", [0, -1])
    def test_best(self, cost):
        with pytest.raises(InputError, match="non-positive cost"):
            baseline_plan(Strategy.BEST, self.model(cost), 4)

    @pytest.mark.parametrize("cost", [0, -1])
    def test_approximation_bound(self, cost):
        with pytest.raises(InputError, match="non-positive cost"):
            approximation_bound(self.model(cost), 4)
