import itertools
import math
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import crowdplan.infogain as infogain
import crowdplan.planner as planner
from crowdplan.errors import InputError, ResourceLimitError
from crowdplan.evaluation import budget_sweep
from crowdplan.infogain import IgConfig, IgEstimate, IgMode, information_gain
from crowdplan.model import plan_cost, with_costs
from crowdplan.planner import (
    Strategy,
    approximation_bound,
    baseline_plan,
    build_plan,
    exhaustive_opt,
    greedy_plan,
)

from crowdplan.simulator import generate

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


class TestSampledSearchHolder:
    """A sampled greedy search runs on one sample, whose draws and path tables
    it holds from step to step and drops when it returns."""

    MODEL = sym_model([0.5, 0.5], [0.8] * 3, [0.75] * 3)
    BLOCKS = 2
    CFG = IgConfig(num_samples=8192 + 5)  # auto, two blocks

    def test_first_sampled_step_builds_2n_tables_per_block_and_later_ones_1(self, monkeypatch):
        """Auto takes exact steps until the patched `EXACT_LIMIT` sends a step's
        candidates to sampling. That step starts from a plan that votes on all
        three paths and builds its base's and candidates' tables, 2N per block;
        each later step builds only the table its last vote opened, 1 per block;
        and the final plan keeps the last step's estimate, so builds no table."""
        built, steps = [], []
        path_factor, scorer = infogain._path_factor, planner._information_gains

        def counting(model, path, v):
            built.append((path, len(v)))
            return path_factor(model, path, v)

        def step(model, plans, step_cfg, held):
            before = len(built)
            ests = scorer(model, plans, step_cfg, held)
            steps.append((tuple(plans[0]), len(built) - before))
            return ests

        monkeypatch.setattr(infogain, "_path_factor", counting)
        monkeypatch.setattr(planner, "_information_gains", step)
        monkeypatch.setattr(infogain, "EXACT_LIMIT", 20)
        result = greedy_plan(self.MODEL, 14, self.CFG)
        (base, first), *later = steps
        assert all(base) and sum(base) < 14
        assert first == 2 * 3 * self.BLOCKS
        assert len(later) == 14 - sum(base) - 1
        assert [n for _, n in later] == [1 * self.BLOCKS] * len(later)
        assert len(built) == first + self.BLOCKS * len(later)
        assert sum(result.plan.counts) == 14 and result.ig.mode is IgMode.SAMPLED

    def test_no_held_draw_outlives_the_search(self, monkeypatch):
        """Every block's outcome draws and every path table are freed once
        `greedy_plan` returns."""
        held = []
        new_block, path_factor = infogain._new_block, infogain._path_factor

        def tracked_block(*args):
            block = new_block(*args)
            held.append(weakref.ref(block.y))
            return block

        def tracked_table(*args):
            table = path_factor(*args)
            held.append(weakref.ref(table))
            return table

        monkeypatch.setattr(infogain, "_new_block", tracked_block)
        monkeypatch.setattr(infogain, "_path_factor", tracked_table)
        result = greedy_plan(self.MODEL, 8, replace(self.CFG, mode=IgMode.SAMPLED))
        assert sum(result.plan.counts) == 8
        assert len(held) == self.BLOCKS * (1 + 3 + 7)  # y, then 3 tables, then 1 per step
        assert [ref() for ref in held] == [None] * len(held)


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
            res = exhaustive_opt(m, budget)
            want_plan, want_ig = self.enumerate_best(m, budget)
            assert res.plan.counts == want_plan
            assert res.ig.value == pytest.approx(want_ig, abs=1e-12)

    def test_scores_the_maximal_plans_of_the_box_in_box_order(self, monkeypatch):
        """The plans scored are those of the box that leave less than the
        cheapest cost, in lexicographic order: 1-4 paths, rational costs,
        budgets 0-8 in halves, boxes of at most 5,000 count vectors."""
        rng = np.random.default_rng(23)
        scored = []

        def recording(model, plans, cfg):
            scored.append(list(plans))
            return [IgEstimate(0.0, 0.0, cfg.mode)] * len(plans)

        monkeypatch.setattr(planner, "information_gains", recording)
        for trial in range(200):
            n = int(rng.integers(1, 5))
            costs = [Fraction(int(a), int(b)) for a, b in rng.integers(1, 5, size=(n, 2))]
            budget = Fraction(int(rng.integers(0, 17)), 2)
            m = random_model(rng, n, k=2, costs=costs)
            caps = [int(budget // c) for c in costs]
            if math.prod(cap + 1 for cap in caps) > 5000:
                continue
            box = itertools.product(*(range(cap + 1) for cap in caps))
            want = [p for p in box if 0 <= budget - plan_cost(m, p) < min(costs)]
            scored.clear()
            exhaustive_opt(m, budget)
            assert scored == [want]

    def test_tie_prefers_lexicographically_smallest(self):
        m = sym_model([0.5, 0.5], [0.9, 0.9], [0.8, 0.8])
        res = exhaustive_opt(m, 1)
        assert res.plan.counts == (0, 1)

    def test_enumeration_limit(self):
        m = sym_model([0.5, 0.5], [0.9] * 3, [0.8] * 3)
        with pytest.raises(ResourceLimitError):
            exhaustive_opt(m, 60)  # 61^3 = 226,981 candidate count vectors

    def test_greedy_meets_guarantee(self):
        rng = np.random.default_rng(99)
        for trial in range(25):
            n = int(rng.integers(1, 4))
            costs = [int(c) for c in rng.integers(1, 5, size=n)]
            m = random_model(rng, n, k=2, costs=costs)
            budget = int(rng.integers(max(costs), 9))
            greedy = greedy_plan(m, budget, EXACT)
            opt = exhaustive_opt(m, budget)
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

    def test_greedy_is_not_a_baseline(self):
        m = sym_model([0.5, 0.5], [0.9, 0.8], [0.8, 0.8])
        with pytest.raises(InputError, match="greedy is not a baseline"):
            baseline_plan("greedy", m, 4)

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
        with pytest.raises(InputError, match="unknown strategy 'clever'"):
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


@pytest.mark.parametrize(
    "call",
    [
        lambda m: greedy_plan(m, math.inf),
        lambda m: approximation_bound(m, math.inf),
        lambda m: with_costs(m, [math.inf] * m.num_paths),
        lambda m: budget_sweep(
            generate(m, [1] * m.num_paths, 4, seed=0),
            model_kinds=["apm"],
            strategies=["equal"],
            budgets=[math.inf],
        ),
    ],
    ids=["greedy_plan", "approximation_bound", "with_costs", "budget_sweep"],
)
def test_infinite_floats_are_input_errors(call):
    """An infinite budget or cost has no exact rational form; it is bad input."""
    with pytest.raises(InputError):
        call(sym_model([0.5, 0.5], [0.9, 0.8, 0.7], [0.8, 0.8, 0.8]))
