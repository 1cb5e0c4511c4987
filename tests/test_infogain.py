import math

import numpy as np
import pytest

import crowdplan.infogain as infogain
from crowdplan.errors import InputError, ResourceLimitError
from crowdplan.infogain import (
    IgConfig,
    IgMode,
    check_submodularity,
    exact_conditional_entropy,
    exact_count_vectors,
    information_gain,
    prior_entropy,
    sampled_conditional_entropies,
    sampled_conditional_entropy,
)

from _oracles import enum_conditional_entropy, random_model, sym_model

EXACT = IgConfig(mode=IgMode.EXACT)


class TestPriorEntropy:
    def test_skewed_binary(self):
        assert prior_entropy([0.9, 0.1]) == pytest.approx(
            0.3250829733914482, abs=1e-15
        )

    def test_uniform_is_log_k(self):
        assert prior_entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)
        assert prior_entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-15)

    def test_point_mass_is_zero(self):
        assert prior_entropy([1.0, 0.0]) == 0.0


class TestExactEntropy:
    def test_single_vote_frozen_values(self):
        """One vote on a 0.9 path with 0.8 workers leaves 0.5731 nats of doubt."""
        m = sym_model([0.5, 0.5], [0.9], [0.8])
        h = exact_conditional_entropy(m, [1])
        assert h == pytest.approx(0.5730569171314203, abs=1e-12)
        ig = information_gain(m, [1], EXACT)
        assert ig.value == pytest.approx(0.1200902634285250, abs=1e-12)
        assert ig.stderr == 0.0
        assert ig.mode is IgMode.EXACT

    def test_matches_raw_assignment_oracle(self):
        rng = np.random.default_rng(202)
        for trial in range(40):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            m = random_model(rng, n, k=k)
            counts = [int(c) for c in rng.integers(0, 3, size=n)]
            if sum(counts) == 0 or sum(counts) > 5:
                counts = [1] * n
            got = exact_conditional_entropy(m, counts)
            want = enum_conditional_entropy(m, counts)
            assert got == pytest.approx(want, abs=1e-10)

    def test_empty_plan_gives_prior_entropy(self):
        m = sym_model([0.3, 0.7], [0.9], [0.8])
        assert exact_conditional_entropy(m, [0]) == pytest.approx(
            prior_entropy([0.3, 0.7]), abs=1e-15
        )
        ig = information_gain(m, [0], EXACT)
        assert ig.value == 0.0

    def test_gain_bounded_by_prior_entropy(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            m = random_model(rng, 2, k=2)
            counts = [int(c) for c in rng.integers(0, 4, size=2)]
            ig = information_gain(m, counts, EXACT)
            assert 0.0 <= ig.value <= prior_entropy(m.prior) + 1e-12

    def test_path_relabeling_invariance(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            m = random_model(rng, 3, k=2)
            counts = [int(c) for c in rng.integers(0, 3, size=3)]
            perm = rng.permutation(3)
            m2 = type(m)(
                labels=m.labels,
                prior=m.prior,
                paths=tuple(
                    type(m.paths[0])(index=j, cost=m.paths[i].cost)
                    for j, i in enumerate(perm)
                ),
                path_cpts=tuple(m.path_cpts[i] for i in perm),
                worker_cpts=tuple(m.worker_cpts[i] for i in perm),
            )
            counts2 = [counts[i] for i in perm]
            a = information_gain(m, counts, EXACT).value
            b = information_gain(m2, counts2, EXACT).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_diminishing_returns_along_one_path(self):
        m = sym_model([0.5, 0.5], [0.85], [0.8])
        gains = [information_gain(m, [s], EXACT).value for s in range(7)]
        deltas = [b - a for a, b in zip(gains, gains[1:])]
        assert all(d >= -1e-12 for d in deltas)
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_count_vector_sizes(self):
        assert exact_count_vectors([1], 2) == 2
        assert exact_count_vectors([2, 3], 2) == 3 * 4
        assert exact_count_vectors([2], 3) == 6  # C(4, 2)
        assert exact_count_vectors([0, 0], 5) == 1

    def test_enumeration_limit(self):
        m = sym_model([0.5, 0.5], [0.9] * 2, [0.8] * 2)
        with pytest.raises(ResourceLimitError):
            exact_conditional_entropy(m, [3, 3], exact_limit=10)

    def test_per_worker_tables_rejected(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 2, per_worker=True)
        with pytest.raises(InputError):
            exact_conditional_entropy(m, [1, 1])


class TestSampledEntropy:
    def test_deterministic_given_seed(self):
        m = sym_model([0.6, 0.4], [0.85, 0.7], [0.8, 0.9])
        cfg = IgConfig(mode=IgMode.SAMPLED, num_samples=20_000, seed=3)
        a = sampled_conditional_entropy(m, [2, 1], cfg)
        b = sampled_conditional_entropy(m, [2, 1], cfg)
        assert a == b

    def test_different_seeds_differ(self):
        m = sym_model([0.6, 0.4], [0.85, 0.7], [0.8, 0.9])
        a = sampled_conditional_entropy(
            m, [2, 1], IgConfig(mode=IgMode.SAMPLED, num_samples=10_000, seed=0)
        )
        b = sampled_conditional_entropy(
            m, [2, 1], IgConfig(mode=IgMode.SAMPLED, num_samples=10_000, seed=1)
        )
        assert a != b

    def test_empty_plan_short_circuits(self):
        m = sym_model([0.3, 0.7], [0.9], [0.8])
        h, se = sampled_conditional_entropy(
            m, [0], IgConfig(mode=IgMode.SAMPLED, num_samples=100)
        )
        assert h == prior_entropy(m.prior)
        assert se == 0.0

    def test_close_to_exact(self):
        rng = np.random.default_rng(55)
        for trial in range(5):
            m = random_model(rng, 2, k=2)
            counts = [2, 2]
            exact = exact_conditional_entropy(m, counts)
            h, se = sampled_conditional_entropy(
                m, counts, IgConfig(mode=IgMode.SAMPLED, num_samples=40_000, seed=trial)
            )
            assert abs(h - exact) < max(5 * se, 0.01)

    @pytest.mark.parametrize(
        "case, want",
        [
            ("two paths", (0.5083152835193311, 0.004727373970008095)),
            ("two blocks", (0.400673684810626, 0.0007997221299531129)),
            ("three labels", (0.5330749408182333, 0.013917592862895014)),
        ],
    )
    def test_draws_are_pinned(self, case, want):
        """Frozen estimates: any change to how votes are drawn from the streams shows here."""
        model, counts, g, seed = {
            "two paths": (sym_model([0.6, 0.4], [0.85, 0.7], [0.8, 0.9]), [2, 1], 1000, 3),
            "two blocks": (sym_model([0.5, 0.5], [0.9], [0.8]), [5], 2 * 8192 + 7, 11),
            "three labels": (random_model(np.random.default_rng(5), 3, k=3), [3, 0, 2], 500, 2),
        }[case]
        got = sampled_conditional_entropy(
            model, counts, IgConfig(mode=IgMode.SAMPLED, num_samples=g, seed=seed)
        )
        assert got == pytest.approx(want, abs=1e-14)

    def test_stderr_scales_down(self):
        m = sym_model([0.6, 0.4], [0.8, 0.75], [0.85, 0.7])
        small = sampled_conditional_entropy(
            m, [3, 2], IgConfig(mode=IgMode.SAMPLED, num_samples=8192 * 2, seed=0)
        )
        large = sampled_conditional_entropy(
            m, [3, 2], IgConfig(mode=IgMode.SAMPLED, num_samples=8192 * 32, seed=0)
        )
        assert large[1] < small[1]


class TestSharedBlocks:
    """A greedy step's plans share one stream per block and each path table it draws."""

    def test_step_builds_each_table_once_per_block(self, monkeypatch):
        """Base tables 5, candidates' own paths 5, later paths shifted once 4: 14, not 6 x 5."""
        model = random_model(np.random.default_rng(4), 5, k=4, costs=[1, 2, 2, 3, 4])
        cfg = IgConfig(mode=IgMode.SAMPLED, num_samples=8192 + 1, seed=2)
        base = [5, 4, 3, 3, 2]
        plans = [base] + [base[:i] + [base[i] + 1] + base[i + 1 :] for i in range(5)]
        built = []
        original = infogain._path_factor

        def counting(model, path, *args):
            built.append(path)
            return original(model, path, *args)

        monkeypatch.setattr(infogain, "_path_factor", counting)
        together = sampled_conditional_entropies(model, plans, cfg)
        assert len(built) == 2 * 14  # two blocks
        built.clear()
        apart = [sampled_conditional_entropy(model, plan, cfg) for plan in plans]
        assert len(built) == 2 * 30
        assert together == apart

    def test_per_worker_plan_rejected(self):
        model = random_model(np.random.default_rng(1), 2, per_worker=True)
        cfg = IgConfig(mode=IgMode.SAMPLED, num_samples=10)
        with pytest.raises(InputError):
            sampled_conditional_entropies(model, [[0, 0], [1, 0]], cfg)


class TestModeSelection:
    def test_auto_uses_exact_for_small_plans(self):
        m = sym_model([0.5, 0.5], [0.9], [0.8])
        est = information_gain(m, [3], IgConfig(mode=IgMode.AUTO))
        assert est.mode is IgMode.EXACT
        assert est.stderr == 0.0

    def test_auto_falls_back_to_sampling(self):
        m = sym_model([0.5, 0.5], [0.9], [0.8])
        cfg = IgConfig(mode=IgMode.AUTO, num_samples=8192, exact_limit=10)
        est = information_gain(m, [40], cfg)
        assert est.mode is IgMode.SAMPLED
        assert est.stderr > 0.0

    def test_auto_counts_the_real_enumeration(self):
        """21 votes on the bundled model is 2^21 assignments but only 480 count vectors."""
        from importlib.resources import files

        from crowdplan.infogain import _resolve_mode
        from crowdplan.model import load_model

        m = load_model(str(files("crowdplan") / "data" / "example_model.json"))
        assert exact_count_vectors([9, 7, 5], 2) == 480
        assert _resolve_mode(IgConfig(), [9, 7, 5], 2) is IgMode.EXACT
        est = information_gain(m, [9, 7, 5])
        assert est.mode is IgMode.EXACT
        assert est.value == information_gain(m, [9, 7, 5], EXACT).value
        # the cap is also the votes sampling would simulate: G per planned vote
        assert _resolve_mode(IgConfig(num_samples=20), [9, 7, 5], 2) is IgMode.SAMPLED
        assert _resolve_mode(IgConfig(num_samples=20, exact_limit=1), [0, 0, 0], 2) is IgMode.EXACT

    def test_exact_mode_respects_limit(self):
        m = sym_model([0.5, 0.5], [0.9] * 3, [0.8] * 3)
        cfg = IgConfig(mode=IgMode.EXACT, exact_limit=4)
        with pytest.raises(ResourceLimitError):
            information_gain(m, [2, 2, 2], cfg)

    def test_config_validation(self):
        with pytest.raises(InputError):
            IgConfig(num_samples=0)
        with pytest.raises(InputError):
            IgConfig(exact_limit=0)


class TestSubmodularityCheck:
    def test_random_models_pass(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            m = random_model(rng, int(rng.integers(1, 4)), k=2)
            report = check_submodularity(m, trials=20, seed=trial)
            assert report.ok, report
            assert len(report.violations) == 0
            assert len(report.monotonicity_violations) == 0
            assert report.worst_margin >= -1e-9

    def test_equal_sets_give_identical_margins(self):
        """When the nested sets coincide the two marginal gains are the same floats."""
        m = sym_model([0.5, 0.5], [0.85, 0.7], [0.8, 0.9])
        counts = (1, 2)
        for path in range(2):
            grown = tuple(
                c + (1 if i == path else 0) for i, c in enumerate(counts)
            )
            base = exact_conditional_entropy(m, counts)
            after = exact_conditional_entropy(m, grown)
            gain_small = base - after
            gain_big = base - after
            assert gain_small == gain_big

    def test_trial_count_respected(self):
        m = sym_model([0.5, 0.5], [0.85], [0.8])
        report = check_submodularity(m, trials=7, seed=0)
        assert report.trials == 7
