import gc
import json
import math
import weakref
from dataclasses import replace
from importlib.resources import files
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import crowdplan.infogain as infogain
from crowdplan import cli
from crowdplan._rng import categorical_rows
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
)
from crowdplan.model import AccessPathSpec, ApmModel, Cpt, LabelSpace, with_labels
from crowdplan.planner import exhaustive_opt, greedy_plan

from _oracles import (
    enum_conditional_entropy,
    random_model,
    sym_model,
    whole_array_exact_conditional_entropy,
)

EXACT = IgConfig(mode=IgMode.EXACT)
EXAMPLE = files("crowdplan") / "data" / "example_model.json"


@pytest.fixture
def fresh_memo():
    """An empty exact memo. The memo is keyed by model content and outlives its
    models, so a test that counts builds must not find tables that an earlier
    test built for a model of the same content."""
    infogain._TABLES.clear()
    infogain._shared_memo.cache_clear()


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

    def test_nan_entry_is_an_input_error(self):
        with pytest.raises(InputError, match="prior: non-finite entries"):
            prior_entropy([math.nan, 0.5])

    def test_entries_outside_unit_interval_are_an_input_error(self):
        with pytest.raises(InputError, match=r"prior: entries outside \[0, 1\]"):
            prior_entropy([2, -1])

    def test_taken_once_per_model(self, monkeypatch, fresh_memo):
        """Information gains read H(Y) from the model's memo, so the prior is
        checked once per model content, not once per call."""
        calls = []

        def counting(prior):
            calls.append(prior)
            return original(prior)

        original = infogain.prior_entropy
        monkeypatch.setattr(infogain, "prior_entropy", counting)
        m = sym_model([0.3, 0.7], [0.9, 0.8], [0.8, 0.7])
        sampled = IgConfig(mode=IgMode.SAMPLED, num_samples=50)
        for _ in range(3):
            infogain.information_gains(m, [[0, 0], [1, 0], [2, 1]], EXACT)
            infogain.information_gains(m, [[0, 0], [1, 1]], sampled)
        assert len(calls) == 1


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
        with mock.patch.object(infogain, "EXACT_LIMIT", 10), pytest.raises(ResourceLimitError):
            exact_conditional_entropy(m, [3, 3])

    def test_per_worker_tables_rejected(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 2, per_worker=True)
        with pytest.raises(InputError):
            exact_conditional_entropy(m, [1, 1])


def zeroed_model(k, num_paths, seed, zeros):
    """A shared-table model; `zeros` zeroes about 40% of each CPT's entries, so
    that -inf factors and terms appear."""
    rng = np.random.default_rng(seed)

    def cpt():
        rows = rng.dirichlet(np.ones(k), size=k)
        if zeros:
            rows[rng.random((k, k)) < 0.4] = 0.0
            rows[np.arange(k), rng.integers(0, k, size=k)] += 0.5
            rows /= rows.sum(axis=1, keepdims=True)
        return Cpt(rows)

    return ApmModel(
        labels=LabelSpace(k),
        prior=rng.dirichlet(np.ones(k)),
        paths=tuple(AccessPathSpec(index=i, cost=1) for i in range(num_paths)),
        path_cpts=tuple(cpt() for _ in range(num_paths)),
        worker_cpts=tuple(cpt() for _ in range(num_paths)),
    )


def assert_agrees_with_references(model, counts):
    """H(Y | X_S) within 1e-12 of the log-space whole-array reference and, where
    it has at most 256 vote assignments, of raw enumeration; returns it."""
    got = exact_conditional_entropy(model, counts)
    assert abs(got - whole_array_exact_conditional_entropy(model, counts)) <= 1e-12
    if model.num_labels ** sum(counts) <= 256:
        assert abs(got - enum_conditional_entropy(model, counts)) <= 1e-12
    return got


class TestBlockedExact:
    """H(C) is scored in blocks of at most `_EXACT_ROWS` enumeration entries, and
    whatever the block size, H(Y | X_S) = H(Y) - H(C) + H(C | Y) agrees within
    1e-12 with the log-space reference and with raw enumeration."""

    # rows per block, from the enumeration's size and its last path's width
    SHAPES = {
        "one block": lambda size, width: size,
        "one block plus 1": lambda size, width: max(1, size - 1),
        "several blocks": lambda size, width: max(1, size // 4),
        "last path wider": lambda size, width: max(1, width - 1),
        "one row each": lambda size, width: 1,
    }

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(2, 10),
        st.lists(st.integers(0, 4), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(sorted(SHAPES)),
    )
    @example(2, [0], 0, False, "one block")  # the empty plan: H(Y), no block
    @example(10, [0, 0, 0], 1, True, "one row each")
    @example(4, [0, 3, 0, 2], 2, True, "last path wider")
    @example(3, [2, 0, 4], 3, False, "last path wider")
    def test_blocks_agree_with_references(self, k, votes, seed, zeros, shape):
        counts = list(votes)
        while exact_count_vectors(counts, k) > 2000:
            counts[counts.index(max(counts))] -= 1
        voted = [c for c in counts if c > 0]
        width = exact_count_vectors(voted[-1:], k)
        rows = self.SHAPES[shape](exact_count_vectors(counts, k), width)
        model = zeroed_model(k, len(counts), seed, zeros)
        blocks = []
        block = infogain._block

        def recording(x, y):
            blocks.append(len(x.top) * len(y.top))
            return block(x, y)

        with mock.patch.object(infogain, "_EXACT_ROWS", rows), \
                mock.patch.object(infogain, "_block", recording):
            assert_agrees_with_references(model, counts)
        assert sum(blocks) == (exact_count_vectors(counts, k) if voted else 0)
        assert max(blocks, default=0) <= rows

    def test_wide_enumerations_agree_with_the_reference(self):
        """At the real block size: enumerations of many blocks, and a last path
        of 45 votes, whose 17,296 count vectors are wider than a block."""
        assert math.comb(45 + 3, 3) > infogain._EXACT_ROWS
        model = random_model(np.random.default_rng(4), 5, k=4, costs=[1, 2, 2, 3, 4])
        for counts in ([2, 2, 3, 2, 2], [3, 3, 2, 2, 1], [0, 0, 0, 0, 45], [1, 0, 0, 0, 45]):
            assert exact_count_vectors(counts, 4) > infogain._EXACT_ROWS
            assert_agrees_with_references(model, counts)
        zeroed = zeroed_model(4, 5, seed=8, zeros=True)
        assert_agrees_with_references(zeroed, [2, 2, 3, 2, 2])

    def test_underflowed_label_sums_are_taken_again_in_log_space(self):
        """Worker CPTs with off-diagonal entries of 1e-200 and path CPTs that copy
        the outcome: two votes for the other label have probability 1e-400,
        which scales to 0.0. Where the first two paths' votes point to label 0
        and the last path's to label 1, every scaled product is 0.0 while each
        log term is finite, so the entry is taken again in log space by
        `_log_space`, which must agree with scipy's `logsumexp`; taking log 0
        instead would give 0 * -inf = NaN."""
        sharp = Cpt(np.array([[1.0, 1e-200], [1e-200, 1.0]]))
        model = ApmModel(
            labels=LabelSpace(2),
            prior=np.array([0.4, 0.6]),
            paths=tuple(AccessPathSpec(index=i, cost=1) for i in range(3)),
            path_cpts=(Cpt(np.eye(2)),) * 3,
            worker_cpts=(sharp,) * 3,
        )
        redone = []

        def recording(terms):
            redone.append(terms.shape[1])
            norm, post = original(terms)
            np.testing.assert_allclose(norm, logsumexp(terms, axis=0), rtol=1e-12)
            return norm, post

        original = infogain._log_space
        for counts in ([2, 2, 2], [1, 3, 2]):
            redone.clear()
            with mock.patch.object(infogain, "_log_space", recording):
                got = assert_agrees_with_references(model, counts)
            assert redone and math.isfinite(got)


@pytest.mark.usefixtures("fresh_memo")
class TestCountVectorMemo:
    """Each (path, votes) count-vector table is built once per model content: the
    prior and each path's CPT and shared worker CPT, by shape and bytes. Models
    equal in content share one memo, and the memos of the `_KEPT` most recently
    used contents outlive their models."""

    @staticmethod
    def counting(monkeypatch):
        built = []
        original = infogain._count_vector_table

        def wrapper(model, path, votes):
            built.append((id(model), path, votes))
            return original(model, path, votes)

        monkeypatch.setattr(infogain, "_count_vector_table", wrapper)
        return built

    def test_greedy_and_opt_build_each_table_once(self, monkeypatch):
        model = random_model(np.random.default_rng(4), 5, k=4, costs=[1, 2, 2, 3, 4])
        fresh = replace(model)
        calls = []
        original = infogain.exact_conditional_entropy

        def recording(model, plan, *args):
            calls.append(tuple(plan))
            return original(model, plan, *args)

        monkeypatch.setattr(infogain, "exact_conditional_entropy", recording)
        built = self.counting(monkeypatch)
        greedy = greedy_plan(model, 14, EXACT)
        opt = exhaustive_opt(model, 6)
        assert len(built) == len(set(built))
        assert {m for m, _, _ in built} == {id(model)}
        needed = {(i, c) for plan in calls for i, c in enumerate(plan) if c}
        assert {(i, c) for _, i, c in built} == needed
        assert sum(1 for plan in calls for c in plan if c) > 2 * len(built)
        # A copy of the same content shares the memo: it builds nothing and
        # gets the same bits.
        built.clear()
        assert greedy_plan(fresh, 14, EXACT) == greedy
        assert exhaustive_opt(fresh, 6) == opt
        assert built == []

    def test_models_keep_their_own_tables(self, monkeypatch):
        """Same plan, same (path, votes) keys, different parameters: each model's own values."""
        rng = np.random.default_rng(12)
        a, b = random_model(rng, 2, k=3), random_model(rng, 2, k=3)
        plan = [2, 1]
        h_a = exact_conditional_entropy(a, plan)
        h_b = exact_conditional_entropy(b, plan)
        assert h_a != h_b
        assert h_a == exact_conditional_entropy(a, plan)
        assert h_b == exact_conditional_entropy(replace(b), plan)
        assert h_a == pytest.approx(enum_conditional_entropy(a, plan), abs=1e-12)
        assert h_b == pytest.approx(enum_conditional_entropy(b, plan), abs=1e-12)
        built = self.counting(monkeypatch)
        exact_conditional_entropy(a, [2, 2])
        exact_conditional_entropy(b, [2, 2])
        assert built == [(id(a), 1, 2), (id(b), 1, 2)]

    def test_cli_requests_on_one_model_file_build_each_table_once(
        self, monkeypatch, tmp_path, capsys
    ):
        """Each request loads the model anew; its content finds the first
        request's tables. A file differing in one CPT entry builds its own."""
        built = self.counting(monkeypatch)
        plan = ["plan", "--model", str(EXAMPLE), "--budget", "30", "--strategy", "opt"]
        outputs = []
        for _ in range(3):
            assert cli.main(plan) == 0
            outputs.append(capsys.readouterr().out)
        tables = [(path, votes) for _, path, votes in built]
        assert tables and len(tables) == len(set(tables))
        assert outputs[1:] == outputs[:1] * 2

        doc = json.loads(EXAMPLE.read_text())
        doc["paths"][1]["shared_cpt"][0][0] += 2.0**-40  # within the row-sum tolerance
        nudged = tmp_path / "nudged.json"
        nudged.write_text(json.dumps(doc))
        built.clear()
        assert cli.main([plan[0], "--model", str(nudged), *plan[3:]]) == 0
        assert sorted((path, votes) for _, path, votes in built) == sorted(tables)

    def test_transposed_cpt_with_the_same_bytes_does_not_share(self):
        rows = np.array([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]])
        a = ApmModel(LabelSpace(2), [0.5, 0.5], [AccessPathSpec(0, 1)], [Cpt(rows)], [{}])
        b = replace(a, path_cpts=(Cpt(rows.reshape(3, 2)),))
        assert a.path_cpts[0].rows.tobytes() == b.path_cpts[0].rows.tobytes()
        assert infogain._memo(a) is not infogain._memo(b)

    def test_relabelled_copy_shares_its_tables(self, monkeypatch):
        model = random_model(np.random.default_rng(7), 3, k=3)
        plan = [2, 1, 3]
        h = exact_conditional_entropy(model, plan)
        built = self.counting(monkeypatch)
        renamed = with_labels(model, LabelSpace(3, ("a", "b", "c")))
        assert exact_conditional_entropy(renamed, plan) == h
        assert infogain._memo(renamed) is infogain._memo(model)
        assert built == []

    def test_memos_of_dead_models_are_kept_for_the_last_contents_only(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 2, k=3)
        exact_conditional_entropy(model, [0, 2])
        table = weakref.ref(infogain._memo(model)[1, 2][1])
        del model
        others = [random_model(rng, 2, k=3) for _ in range(infogain._KEPT)]
        for other in others[:-1]:
            exact_conditional_entropy(other, [0, 2])
        gc.collect()
        assert table() is not None  # one of the last _KEPT contents
        exact_conditional_entropy(others[-1], [0, 2])
        gc.collect()
        assert table() is None


class TestSampledEntropy:
    def test_deterministic_given_seed(self):
        m = sym_model([0.6, 0.4], [0.85, 0.7], [0.8, 0.9])
        cfg = IgConfig(mode=IgMode.SAMPLED, num_samples=20_000, seed=3)
        a = sampled_conditional_entropies(m, [[2, 1]], cfg)
        b = sampled_conditional_entropies(m, [[2, 1]], cfg)
        assert a == b

    def test_different_seeds_differ(self):
        m = sym_model([0.6, 0.4], [0.85, 0.7], [0.8, 0.9])
        a = sampled_conditional_entropies(
            m, [[2, 1]], IgConfig(mode=IgMode.SAMPLED, num_samples=10_000, seed=0)
        )
        b = sampled_conditional_entropies(
            m, [[2, 1]], IgConfig(mode=IgMode.SAMPLED, num_samples=10_000, seed=1)
        )
        assert a != b

    def test_empty_plan_short_circuits(self):
        m = sym_model([0.3, 0.7], [0.9], [0.8])
        [(h, se)] = sampled_conditional_entropies(
            m, [[0]], IgConfig(mode=IgMode.SAMPLED, num_samples=100)
        )
        assert h == prior_entropy(m.prior)
        assert se == 0.0

    def test_close_to_exact(self):
        rng = np.random.default_rng(55)
        for trial in range(5):
            m = random_model(rng, 2, k=2)
            counts = [2, 2]
            exact = exact_conditional_entropy(m, counts)
            [(h, se)] = sampled_conditional_entropies(
                m, [counts], IgConfig(mode=IgMode.SAMPLED, num_samples=40_000, seed=trial)
            )
            assert abs(h - exact) < max(5 * se, 0.01)

    @pytest.mark.parametrize(
        "case, want",
        [
            ("two paths", (0.4996795165221185, 0.004853260701797537)),
            ("two blocks", (0.3997698146972242, 0.0007945189246543076)),
            ("three labels", (0.5244370253410425, 0.014574538820116875)),
        ],
    )
    def test_draws_are_pinned(self, case, want):
        """Frozen estimates: any change to how votes are drawn from the streams shows here.
        Each lies within 1.3 standard errors of the exact value."""
        model, counts, g, seed = {
            "two paths": (sym_model([0.6, 0.4], [0.85, 0.7], [0.8, 0.9]), [2, 1], 1000, 3),
            "two blocks": (sym_model([0.5, 0.5], [0.9], [0.8]), [5], 2 * 8192 + 7, 11),
            "three labels": (random_model(np.random.default_rng(5), 3, k=3), [3, 0, 2], 500, 2),
        }[case]
        [got] = sampled_conditional_entropies(
            model, [counts], IgConfig(mode=IgMode.SAMPLED, num_samples=g, seed=seed)
        )
        assert got == pytest.approx(want, abs=1e-14)

    def test_stderr_scales_down(self):
        m = sym_model([0.6, 0.4], [0.8, 0.75], [0.85, 0.7])
        [small] = sampled_conditional_entropies(
            m, [[3, 2]], IgConfig(mode=IgMode.SAMPLED, num_samples=8192 * 2, seed=0)
        )
        [large] = sampled_conditional_entropies(
            m, [[3, 2]], IgConfig(mode=IgMode.SAMPLED, num_samples=8192 * 32, seed=0)
        )
        assert large[1] < small[1]


class TestSharedBlocks:
    """A greedy step's plans share each block's streams and each path table they draw."""

    def test_step_builds_each_table_once_per_block(self, monkeypatch):
        """Base tables 5 and candidates' own paths 5: 10 per block, not 6 x 5,
        from one draw of each path's latent states and votes per block."""
        model = random_model(np.random.default_rng(4), 5, k=4, costs=[1, 2, 2, 3, 4])
        cfg = IgConfig(mode=IgMode.SAMPLED, num_samples=8192 + 1, seed=2)
        base = [5, 4, 3, 3, 2]
        plans = [base] + [base[:i] + [base[i] + 1] + base[i + 1 :] for i in range(5)]
        built, drawn = [], []
        path_factor, draw_votes = infogain._path_factor, infogain._draw_votes

        def building(model, path, v):
            built.append((path, len(v)))
            return path_factor(model, path, v)

        def drawing(model, path, y, u):
            drawn.append((path, len(u) - 1))
            return draw_votes(model, path, y, u)

        monkeypatch.setattr(infogain, "_path_factor", building)
        monkeypatch.setattr(infogain, "_draw_votes", drawing)
        together = sampled_conditional_entropies(model, plans, cfg)
        assert len(built) == 2 * 10  # two blocks
        assert drawn == [(i, c + 1) for i, c in enumerate(base)] * 2
        built.clear()
        drawn.clear()
        apart = [sampled_conditional_entropies(model, [plan], cfg)[0] for plan in plans]
        assert len(built) == len(drawn) == 2 * 30
        assert together == apart

    def test_each_table_scores_each_distinct_count_vector_once(self, monkeypatch, fresh_memo):
        """The same step's 10 tables per block. In the 8,192-draw block `_factors`
        runs only inside `_count_vector_table`, once per (path, votes) the step
        touches, on its C(c + K - 1, K - 1) count vectors; the 1-draw block,
        smaller than every memo table, scores its one draw per table instead."""
        model = random_model(np.random.default_rng(4), 5, k=4, costs=[1, 2, 2, 3, 4])
        cfg = IgConfig(mode=IgMode.SAMPLED, num_samples=8192 + 1, seed=2)
        base = [5, 4, 3, 3, 2]
        plans = [base] + [base[:i] + [base[i] + 1] + base[i + 1 :] for i in range(5)]
        seen = []
        now = {"table": None}
        path_factor = infogain._path_factor
        build, factors = infogain._count_vector_table, infogain._factors

        def drawing(model, path, v):
            now["draws"] = v.shape[1]
            return path_factor(model, path, v)

        def building(model, path, votes):
            now["table"] = (path, votes)
            try:
                return build(model, path, votes)
            finally:
                now["table"] = None

        def scoring(model, path, label_counts):
            seen.append((now["draws"], now["table"], len(label_counts)))
            return factors(model, path, label_counts)

        monkeypatch.setattr(infogain, "_path_factor", drawing)
        monkeypatch.setattr(infogain, "_count_vector_table", building)
        monkeypatch.setattr(infogain, "_factors", scoring)
        sampled_conditional_entropies(model, plans, cfg)
        touched = {(i, c) for plan in plans for i, c in enumerate(plan)}
        assert len(touched) == 10
        built = [(table, rows) for draws, table, rows in seen if draws == 8192]
        assert sorted(table for table, _ in built) == sorted(touched)
        assert all(rows == math.comb(votes + 3, 3) for (_, votes), rows in built)
        assert [(table, rows) for draws, table, rows in seen if draws == 1] == [(None, 1)] * 10
        assert len(seen) == 10 + 10

    def test_per_worker_plan_rejected(self):
        model = random_model(np.random.default_rng(1), 2, per_worker=True)
        cfg = IgConfig(mode=IgMode.SAMPLED, num_samples=10)
        with pytest.raises(InputError):
            sampled_conditional_entropies(model, [[0, 0], [1, 0]], cfg)


def per_draw_path_factor(model, path, y, u):
    """`_path_factor` of the draws `_draw_votes` makes, without grouping: every
    draw's label counts scored on their own."""
    z = categorical_rows(np.cumsum(model.path_cpts[path].rows, axis=1)[y], u[0])
    v = categorical_rows(np.cumsum(model.worker_cpts[path].rows, axis=1)[z], u[1:])
    label_counts = (v[:, :, None] == np.arange(model.num_labels)).sum(axis=0, dtype=np.float64)
    return infogain._factors(model, path, label_counts)


def one_path_block(k, votes, draws, seed, zeros=False, same=False):
    """A one-path model and a block's outcomes and uniforms for `votes` votes.

    `zeros` zeroes about half of each CPT row, so that -inf factors appear;
    `same` gives every draw the same outcome and uniforms, so one count vector.
    """
    rng = np.random.default_rng(seed)

    def cpt():
        rows = rng.dirichlet(np.ones(k), size=k)
        if zeros:
            rows[rng.random((k, k)) < 0.5] = 0.0
            rows[np.arange(k), rng.integers(0, k, size=k)] += 0.5
            rows /= rows.sum(axis=1, keepdims=True)
        return Cpt(rows)

    model = ApmModel(
        labels=LabelSpace(k),
        prior=np.full(k, 1.0 / k),
        paths=(AccessPathSpec(index=0, cost=1),),
        path_cpts=(cpt(),),
        worker_cpts=(cpt(),),
    )
    y = rng.integers(0, k, size=draws)
    u = rng.random((votes + 1, draws))
    if same:
        y[:] = y[0]
        u[:] = u[:, :1]
    return model, y, u


def assert_same_bits(model, y, u):
    got = infogain._path_factor(model, 0, infogain._draw_votes(model, 0, y, u))
    want = per_draw_path_factor(model, 0, y, u)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    return got


class TestDistinctCountVectors:
    """Scoring each distinct count vector once gives every draw's factors bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(2, 10),
        st.integers(1, 60),
        st.sampled_from([1, 7, 8192]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
    )
    def test_grouped_factors_equal_per_draw_factors(self, k, votes, draws, seed, zeros, same):
        assert_same_bits(*one_path_block(k, votes, draws, seed, zeros, same))

    def test_zero_cpt_entries_give_the_same_minus_inf(self):
        got = assert_same_bits(*one_path_block(4, 6, 8192, seed=3, zeros=True))
        assert np.isneginf(got).any() and np.isfinite(got).any()

    @pytest.mark.parametrize("votes", [126, 127, 130])
    def test_keys_past_int64_give_one_group_per_draw(self, monkeypatch, votes):
        """At K=10 the key (votes + 1)^9 fits in int64 up to 126 votes; past
        that each draw is its own group, with the same bits."""
        fits = (votes + 1) ** 9 <= np.iinfo(np.int64).max
        assert fits == (votes == 126)
        model, y, u = one_path_block(10, votes, 8192, seed=votes, zeros=True, same=True)
        rows = []
        factors = infogain._factors

        def scoring(model, path, label_counts):
            rows.append(len(label_counts))
            return factors(model, path, label_counts)

        monkeypatch.setattr(infogain, "_factors", scoring)
        infogain._path_factor(model, 0, infogain._draw_votes(model, 0, y, u))
        assert rows == [1 if fits else 8192]
        monkeypatch.undo()
        assert_same_bits(model, y, u)
        assert_same_bits(*one_path_block(10, votes, 8192, seed=votes, zeros=True))


class TestModeSelection:
    def test_auto_uses_exact_for_small_plans(self):
        m = sym_model([0.5, 0.5], [0.9], [0.8])
        est = information_gain(m, [3], IgConfig(mode=IgMode.AUTO))
        assert est.mode is IgMode.EXACT
        assert est.stderr == 0.0

    def test_auto_falls_back_to_sampling(self):
        m = sym_model([0.5, 0.5], [0.9], [0.8])
        cfg = IgConfig(mode=IgMode.AUTO, num_samples=8192)
        with mock.patch.object(infogain, "EXACT_LIMIT", 10):
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
        with mock.patch.object(infogain, "EXACT_LIMIT", 1):
            assert _resolve_mode(IgConfig(num_samples=20), [0, 0, 0], 2) is IgMode.EXACT

    def test_exact_mode_respects_limit(self):
        m = sym_model([0.5, 0.5], [0.9] * 3, [0.8] * 3)
        with mock.patch.object(infogain, "EXACT_LIMIT", 4), pytest.raises(ResourceLimitError):
            information_gain(m, [2, 2, 2], EXACT)

    def test_config_validation(self):
        with pytest.raises(InputError):
            IgConfig(num_samples=0)


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
