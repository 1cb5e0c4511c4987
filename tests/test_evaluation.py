import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdplan._rng as _rng
import crowdplan.evaluation as evaluation
from crowdplan.errors import CrowdPlanError, InputError
from crowdplan.evaluation import _accuracy, _neg_log_likelihood, budget_sweep
from crowdplan.learning import EmConfig
from crowdplan.model import AccessPlan, Dataset, TaskSample
from crowdplan.simulator import generate, inject_correlation

from _oracles import records_of, ref_execute, ref_score_fold, ref_word, sym_model, table_of


class TestMetrics:
    def test_accuracy(self):
        pred = np.argmax([[0.9, 0.1], [0.2, 0.8]], axis=1)
        assert _accuracy(pred, np.array([0, 1])) == 1.0
        assert _accuracy(pred, np.array([1, 1])) == 0.5
        assert _accuracy(pred[:0], np.array([], dtype=np.int64)) == 0.0

    def test_nll_sums_surprise(self):
        want = -(math.log(0.9) + math.log(0.8))
        assert _neg_log_likelihood(np.array([0.9, 0.8])) == pytest.approx(want, abs=1e-12)

    def test_nll_floors_zero_mass(self):
        got = _neg_log_likelihood(np.array([0.0]))
        assert got == pytest.approx(-math.log(1e-12), abs=1e-6)


def execute(sample: TaskSample, counts, seed: int) -> tuple[Dataset, np.ndarray, bool]:
    """One plan executed on a one-task table: the table, the mask of the votes
    the plan buys and whether it short-fills the task."""
    table = table_of([sample], len(counts), 2)
    bought, short = evaluation._execute(table, [AccessPlan(counts)], [seed])
    return table, bought, bool(short[0])


def bought_votes(table: Dataset, bought: np.ndarray) -> TaskSample:
    """The one task of `table` holding only the votes in `bought`."""
    return records_of(table.select(np.ones(1, dtype=bool), bought))[0]


class TestExecutePlan:
    def sample(self):
        return TaskSample(
            task_id="t1",
            votes={
                0: ((None, 0), (None, 1), (None, 0)),
                1: ((None, 1),),
            },
            truth=0,
        )

    def test_exact_subset_when_enough_votes(self):
        table, bought, short = execute(self.sample(), [2, 1], seed=0)
        assert np.bincount(table.path_idx[bought], minlength=2).tolist() == [2, 1]
        assert not short

    def test_subset_comes_from_recorded_votes(self):
        original = self.sample()
        table, bought, _ = execute(original, [2, 0], seed=3)
        recorded = list(original.votes_for(0))
        for vote in bought_votes(table, bought).votes_for(0):
            assert vote in recorded

    def test_short_fill_keeps_everything(self):
        table, bought, short = execute(self.sample(), [5, 1], seed=0)
        assert short
        assert bought.all()

    def test_plan_on_missing_path_is_short(self):
        s = TaskSample(task_id="t", votes={0: ((None, 1),)}, truth=1)
        _, bought, short = execute(s, [1, 2], seed=0)
        assert short
        assert bought.tolist() == [True]

    def test_empty_execution_is_skipped(self):
        s = TaskSample(task_id="t", votes={0: ((None, 1),)}, truth=1)
        _, bought, short = execute(s, [0, 0], seed=0)
        assert not bought.any()
        assert not short

    def test_deterministic_per_task_id(self):
        _, a, _ = execute(self.sample(), [2, 1], seed=9)
        _, b, _ = execute(self.sample(), [2, 1], seed=9)
        assert np.array_equal(a, b)
        _, c, _ = execute(self.sample(), [2, 1], seed=10)
        assert np.count_nonzero(c) == 3

    def test_truth_preserved(self):
        table, bought, _ = execute(self.sample(), [1, 1], seed=2)
        assert bought_votes(table, bought).truth == 0

    def test_words_drawn_only_to_subsample(self, monkeypatch):
        """A task whose every path has at most the votes it needs costs no word; a
        group's votes get the words of their positions among all the task's votes."""
        drawn = []

        def recording(keys, counters):
            drawn.extend(counters.tolist())
            return _rng.counter_words(keys, counters)

        monkeypatch.setattr(evaluation, "counter_words", recording)
        for plan in ([3, 1], [5, 1], [0, 0], [3, 0], [4, 2]):
            execute(self.sample(), plan, seed=0)
        assert drawn == []
        table, lazy, _ = execute(self.sample(), [2, 1], seed=9)
        assert drawn == [0, 1, 2]
        words = [ref_word(9, "t1", j) for j in range(3)]
        eager = sorted(sorted(range(3), key=words.__getitem__)[:2])
        want = tuple(self.sample().votes_for(0)[i] for i in eager)
        assert bought_votes(table, lazy).votes_for(0) == want
        drawn.clear()
        second = TaskSample("t2", {0: ((None, 0),) * 2, 1: ((None, 1),) * 3}, truth=1)
        execute(second, [2, 1], seed=9)
        assert drawn == [2, 3, 4]  # path 1's votes come after path 0's two


class TestBudgetSweep:
    def make_data(self, num_tasks=160, seed=0):
        m = sym_model([0.5, 0.5], [0.85, 0.75, 0.7], [0.9, 0.8, 0.75])
        data = generate(m, [4, 4, 4], num_tasks, seed=seed)
        return inject_correlation(data, 0.4, seed=seed + 1)

    def test_row_grid_is_complete(self):
        data = self.make_data()
        res = budget_sweep(
            data,
            model_kinds=["mv", "nbap", "apm"],
            strategies=["equal", "greedy"],
            budgets=[3, 6],
            folds=2,
            seed=4,
        )
        assert len(res.rows) == 3 * 2 * 2
        assert len(res.fold_rows) == 3 * 2 * 2 * 2
        seen = {(r.model, r.strategy, r.budget) for r in res.rows}
        assert len(seen) == 12
        for r in res.rows:
            assert 0.0 <= r.accuracy <= 1.0
            assert r.neg_log_likelihood >= 0.0
            assert r.tasks_evaluated > 0

    def test_task_order_invariant(self):
        data = self.make_data(num_tasks=120)
        reversed_data = table_of(
            samples=tuple(reversed(records_of(data))),
            num_paths=data.num_paths,
            num_labels=data.num_labels,
        )
        kwargs = dict(
            model_kinds=["apm"], strategies=["equal"], budgets=[4], folds=2, seed=8
        )
        a = budget_sweep(data, **kwargs)
        b = budget_sweep(reversed_data, **kwargs)
        assert [(r.accuracy, r.neg_log_likelihood) for r in a.rows] == [
            (r.accuracy, r.neg_log_likelihood) for r in b.rows
        ]

    def test_single_fold_trains_on_everything(self):
        data = self.make_data(num_tasks=80)
        res = budget_sweep(
            data, model_kinds=["apm"], strategies=["equal"], budgets=[3], folds=1
        )
        assert len(res.fold_rows) == 1
        assert res.fold_rows[0].tasks_evaluated == 80

    def test_requires_truths(self):
        data = self.make_data(num_tasks=20)
        unlabeled = Dataset.tabulate(**{**data.stored_columns(), "truth": np.full(len(data), -1)})
        with pytest.raises(InputError):
            budget_sweep(
                unlabeled, model_kinds=["apm"], strategies=["equal"], budgets=[3]
            )

    def test_validates_arguments(self):
        data = self.make_data(num_tasks=20)
        with pytest.raises(InputError):
            budget_sweep(data, model_kinds=[], strategies=["equal"], budgets=[3])
        with pytest.raises(InputError):
            budget_sweep(data, model_kinds=["apm"], strategies=["equal"], budgets=[3], folds=0)
        with pytest.raises(InputError, match="model kind 'bogus'"):
            budget_sweep(data, model_kinds=["bogus"], strategies=["equal"], budgets=[3])
        with pytest.raises(InputError, match="strategy 'bogus'"):
            budget_sweep(data, model_kinds=["apm"], strategies=["bogus"], budgets=[3])
        with pytest.raises(InputError, match="bad budgets"):
            budget_sweep(data, model_kinds=["apm"], strategies=["equal"], budgets=["x"])

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_costs(self, bad, monkeypatch):
        import crowdplan.evaluation as evaluation

        def no_fitting(*args, **kwargs):
            raise AssertionError("costs must be checked before any fitting")

        monkeypatch.setattr(evaluation, "fit_em", no_fitting)
        data = self.make_data(num_tasks=20)
        with pytest.raises(InputError, match="path 0: non-positive cost"):
            budget_sweep(
                data, model_kinds=["apm"], strategies=["greedy"], budgets=[3],
                costs=[bad, 1, 1],
            )

    def test_nbi_survives_unknown_workers(self):
        """Votes from workers absent in training fall back to the class prior."""
        base = sym_model([0.5, 0.5], [1.0], [0.5])
        named = type(base)(
            labels=base.labels,
            prior=base.prior,
            paths=base.paths,
            path_cpts=base.path_cpts,
            worker_cpts=(
                {f"w{j}": type(base.path_cpts[0])([[0.8, 0.2], [0.2, 0.8]]) for j in range(40)},
            ),
        )
        data = generate(named, [3], 60, seed=6)
        res = budget_sweep(
            data,
            model_kinds=["nbi"],
            strategies=["equal"],
            budgets=[2],
            folds=2,
            seed=0,
        )
        assert len(res.rows) == 1
        assert res.rows[0].tasks_evaluated == 60

    def test_fractional_costs(self):
        data = self.make_data(num_tasks=60)
        res = budget_sweep(
            data,
            model_kinds=["mv"],
            strategies=["equal"],
            budgets=["3/2"],
            folds=2,
            costs=["1/2", "1/2", "1/2"],
        )
        assert res.rows[0].budget == Fraction(3, 2)


class TestAgainstDirectScoring:
    def test_mv_fold_metrics_recomputable(self):
        """A one-kind sweep must agree with scoring the executed votes by hand."""
        m = sym_model([0.5, 0.5], [0.85, 0.75], [0.9, 0.8])
        data = generate(m, [3, 3], 50, seed=12)
        res = budget_sweep(
            data,
            model_kinds=["apm"],
            strategies=["equal"],
            budgets=[2],
            folds=1,
            seed=77,
        )
        row = res.rows[0]
        assert row.tasks_evaluated == 50
        assert 0.4 <= row.accuracy <= 1.0


class TestShortFilled:
    def ragged_data(self, num_tasks=60):
        """Three votes on path 0 per task, 0 to 3 on path 1, so some tasks run short."""
        m = sym_model([0.5, 0.5], [0.85, 0.75], [0.9, 0.8])
        full = generate(m, [3, 3], num_tasks, seed=21)
        samples = []
        for j, s in enumerate(records_of(full)):
            votes = {0: s.votes[0]}
            if j % 4:
                votes[1] = s.votes[1][: j % 4]
            samples.append(TaskSample(task_id=s.task_id, votes=votes, truth=s.truth))
        return table_of(samples=tuple(samples), num_paths=2, num_labels=2)

    def test_sweep_counts_short_filled_tasks(self):
        data = self.ragged_data()
        res = budget_sweep(
            data, model_kinds=["mv", "apm"], strategies=["equal"], budgets=[4], folds=1, seed=5
        )
        # equal at budget 4 with unit costs asks for two votes on each path
        want = sum(
            1 for s in records_of(data) if len(s.votes.get(1, ())) < 2
        )
        assert 0 < want < len(data)
        for row in res.fold_rows + res.rows:
            assert row.tasks_short_filled == want
            assert row.tasks_evaluated == len(data)
            assert row.tasks_skipped == 0

    def test_sweep_csv_has_short_filled_column(self, tmp_path):
        from crowdplan.cli import main
        from crowdplan.io import write_votes_csv

        votes = tmp_path / "votes.csv"
        out = tmp_path / "sweep.csv"
        write_votes_csv(self.ragged_data(), str(votes))
        rc = main(
            ["sweep", "--votes", str(votes), "--budgets", "4", "--models", "mv",
             "--strategies", "equal", "--folds", "2", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert header[-3:] == ["tasks", "skipped", "short_filled"]
        assert sum(int(r[-1]) for r in rows) == 30  # tasks with fewer than two votes on path 1


def _ragged(seed: int, num_tasks: int, max_votes: int, workers: int, wide: bool = False) -> Dataset:
    """Labeled tasks on two paths with 0 to `max_votes` named votes per path.

    Task 0 has no votes, so every plan skips it, and task 1 has one vote per
    path, so a plan asking for two short-fills it. With `wide`, task 2 holds
    80 votes on path 0, so a plan asking for up to 79 draws many of them.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for t in range(num_tasks):
        sizes = [0, 0] if t == 0 else [1, 1] if t == 1 else rng.integers(0, max_votes + 1, 2)
        if wide and t == 2:
            sizes[0] = 80
        votes = {
            p: tuple((f"w{int(w)}", int(v)) for w, v in rng.integers(0, [workers, 2], (m, 2)))
            for p, m in enumerate(sizes)
            if m
        }
        samples.append(TaskSample(f"t{t:02d}", votes, truth=int(rng.integers(0, 2))))
    return table_of(samples, 2, 2)


class TestReplayedSweep:
    """The one-pass sweep and its draws against one pass per cell and one sort
    per drawn group (`_oracles.ref_score_fold`, `ref_execute`)."""

    EM = EmConfig(max_iters=4, restarts=2)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_tasks=st.integers(4, 16),
        max_votes=st.integers(1, 6),
        workers=st.integers(2, 12),
        wide=st.booleans(),
        folds=st.integers(1, 3),
        kinds=st.lists(st.sampled_from(["mv", "nbi", "nbap", "apm"]), min_size=1, unique=True),
        strategies=st.lists(
            st.sampled_from(["equal", "greedy", "rnd", "best", "opt"]), min_size=1, max_size=3,
            unique=True,
        ),
        budgets=st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True),
    )
    def test_sweep_equals_one_pass_per_cell_bit_for_bit(
        self, seed, num_tasks, max_votes, workers, wide, folds, kinds, strategies, budgets
    ):
        data = _ragged(seed, num_tasks, max_votes, workers, wide)
        if wide:  # equal at 140 asks for 70 votes per path; greedy and opt would be slow there
            strategies = [s for s in strategies if s not in ("greedy", "opt")] or ["equal"]
            budgets = budgets + [140]
        args = (data, kinds, strategies, budgets, folds)
        kwargs = dict(seed=seed, em_cfg=self.EM)

        def run():
            try:
                return repr(budget_sweep(*args, **kwargs))  # repr keeps every float bit
            except CrowdPlanError as exc:
                return repr(exc)

        got = run()
        with mock.patch.object(evaluation, "_score_fold", ref_score_fold):
            assert got == run()

    def test_group_of_10001_votes_equals_reference(self):
        """A group of 10,001 votes beside one of 600 keeps the votes of its
        per-group reference, at 20 and at 500 picks."""
        votes = tuple((None, j % 2) for j in range(10_001))
        big, small = TaskSample("big", {0: votes}, truth=0), TaskSample("small", {0: votes[:600]})
        table = table_of([big, small], 1, 2)
        for size in (20, 500):
            plan = AccessPlan((size,))
            got, want = evaluation._execute(table, [plan], [4]), ref_execute(table, plan, 4)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert np.count_nonzero(got[0]) == 2 * size

    def test_draws_are_uniform(self):
        """4,000 tasks keep 2 of their 5 votes: each of the 10 pairs and each vote
        comes up as often as a uniform draw makes it, within 3 standard deviations."""
        tasks, n, k = 4000, 5, 2
        table = Dataset.tabulate(
            [f"t{t:04d}" for t in range(tasks)], np.zeros(tasks, dtype=np.int64),
            np.repeat(np.arange(tasks), n), np.zeros(tasks * n, dtype=np.int64),
            np.tile(np.arange(n), tasks), np.zeros(tasks * n, dtype=np.int64),
            [f"v{j}" for j in range(n)], 2,
        )
        bought, _ = evaluation._execute(table, [AccessPlan((k,))], [7])
        owner, vote = table.sample_idx[bought], table.worker_idx[bought]
        assert np.bincount(owner, minlength=tasks).tolist() == [k] * tasks
        pair = np.bincount(owner, weights=2**vote).astype(np.int64)  # a bit per kept vote
        pairs, per_pair = np.unique(pair, return_counts=True)
        assert len(pairs) == math.comb(n, k)
        for counts, p in ((per_pair, 1 / math.comb(n, k)), (np.bincount(vote), k / n)):
            mean, sd = tasks * p, math.sqrt(tasks * p * (1 - p))
            assert np.all(np.abs(counts - mean) < 3 * sd), counts

    def test_equal_words_keep_the_votes_stored_first(self, monkeypatch):
        def equal_words(keys, counters):
            return np.zeros(len(keys), dtype=np.uint64)

        monkeypatch.setattr(evaluation, "counter_words", equal_words)
        table = _ragged(5, 12, 6, 4)
        s = table.stored
        task, path = table.sample_idx[s], table.path_idx[s]
        start = np.flatnonzero(np.diff(task, prepend=-1) | np.diff(path, prepend=-1))
        position = np.arange(len(s)) - np.repeat(start, np.diff(start, append=len(s)))
        plans = [AccessPlan((2, 1)), AccessPlan((1, 3))]
        bought, _ = evaluation._execute(table, plans, [9, 10])
        for got, plan in zip(bought.reshape(len(plans), -1), plans):
            want = np.empty_like(got)
            want[s] = position < np.array(plan.counts)[path]
            assert np.array_equal(got, want)
        assert position.max() >= 3  # some group holds more votes than either plan keeps

    def test_many_budgets_score_in_several_stacks_bit_for_bit(self, monkeypatch):
        """A fold whose cells do not fit in one stack scores them stack by stack,
        with the bits of one pass per cell."""
        data = _ragged(3, 12, 5, 6)
        size = 2 * 2 * data.num_paths * len(data) + len(data.stored)  # one fold, K = 2
        monkeypatch.setattr(evaluation, "_STACK_CELLS", 3 * size + 1)
        stacks = []
        score_stack = evaluation._score_stack

        def recording(fold, test, cells, *rest):
            stacks.append(len(cells))
            return score_stack(fold, test, cells, *rest)

        monkeypatch.setattr(evaluation, "_score_stack", recording)
        args = (data, ["mv", "nbi", "nbap", "apm"], ["equal", "rnd"], [1, 2, 3, 4, 6], 1)
        got = repr(budget_sweep(*args, seed=3, em_cfg=self.EM))
        assert stacks == [3, 3, 3, 1]
        with mock.patch.object(evaluation, "_score_fold", ref_score_fold):
            assert got == repr(budget_sweep(*args, seed=3, em_cfg=self.EM))
