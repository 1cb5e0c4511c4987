import math
from fractions import Fraction

import numpy as np
import pytest

import crowdplan._rng as _rng
from crowdplan._rng import stream_keys, substream
from crowdplan.errors import InputError
from crowdplan.evaluation import (
    accuracy,
    budget_sweep,
    execute_plan_on_sample,
    neg_log_likelihood,
)
from crowdplan.inference import Posterior
from crowdplan.model import Dataset, TaskSample
from crowdplan.simulator import generate, inject_correlation

from _oracles import sym_model


def posterior_of(probs):
    probs = np.asarray(probs, dtype=np.float64)
    pred = int(np.argmax(probs))
    return Posterior(
        probs=probs, prediction=pred, confidence=float(probs[pred])
    )


class TestMetrics:
    def test_accuracy(self):
        posts = [posterior_of([0.9, 0.1]), posterior_of([0.2, 0.8])]
        assert accuracy(posts, [0, 1]) == 1.0
        assert accuracy(posts, [1, 1]) == 0.5
        assert accuracy([], []) == 0.0

    def test_nll_sums_surprise(self):
        posts = [posterior_of([0.9, 0.1]), posterior_of([0.2, 0.8])]
        want = -(math.log(0.9) + math.log(0.8))
        assert neg_log_likelihood(posts, [0, 1]) == pytest.approx(want, abs=1e-12)

    def test_nll_floors_zero_mass(self):
        posts = [posterior_of([1.0, 0.0])]
        got = neg_log_likelihood(posts, [1])
        assert got == pytest.approx(-math.log(1e-12), abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            accuracy([posterior_of([0.5, 0.5])], [0, 1])
        with pytest.raises(InputError):
            neg_log_likelihood([], [0])


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
        ex = execute_plan_on_sample(self.sample(), [2, 1], seed=0)
        assert len(ex.sample.votes_for(0)) == 2
        assert len(ex.sample.votes_for(1)) == 1
        assert not ex.short_filled
        assert not ex.skipped

    def test_subset_comes_from_recorded_votes(self):
        original = self.sample()
        ex = execute_plan_on_sample(original, [2, 0], seed=3)
        recorded = list(original.votes_for(0))
        for vote in ex.sample.votes_for(0):
            assert vote in recorded

    def test_short_fill_keeps_everything(self):
        ex = execute_plan_on_sample(self.sample(), [5, 1], seed=0)
        assert ex.short_filled
        assert len(ex.sample.votes_for(0)) == 3

    def test_plan_on_missing_path_is_short(self):
        s = TaskSample(task_id="t", votes={0: ((None, 1),)}, truth=1)
        ex = execute_plan_on_sample(s, [1, 2], seed=0)
        assert ex.short_filled
        assert ex.sample.votes_for(1) == ()

    def test_empty_execution_is_skipped(self):
        s = TaskSample(task_id="t", votes={0: ((None, 1),)}, truth=1)
        ex = execute_plan_on_sample(s, [0, 0], seed=0)
        assert ex.skipped
        assert not ex.sample.votes

    def test_deterministic_per_task_id(self):
        a = execute_plan_on_sample(self.sample(), [2, 1], seed=9)
        b = execute_plan_on_sample(self.sample(), [2, 1], seed=9)
        assert a.sample == b.sample
        c = execute_plan_on_sample(self.sample(), [2, 1], seed=10)
        assert isinstance(c.sample, TaskSample)

    def test_truth_preserved(self):
        ex = execute_plan_on_sample(self.sample(), [1, 1], seed=2)
        assert ex.sample.truth == 0

    def test_stream_opened_only_to_subsample(self, monkeypatch):
        """A task whose every path has at most the votes it needs opens no stream."""
        opened = []

        def recording(seed, prefix, parts):
            parts = list(parts)
            opened.extend((*prefix, part) for part in parts)
            return stream_keys(seed, prefix, parts)

        monkeypatch.setattr(_rng, "stream_keys", recording)
        for plan in ([3, 1], [5, 1], [0, 0], [3, 0], [4, 2]):
            execute_plan_on_sample(self.sample(), plan, seed=0)
        assert opened == []
        lazy = execute_plan_on_sample(self.sample(), [2, 1], seed=9)
        assert opened == [("exec", "t1")]
        eager = sorted(substream(9, "exec", "t1").choice(3, size=2, replace=False))
        assert lazy.sample.votes_for(0) == tuple(self.sample().votes_for(0)[i] for i in eager)


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
        reversed_data = Dataset(
            samples=tuple(reversed(data.samples)),
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
        unlabeled = Dataset(
            samples=tuple(
                TaskSample(task_id=s.task_id, votes=s.votes) for s in data.samples
            ),
            num_paths=data.num_paths,
            num_labels=data.num_labels,
        )
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
        for j, s in enumerate(full.samples):
            votes = {0: s.votes[0]}
            if j % 4:
                votes[1] = s.votes[1][: j % 4]
            samples.append(TaskSample(task_id=s.task_id, votes=votes, truth=s.truth))
        return Dataset(samples=tuple(samples), num_paths=2, num_labels=2)

    def test_sweep_counts_short_filled_tasks(self):
        data = self.ragged_data()
        res = budget_sweep(
            data, model_kinds=["mv", "apm"], strategies=["equal"], budgets=[4], folds=1, seed=5
        )
        # equal at budget 4 with unit costs asks for two votes on each path
        want = sum(
            1 for s in data.samples if len(s.votes.get(1, ())) < 2
        )
        assert 0 < want < len(data.samples)
        for row in res.fold_rows + res.rows:
            assert row.tasks_short_filled == want
            assert row.tasks_evaluated == len(data.samples)
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
