import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crowdplan.learning as learning
from crowdplan.cli import main
from crowdplan.errors import InputError, ResourceLimitError
from crowdplan.learning import (
    EmConfig,
    fit_em,
    fit_nbi,
    fit_supervised,
    log_likelihood,
)
from crowdplan.model import (
    Cpt,
    Dataset,
    LabelSpace,
    NbiModel,
    TaskSample,
    validate_model,
)
from crowdplan.simulator import generate

from _oracles import aligned_worst_row_l1, records_of, ref_em_fit, sym_cpt, sym_model, table_of

FAST = EmConfig(max_iters=200, restarts=2, seed=0)


def uniform_model(num_paths=1):
    return sym_model([0.5, 0.5], [0.5] * num_paths, [0.5] * num_paths)


class TestLogLikelihood:
    def test_uninformative_model_single_vote(self):
        """With every table uniform, one labeled vote carries mass 1/4."""
        m = uniform_model()
        data = table_of(
            samples=(TaskSample(task_id="t", votes={0: ((None, 1),)}, truth=0),),
            num_paths=1,
            num_labels=2,
        )
        assert log_likelihood(m, data) == pytest.approx(math.log(0.25), abs=1e-12)

    def test_marginalizes_when_truth_unknown(self):
        m = uniform_model()
        data = table_of(
            samples=(TaskSample(task_id="t", votes={0: ((None, 1),)}),),
            num_paths=1,
            num_labels=2,
        )
        assert log_likelihood(m, data) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_additive_over_tasks(self):
        m = sym_model([0.4, 0.6], [0.9], [0.8])
        s1 = TaskSample(task_id="a", votes={0: ((None, 1),)}, truth=1)
        s2 = TaskSample(task_id="b", votes={0: ((None, 0), (None, 1))})
        both = table_of(samples=(s1, s2), num_paths=1, num_labels=2)
        one = table_of(samples=(s1,), num_paths=1, num_labels=2)
        two = table_of(samples=(s2,), num_paths=1, num_labels=2)
        assert log_likelihood(m, both) == pytest.approx(
            log_likelihood(m, one) + log_likelihood(m, two), abs=1e-12
        )

    def test_empty_dataset_is_zero(self):
        m = uniform_model()
        assert log_likelihood(m, table_of(samples=(), num_paths=1, num_labels=2)) == 0.0

    def test_nbi_label_outside_the_model_rejected(self):
        m = NbiModel(LabelSpace(2), np.array([0.5, 0.5]), worker_cpts={"w": sym_cpt(0.8)})
        data = table_of(samples=(TaskSample("t", {0: (("w", 2),)}),), num_paths=1, num_labels=3)
        with pytest.raises(InputError, match="task t: label 2 outside 0..1"):
            log_likelihood(m, data)

    def test_layout_mismatch_rejected(self):
        m = uniform_model(num_paths=1)
        data = table_of(samples=(TaskSample("t", {1: ((None, 0),)}),), num_paths=2, num_labels=2)
        with pytest.raises(InputError, match="task t: path index 1 outside 0..0"):
            log_likelihood(m, data)


class TestEmConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            EmConfig(max_iters=0)
        with pytest.raises(InputError):
            EmConfig(rel_tol=-1.0)
        with pytest.raises(InputError):
            EmConfig(smoothing_alpha=-0.5)
        with pytest.raises(InputError):
            EmConfig(restarts=0)


class TestSupervised:
    def test_recovers_generating_tables(self):
        truth = sym_model([0.35, 0.65], [0.85, 0.75], [0.9, 0.8])
        data = generate(truth, [3, 3], 3000, seed=11)
        model, report = fit_supervised(data, cfg=FAST)
        assert validate_model(model) == []
        assert aligned_worst_row_l1(model, truth) < 0.06
        assert report.converged

    def test_identity_collapse_without_smoothing(self):
        """Votes that copy a known truth drive both layers to near-identity."""
        samples = []
        for t in range(60):
            y = t % 2
            samples.append(
                TaskSample(
                    task_id=f"t{t}", votes={0: ((None, y), (None, y))}, truth=y
                )
            )
        data = table_of(samples=tuple(samples), num_paths=1, num_labels=2)
        cfg = EmConfig(max_iters=300, smoothing_alpha=0.0, restarts=1, seed=0)
        model, _ = fit_supervised(data, cfg=cfg)
        combined = model.path_cpts[0].rows @ model.worker_cpts[0].rows
        np.testing.assert_allclose(combined, np.eye(2), atol=5e-3)

    def test_requires_complete_truths(self):
        data = table_of(
            samples=(TaskSample(task_id="t", votes={0: ((None, 1),)}),),
            num_paths=1,
            num_labels=2,
        )
        with pytest.raises(InputError):
            fit_supervised(data)


class TestEm:
    def test_objective_history_is_monotone(self):
        truth = sym_model([0.5, 0.5], [0.8, 0.8], [0.9, 0.75])
        data = generate(truth, [3, 3], 400, seed=3)
        hidden = Dataset.tabulate(**{**data.stored_columns(), "truth": np.full(len(data), -1)})
        for alpha in (0.0, 1.0):
            cfg = EmConfig(max_iters=120, smoothing_alpha=alpha, restarts=1, seed=1)
            _, report = fit_em(hidden, cfg=cfg)
            hist = report.history
            assert len(hist) == report.iterations
            assert all(b >= a - 1e-8 for a, b in zip(hist, hist[1:]))

    def test_bitwise_deterministic(self):
        truth = sym_model([0.5, 0.5], [0.8, 0.8], [0.9, 0.75])
        data = generate(truth, [2, 2], 300, seed=5)
        m1, r1 = fit_em(data, cfg=FAST)
        m2, r2 = fit_em(data, cfg=FAST)
        assert np.array_equal(m1.prior, m2.prior)
        for i in range(2):
            assert np.array_equal(m1.path_cpts[i].rows, m2.path_cpts[i].rows)
            assert np.array_equal(m1.worker_cpts[i].rows, m2.worker_cpts[i].rows)
        assert r1.final_log_likelihood == r2.final_log_likelihood
        assert r1.restart_index == r2.restart_index

    def test_partial_labels_accepted(self):
        truth = sym_model([0.5, 0.5], [0.8], [0.85])
        data = generate(truth, [4], 500, seed=9)
        columns = data.stored_columns()
        columns["truth"][1::2] = -1  # every other task, in stored order, unlabeled
        half = Dataset.tabulate(**columns)
        model, report = fit_em(half, cfg=FAST)
        assert validate_model(model) == []
        assert 0 <= report.restart_index < FAST.restarts

    def test_final_loglik_matches_scorer(self):
        truth = sym_model([0.5, 0.5], [0.8], [0.85])
        data = generate(truth, [3], 200, seed=2)
        model, report = fit_em(data, cfg=FAST)
        assert report.final_log_likelihood == pytest.approx(
            log_likelihood(model, data), abs=1e-9
        )

    def test_shared_layout_has_one_table_per_path(self):
        truth = sym_model([0.5, 0.5], [0.8, 0.7], [0.85, 0.9])
        data = generate(truth, [2, 2], 200, seed=4)
        model, _ = fit_em(data, share_workers=True, cfg=FAST)
        assert all(isinstance(t, Cpt) for t in model.worker_cpts)
        assert len(model.path_cpts) == 2

    def test_smoothing_keeps_tables_interior(self):
        truth = sym_model([0.5, 0.5], [0.95], [0.95])
        data = generate(truth, [2], 150, seed=8)
        model, _ = fit_em(data, cfg=EmConfig(smoothing_alpha=2.0, restarts=1))
        assert model.path_cpts[0].rows.min() > 0
        assert model.worker_cpts[0].rows.min() > 0

    def test_voteless_path_flagged_and_uniform(self):
        samples = tuple(
            TaskSample(task_id=f"t{t}", votes={0: ((None, t % 2),)}, truth=t % 2)
            for t in range(40)
        )
        data = table_of(samples=samples, num_paths=2, num_labels=2)
        model, report = fit_em(data, cfg=FAST)
        assert report.sparse_paths == (1,)
        np.testing.assert_allclose(model.worker_cpts[1].rows, 0.5)
        np.testing.assert_allclose(model.path_cpts[1].rows, 0.5)

    def test_per_worker_mode(self):
        truth = sym_model([0.5, 0.5], [0.9, 0.9], [0.8, 0.8])
        per = type(truth)(
            labels=truth.labels,
            prior=truth.prior,
            paths=truth.paths,
            path_cpts=truth.path_cpts,
            worker_cpts=(
                {"a": sym_cpt(0.92), "b": sym_cpt(0.65)},
                {"c": sym_cpt(0.85)},
            ),
        )
        data = generate(per, [4, 2], 800, seed=21)
        model, report = fit_em(data, share_workers=False, cfg=FAST)
        assert validate_model(model) == []
        assert sorted(model.worker_cpts[0]) == ["a", "b"]
        assert sorted(model.worker_cpts[1]) == ["c"]
        assert report.converged

    def test_model_assembly_scans_slots_once(self, monkeypatch):
        """Building the model scans the slot owners and the voteless paths once, not per path."""
        scans = {"iter": 0, "contains": 0}

        class Counting(tuple):
            def __iter__(self):
                scans["iter"] += 1
                return super().__iter__()

            def __contains__(self, item):
                scans["contains"] += 1
                return super().__contains__(item)

        real_slots, real_voteless = learning._slots, learning._voteless_paths

        def counted_slots(t, share):
            slots = real_slots(t, share)
            return slots._replace(path=Counting(slots.path))

        monkeypatch.setattr(learning, "_slots", counted_slots)
        monkeypatch.setattr(learning, "_voteless_paths", lambda t: Counting(real_voteless(t)))
        # 40 voted paths with two workers each, and an empty path after each.
        samples = tuple(
            TaskSample(
                task_id=f"t{t}",
                votes={2 * p: ((f"w{t % 2}", (t + p) % 2),) for p in range(40)},
                truth=t % 2,
            )
            for t in range(6)
        )
        data = table_of(samples=samples, num_paths=80, num_labels=2)
        model, report = fit_em(
            data, share_workers=False, cfg=EmConfig(max_iters=2, restarts=1)
        )
        assert report.sparse_paths == tuple(range(1, 80, 2))
        assert all(sorted(model.worker_cpts[2 * p]) == ["w0", "w1"] for p in range(40))
        assert scans["contains"] == 0
        assert scans["iter"] <= 3

    def test_latent_states_are_aligned_on_voted_paths_only(self, monkeypatch):
        """One assignment per voted path, none for the 39 voteless paths between them."""
        calls = []
        real = learning._max_assignment

        def counting(weights):
            calls.append(weights.shape)
            return real(weights)

        monkeypatch.setattr(learning, "_max_assignment", counting)
        samples = (
            TaskSample("t0", {0: ((None, 0),), 40: ((None, 1),)}, truth=0),
            TaskSample("t1", {0: ((None, 1),)}, truth=1),
        )
        data = table_of(samples=samples, num_paths=None, num_labels=2)
        model, report = fit_em(data, cfg=EmConfig(max_iters=3, restarts=1))
        assert model.num_paths == 41 and len(report.sparse_paths) == 39
        assert len(calls) == 2

    def test_each_distinct_table_is_validated_once(self, monkeypatch):
        """Voteless paths share one uniform table, checked once rather than per path."""
        checked = []
        real = Cpt.violations

        def counting(table, context):
            checked.append(context)
            return real(table, context)

        monkeypatch.setattr(Cpt, "violations", counting)
        samples = (
            TaskSample("t0", {0: ((None, 0),), 59: ((None, 1), (None, 1))}, truth=0),
            TaskSample("t1", {0: ((None, 1),)}, truth=1),
        )
        data = table_of(samples=samples, num_paths=60, num_labels=2)
        model, report = fit_em(data, cfg=EmConfig(max_iters=3, restarts=1))
        assert len(report.sparse_paths) == 58
        # the prior, then a path table and a vote table for each of the two
        # voted paths, and the shared uniform table
        assert len(checked) == 6
        assert validate_model(model) == []

    def test_per_worker_mode_needs_ids(self):
        truth = sym_model([0.5, 0.5], [0.9], [0.8])
        data = generate(truth, [2], 50, seed=0)
        with pytest.raises(InputError):
            fit_em(data, share_workers=False, cfg=FAST)

    def test_per_worker_mode_needs_votes(self):
        """Without a single vote there is no worker to fit a table for."""
        data = table_of(samples=(TaskSample("t0", {}),), num_paths=1, num_labels=2)
        with pytest.raises(InputError):
            fit_em(data, share_workers=False, cfg=FAST)


class TestNbi:
    def make_data(self, accs, num_tasks, seed, hide_truth=False):
        per = sym_model([0.5, 0.5], [1.0] * len(accs), [0.5] * len(accs))
        per = type(per)(
            labels=per.labels,
            prior=per.prior,
            paths=per.paths,
            path_cpts=per.path_cpts,
            worker_cpts=tuple({w: sym_cpt(a)} for w, a in accs.items()),
        )
        data = generate(per, [1] * len(accs), num_tasks, seed=seed)
        if hide_truth:
            data = Dataset.tabulate(**{**data.stored_columns(), "truth": np.full(len(data), -1)})
        return data

    def test_recovers_worker_accuracies(self):
        accs = {"alice": 0.9, "bob": 0.7, "carol": 0.6}
        data = self.make_data(accs, 2500, seed=31)
        model, report = fit_nbi(data, cfg=FAST)
        assert isinstance(model, NbiModel)
        for w, a in accs.items():
            got = model.worker_cpts[w].rows
            np.testing.assert_allclose(got, sym_cpt(a).rows, atol=0.05)
        assert report.converged
        assert not model.sparse_workers

    def test_hidden_truth_recovery_up_to_relabeling(self):
        accs = {"alice": 0.9, "bob": 0.75, "carol": 0.8}
        data = self.make_data(accs, 2500, seed=13, hide_truth=True)
        model, _ = fit_nbi(data, cfg=FAST)
        direct = max(
            abs(model.worker_cpts[w].rows - sym_cpt(a).rows).max()
            for w, a in accs.items()
        )
        assert direct < 0.06

    def test_unlabeled_fit_relabels_prior_and_tables_alike(self, monkeypatch):
        """Without truths, the fit's outcome labels are permuted to put worker
        agreement on the diagonal: the prior and every worker table's rows by
        the same columns. Seed 4 draws tables whose fit needs the 3-cycle."""
        k, rng = 3, np.random.default_rng(4)
        per = sym_model([0.5, 0.5], [1.0] * 3, [0.5] * 3)
        per = type(per)(
            labels=LabelSpace(k),
            prior=rng.dirichlet([1.0] * k),
            paths=per.paths,
            path_cpts=(Cpt(np.eye(k)),) * 3,
            worker_cpts=tuple({w: Cpt(rng.dirichlet([0.5] * k, size=k))} for w in "abc"),
        )
        data = generate(per, [1, 1, 1], 60, seed=4)
        data = Dataset.tabulate(**{**data.stored_columns(), "truth": np.full(len(data), -1)})
        cfg = EmConfig(max_iters=50, restarts=1, seed=4)
        cols = []
        real = learning._max_assignment

        def recording(weights):
            cols.append(real(weights))
            return cols[-1]

        monkeypatch.setattr(learning, "_max_assignment", recording)
        model, _ = fit_nbi(data, cfg)
        monkeypatch.setattr(learning, "_max_assignment", lambda w: list(range(k)))
        raw, _ = fit_nbi(data, cfg)
        assert cols == [[1, 2, 0]]
        assert not model.sparse_workers
        np.testing.assert_array_equal(model.prior, raw.prior[cols[0]])
        for w in "abc":
            np.testing.assert_array_equal(
                model.worker_cpts[w].rows, raw.worker_cpts[w].rows[cols[0]]
            )

    def test_sparse_worker_gets_uniform_table(self):
        accs = {"alice": 0.9, "bob": 0.8}
        data = self.make_data(accs, 300, seed=7)
        lonely = TaskSample(
            task_id="zz-extra", votes={0: (("drifter", 1),)}, truth=1
        )
        data = table_of(
            samples=records_of(data) + (lonely,), num_paths=2, num_labels=2
        )
        model, report = fit_nbi(data, cfg=FAST)
        assert "drifter" in model.sparse_workers
        assert "drifter" in report.sparse_workers
        np.testing.assert_allclose(model.worker_cpts["drifter"].rows, 0.5)

    def test_requires_worker_ids(self):
        data = generate(sym_model([0.5, 0.5], [0.9], [0.8]), [2], 50, seed=0)
        with pytest.raises(InputError):
            fit_nbi(data)


def noisy_table(rng, k, paths, truths, tasks=10, workers=4):
    """Random votes from workers w0..w3, 0 to 3 per task and path, so EM fits
    noise and each restart stops where its own objective levels off."""
    samples = [TaskSample("first", {0: (("w0", int(rng.integers(k))),)})]
    for t in range(tasks):
        votes = {}
        for p in range(paths):
            n = int(rng.integers(0, 4))
            if n:
                votes[p] = tuple(
                    (f"w{int(rng.integers(workers))}", int(rng.integers(k))) for _ in range(n)
                )
        samples.append(TaskSample(f"t{t}", votes))
    for i, s in enumerate(samples):
        known = truths == "all" or (truths == "some" and rng.random() < 0.5)
        samples[i] = TaskSample(s.task_id, s.votes, int(rng.integers(k)) if known else None)
    return table_of(samples, paths, k)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["shared", "per-worker", "nbi"]),
    truths=st.sampled_from(["none", "some", "all"]),
    restarts=st.integers(1, 4).map(lambda i: 5 - i),
    max_iters=st.integers(1, 30).map(lambda i: 31 - i),
    rel_tol=st.sampled_from([10.0**-e for e in (6, 5, 4, 7, 3, 8, 2, 9, 1, 10, 11, 12)]),
    alpha=st.sampled_from([0.0, 1.0]),
    k=st.integers(2, 4),
    paths=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
# Four restarts that stop at three or four different iterations, won by a later one.
@example("shared", "none", 4, 30, 1e-6, 0.0, 3, 2, 66)
@example("per-worker", "some", 4, 30, 1e-6, 1.0, 3, 2, 4)
@example("nbi", "none", 4, 30, 1e-6, 1.0, 3, 2, 6)
@example("shared", "all", 4, 30, 1e-6, 1.0, 3, 2, 0)
def test_stacked_em_matches_restart_by_restart(
    kind, truths, restarts, max_iters, rel_tol, alpha, k, paths, seed
):
    """Every restart stacked in one EM gives the parameters and report of
    fitting them one after another, bit for bit, also when restarts stop at
    different iterations."""
    data = noisy_table(np.random.default_rng(seed), k, paths, truths)
    cfg = EmConfig(max_iters, rel_tol, alpha, seed % 1000, restarts)
    real, fits = learning._em, []
    with mock.patch.object(learning, "_em", lambda *args: fits.append(real(*args)) or fits[-1]):
        fit_nbi(data, cfg) if kind == "nbi" else fit_em(data, kind == "shared", cfg)
    (params, report), = fits
    want_params, want = ref_em_fit(data, kind, cfg)
    assert len(params) == len(want_params)
    for got, ref in zip(params, want_params):
        assert got.shape == ref.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(ref).tobytes()
    assert np.array(report.history).tobytes() == np.array(want["history"]).tobytes()
    assert (report.iterations, report.converged, report.restart_index) == (
        want["iterations"], want["converged"], want["restart_index"]
    )


def test_oversize_stacked_fit_is_refused_before_it_allocates():
    """Restarts are fitted as one stack, so the size guard counts every restart's
    (K_y, K_z, N, n) posteriors: 3 * 10^2 * (100 * 5000 + 100) cells here."""
    data = table_of([TaskSample(f"t{i}", {}) for i in range(5000)], num_paths=100, num_labels=10)
    with pytest.raises(ResourceLimitError, match="posteriors needs 150030000 array cells"):
        fit_em(data, cfg=EmConfig(restarts=3))


def test_oversize_stacked_nbi_fit_is_refused_before_it_allocates():
    """2 * 10^7 restarts of one vote: 2 * 10^7 * 2 * (1 * 2 + 1 + 1) cells."""
    data = table_of([TaskSample("t", {0: (("w", 1),)})], num_paths=1, num_labels=2)
    with pytest.raises(ResourceLimitError, match="posteriors needs 160000000 array cells"):
        fit_nbi(data, cfg=EmConfig(restarts=2 * 10**7))


@pytest.mark.parametrize("kind", ["apm", "nbi"])
def test_learn_with_oversize_restarts_exits_3(tmp_path, capsys, kind):
    votes = tmp_path / "votes.csv"
    votes.write_text("task_id,path_id,worker_id,vote,truth\nt1,0,w,a,\nt2,0,w,b,\n")
    argv = ["learn", "--votes", str(votes), "--model-kind", kind, "--restarts", str(10**8)]
    assert main(argv + ["--out", str(tmp_path / "m.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: fitting every restart's tables and posteriors")
