import numpy as np
import pytest

from crowdplan.errors import InputError, MissingWorkerCptError
from crowdplan.inference import ModelKind, infer
from crowdplan.model import Cpt, LabelSpace, NbiModel, TaskSample

from _oracles import (
    enum_posterior,
    naive_path_posterior,
    naive_worker_posterior,
    random_model,
    random_sample,
    sym_cpt,
    sym_model,
)


def repeated(label, repeats):
    """One task with `repeats` pooled votes for `label` on path 0, its id the count."""
    return TaskSample(task_id=str(repeats), votes={0: ((None, label),) * repeats})


def make_nbi(worker_accs, prior=(0.5, 0.5)):
    return NbiModel(
        labels=LabelSpace(2),
        prior=np.asarray(prior, dtype=np.float64),
        worker_cpts={w: sym_cpt(a) for w, a in worker_accs.items()},
    )


class TestMajorityVote:
    def test_probs_are_vote_shares(self):
        m = sym_model([0.5, 0.5], [0.8], [0.9])
        s = TaskSample(task_id="t", votes={0: ((None, 1), (None, 1), (None, 0))})
        p = infer("mv", m, [s])[0]
        np.testing.assert_allclose(p.probs, [1 / 3, 2 / 3])
        assert p.prediction == 1

    def test_tie_goes_to_lowest_label(self):
        m = sym_model([0.5, 0.5], [0.8], [0.9])
        s = TaskSample(task_id="t", votes={0: ((None, 1), (None, 0))})
        assert infer("mv", m, [s])[0].prediction == 0

    def test_no_votes_is_uniform(self):
        m = sym_model([0.5, 0.5], [0.8], [0.9])
        s = TaskSample(task_id="t", votes={})
        p = infer("mv", m, [s])[0]
        np.testing.assert_allclose(p.probs, [0.5, 0.5])

    def test_vote_order_irrelevant(self):
        m = sym_model([0.5, 0.5], [0.8, 0.8], [0.9, 0.9])
        a = TaskSample(task_id="t", votes={0: ((None, 1), (None, 0)), 1: ((None, 1),)})
        b = TaskSample(task_id="u", votes={1: ((None, 1),), 0: ((None, 0), (None, 1))})
        pa, pb = infer("mv", m, [a, b])
        assert np.array_equal(pa.probs, pb.probs)


class TestApmPosterior:
    def test_single_vote_frozen_value(self):
        """One vote through a 0.9-accurate path read by a 0.8-accurate pool."""
        m = sym_model([0.5, 0.5], [0.9], [0.8])
        s = TaskSample(task_id="t", votes={0: ((None, 1),)})
        p = infer("apm", m, [s])[0]
        assert p.probs[1] == pytest.approx(0.74, abs=1e-12)
        assert p.prediction == 1
        assert p.confidence == pytest.approx(0.74, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(101)
        for trial in range(200):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            per_worker = bool(rng.integers(0, 2))
            m = random_model(rng, n, k=k, per_worker=per_worker)
            s = random_sample(rng, m)
            got = infer("apm", m, [s])[0].probs
            want = enum_posterior(m, s)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_empty_sample_returns_prior(self):
        m = sym_model([0.3, 0.7], [0.9], [0.8])
        p = infer("apm", m, [TaskSample(task_id="t", votes={})])[0]
        np.testing.assert_allclose(p.probs, [0.3, 0.7], atol=1e-15)
        assert not p.degenerate_evidence

    def test_vote_order_within_path_is_bitwise_invariant(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            per_worker = bool(rng.integers(0, 2))
            m = random_model(rng, 2, k=2, per_worker=per_worker, workers_per_path=3)
            s = random_sample(rng, m, max_votes=4)
            shuffled = {}
            for path, votes in s.votes.items():
                order = rng.permutation(len(votes))
                shuffled[path] = tuple(votes[i] for i in order)
            s2 = TaskSample(task_id="t1", votes=shuffled)
            a, b = infer("apm", m, [s, s2])
            assert np.array_equal(a.probs, b.probs)

    def test_conflicting_certain_paths_flag_degenerate(self):
        m = sym_model([0.4, 0.6], [1.0, 1.0], [1.0, 1.0])
        s = TaskSample(task_id="t", votes={0: ((None, 0),), 1: ((None, 1),)})
        p = infer("apm", m, [s])[0]
        assert p.degenerate_evidence
        np.testing.assert_allclose(p.probs, [0.4, 0.6])

    def test_per_worker_tables(self):
        m = sym_model([0.5, 0.5], [0.9], [0.8])
        mixed = type(m)(
            labels=m.labels,
            prior=m.prior,
            paths=m.paths,
            path_cpts=m.path_cpts,
            worker_cpts=({"a": sym_cpt(0.95), "b": sym_cpt(0.6)},),
        )
        s = TaskSample(task_id="t", votes={0: (("a", 1), ("b", 0))})
        got = infer("apm", mixed, [s])[0].probs
        want = enum_posterior(mixed, s)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
        with pytest.raises(MissingWorkerCptError):
            infer("apm", mixed, [TaskSample(task_id="t", votes={0: (("zz", 1),)})])


class TestNbiPosterior:
    def test_two_agreeing_reliable_workers(self):
        nm = make_nbi({"a": 0.9, "b": 0.9})
        s = TaskSample(task_id="t", votes={0: (("a", 0), ("b", 0))})
        p = infer("nbi", nm, [s])[0]
        assert p.probs[0] == pytest.approx(0.81 / 0.82, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(77)
        for trial in range(100):
            accs = {f"w{i}": float(rng.uniform(0.55, 0.95)) for i in range(3)}
            prior = rng.uniform(0.2, 0.8)
            nm = make_nbi(accs, prior=(prior, 1 - prior))
            workers = sorted(accs)
            votes = tuple(
                (workers[int(rng.integers(0, 3))], int(rng.integers(0, 2)))
                for _ in range(int(rng.integers(1, 5)))
            )
            s = TaskSample(task_id="t", votes={0: votes})
            rows = {w: nm.worker_cpts[w].rows for w in workers}
            want = naive_worker_posterior(nm.prior, rows, votes)
            np.testing.assert_allclose(infer("nbi", nm, [s])[0].probs, want, atol=1e-12)

    def test_votes_pool_across_paths(self):
        nm = make_nbi({"a": 0.9, "b": 0.8})
        one_path = TaskSample(task_id="t", votes={0: (("a", 1), ("b", 1))})
        two_paths = TaskSample(task_id="u", votes={0: (("a", 1),), 1: (("b", 1),)})
        a, b = infer("nbi", nm, [one_path, two_paths])
        assert np.array_equal(a.probs, b.probs)

    def test_unknown_worker_raises(self):
        nm = make_nbi({"a": 0.9})
        s = TaskSample(task_id="t", votes={0: (("ghost", 1),)})
        with pytest.raises(MissingWorkerCptError) as exc:
            infer("nbi", nm, [s])
        assert exc.value.worker_id == "ghost"

    def test_vote_without_worker_id_raises(self):
        s = TaskSample(task_id="t", votes={0: ((None, 1),)})
        with pytest.raises(MissingWorkerCptError, match="no CPT for worker 'None'"):
            infer("nbi", make_nbi({"a": 0.9}), [s])

    def test_conflicting_certain_workers_fall_back_to_prior(self):
        nm = make_nbi({"a": 1.0, "b": 1.0}, prior=(0.25, 0.75))
        s = TaskSample(task_id="t", votes={0: (("a", 0), ("b", 1))})
        p = infer("nbi", nm, [s])[0]
        assert p.degenerate_evidence
        np.testing.assert_allclose(p.probs, [0.25, 0.75])


class TestNbapPosterior:
    def test_identity_path_collapses_to_worker_accuracy(self):
        """With a perfectly faithful path the marginal is just the pool table."""
        m = sym_model([0.5, 0.5], [1.0], [0.9])
        s = TaskSample(task_id="t", votes={0: ((None, 0), (None, 0))})
        p = infer("nbap", m, [s])[0]
        assert p.probs[0] == pytest.approx(0.81 / 0.82, abs=1e-12)
        q = infer("apm", m, [s])[0]
        assert p.probs[0] == pytest.approx(q.probs[0], abs=1e-12)

    def test_matches_marginal_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            k = int(rng.integers(2, 4))
            m = random_model(rng, int(rng.integers(1, 4)), k=k)
            s = random_sample(rng, m)
            got = infer("nbap", m, [s])[0].probs
            want = naive_path_posterior(m, s)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_requires_shared_tables(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, 2, per_worker=True)
        s = TaskSample(task_id="t", votes={0: (("w0_0", 1),)})
        with pytest.raises(InputError):
            infer("nbap", m, [s])


class TestConfidenceDamping:
    """Repeated votes through one noisy path should persuade the exact model less."""

    def test_exact_is_strictly_less_confident(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            path_acc = float(rng.uniform(0.6, 0.95))
            worker_acc = float(rng.uniform(0.6, 0.95))
            m = sym_model([0.5, 0.5], [path_acc], [worker_acc])
            samples = [repeated(0, r) for r in range(2, 7)]
            for apm, nbap in zip(infer("apm", m, samples), infer("nbap", m, samples)):
                assert apm.confidence < nbap.confidence - 1e-12

    def test_frozen_two_vote_gap(self):
        m = sym_model([0.5, 0.5], [0.9], [0.9])
        s = TaskSample(task_id="t", votes={0: ((None, 0), (None, 0))})
        assert infer("apm", m, [s])[0].probs[0] == pytest.approx(
            0.8902439024390244, abs=1e-12
        )
        assert infer("nbap", m, [s])[0].probs[0] == pytest.approx(
            0.9540295119182747, abs=1e-12
        )

    def test_gap_grows_with_repeats(self):
        m = sym_model([0.5, 0.5], [0.85], [0.8])
        samples = [repeated(0, r) for r in range(1, 8)]
        gaps = [
            nbap.confidence - apm.confidence
            for apm, nbap in zip(infer("apm", m, samples), infer("nbap", m, samples))
        ]
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_degenerate_path_gives_equality(self):
        m = sym_model([0.5, 0.5], [1.0], [0.8])
        samples = [repeated(0, r) for r in range(1, 6)]
        for a, b in zip(infer("apm", m, samples), infer("nbap", m, samples)):
            np.testing.assert_allclose(a.probs, b.probs, atol=1e-12, rtol=0)


class TestMonotoneAgreement:
    def test_extra_agreeing_vote_never_hurts(self):
        rng = np.random.default_rng(41)
        for trial in range(30):
            m = sym_model(
                [0.5, 0.5],
                [float(rng.uniform(0.55, 0.95))],
                [float(rng.uniform(0.55, 0.95))],
            )
            prev = 0.5
            for post in infer("apm", m, [repeated(1, r) for r in range(1, 9)]):
                cur = post.probs[1]
                assert cur >= prev - 1e-12
                prev = cur


class TestDispatch:
    def test_kinds(self):
        m = sym_model([0.5, 0.5], [0.9], [0.8])
        nm = make_nbi({"a": 0.9})
        s = TaskSample(task_id="t", votes={0: ((None, 1),)})
        sw = TaskSample(task_id="t", votes={0: (("a", 1),)})
        for kind in ModelKind:
            model, sample = (nm, sw) if kind is ModelKind.NBI else (m, s)
            by_enum = infer(kind, model, [sample])[0].probs
            assert np.array_equal(by_enum, infer(kind.value, model, [sample])[0].probs)
        assert infer("mv", m, [s])[0].prediction == 1


    def test_wrong_model_type(self):
        m = sym_model([0.5, 0.5], [0.9], [0.8])
        nm = make_nbi({"a": 0.9})
        s = TaskSample(task_id="t", votes={0: ((None, 1),)})
        with pytest.raises(InputError):
            infer("nbi", m, [s])
        with pytest.raises(InputError):
            infer("apm", nm, [s])
        with pytest.raises(InputError):
            infer("nope", m, [s])

    def test_batch_is_checked_like_a_dataset(self):
        """`infer` tabulates its samples as a Dataset: repeated task ids and bad truths fail."""
        m = sym_model([0.5, 0.5], [0.9], [0.8])
        s = TaskSample(task_id="t", votes={0: ((None, 1),)})
        with pytest.raises(InputError, match="duplicate task id 't'"):
            infer("apm", m, [s, s])
        with pytest.raises(InputError, match="truth 2"):
            infer("mv", m, [TaskSample(task_id="t", votes={0: ((None, 1),)}, truth=2)])
        assert len(infer("apm", m, [s, TaskSample(task_id="u", votes={})])) == 2
