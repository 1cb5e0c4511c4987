import numpy as np
import pytest

from crowdplan.errors import InputError
from crowdplan.model import Dataset, TaskSample
from crowdplan.simulator import generate, inject_correlation, quantile_paths

from _oracles import sym_cpt, sym_model


class TestGenerate:
    def test_deterministic_tables_copy_the_truth(self):
        m = sym_model([0.3, 0.7], [1.0, 1.0], [1.0, 1.0])
        data = generate(m, [3, 2], 200, seed=0)
        for s in data.samples:
            for path, votes in s.votes.items():
                assert all(v == s.truth for _, v in votes)

    def test_same_seed_same_data(self):
        m = sym_model([0.5, 0.5], [0.8, 0.7], [0.9, 0.85])
        a = generate(m, [2, 3], 150, seed=42)
        b = generate(m, [2, 3], 150, seed=42)
        assert a == b

    def test_seeds_differ(self):
        m = sym_model([0.5, 0.5], [0.8], [0.9])
        assert generate(m, [2], 50, seed=0) != generate(m, [2], 50, seed=1)

    def test_task_ids_and_counts(self):
        m = sym_model([0.5, 0.5], [0.8, 0.7], [0.9, 0.85])
        data = generate(m, [2, 0], 12, seed=1)
        assert [s.task_id for s in data.samples] == [f"t{i:06d}" for i in range(12)]
        for s in data.samples:
            assert len(s.votes_for(0)) == 2
            assert s.votes_for(1) == ()
            assert s.truth is not None

    def test_truth_frequency_tracks_prior(self):
        m = sym_model([0.9, 0.1], [0.9], [0.8])
        data = generate(m, [1], 20_000, seed=3)
        share = np.mean([s.truth for s in data.samples])
        assert share == pytest.approx(0.1, abs=0.01)

    def test_vote_frequency_tracks_model_marginal(self):
        """p(x=1) = 0.1 * 0.74 + 0.9 * 0.26 for a 0.9 path with 0.8 workers."""
        m = sym_model([0.9, 0.1], [0.9], [0.8])
        data = generate(m, [1], 20_000, seed=5)
        share = np.mean([s.votes_for(0)[0][1] for s in data.samples])
        assert share == pytest.approx(0.308, abs=0.01)

    def test_per_worker_round_robin(self):
        base = sym_model([0.5, 0.5], [0.9], [0.8])
        m = type(base)(
            labels=base.labels,
            prior=base.prior,
            paths=base.paths,
            path_cpts=base.path_cpts,
            worker_cpts=({"b": sym_cpt(0.8), "a": sym_cpt(0.9)},),
        )
        data = generate(m, [5], 20, seed=0)
        for s in data.samples:
            workers = [w for w, _ in s.votes_for(0)]
            assert workers == ["a", "b", "a", "b", "a"]

    def test_negative_task_count_rejected(self):
        m = sym_model([0.5, 0.5], [0.8], [0.9])
        with pytest.raises(InputError):
            generate(m, [1], -1)

    def test_zero_tasks(self):
        m = sym_model([0.5, 0.5], [0.8], [0.9])
        data = generate(m, [1], 0)
        assert len(data) == 0


def two_vote_dataset(num_tasks):
    """Tasks whose single path holds a fixed disagreeing vote pair (0 then 1)."""
    samples = tuple(
        TaskSample(
            task_id=f"t{i:06d}", votes={0: ((None, 0), (None, 1))}, truth=0
        )
        for i in range(num_tasks)
    )
    return Dataset(samples=samples, num_paths=1, num_labels=2)


class TestInjectCorrelation:
    def test_zero_probability_is_identity(self):
        m = sym_model([0.5, 0.5], [0.8, 0.7], [0.9, 0.85])
        data = generate(m, [3, 2], 100, seed=2)
        assert inject_correlation(data, 0.0, seed=9) == data

    def test_full_probability_copies_first_vote(self):
        m = sym_model([0.5, 0.5], [0.8, 0.7], [0.9, 0.85])
        data = generate(m, [4, 3], 200, seed=2)
        bent = inject_correlation(data, 1.0, seed=9)
        for s in bent.samples:
            for path, votes in s.votes.items():
                first = votes[0][1]
                assert all(v == first for _, v in votes)

    def test_flip_rate_matches_probability(self):
        data = two_vote_dataset(20_000)
        bent = inject_correlation(data, 0.4, seed=17)
        flipped = sum(
            1 for s in bent.samples if s.votes_for(0)[1][1] == 0
        )
        assert flipped / len(data) == pytest.approx(0.4, abs=0.02)
        assert all(s.votes_for(0)[0][1] == 0 for s in bent.samples)

    def test_first_vote_and_metadata_untouched(self):
        base = sym_model([0.5, 0.5], [0.9], [0.8])
        m = type(base)(
            labels=base.labels,
            prior=base.prior,
            paths=base.paths,
            path_cpts=base.path_cpts,
            worker_cpts=({"a": sym_cpt(0.9), "b": sym_cpt(0.7)},),
        )
        data = generate(m, [4], 100, seed=1)
        bent = inject_correlation(data, 0.8, seed=3)
        for before, after in zip(data.samples, bent.samples):
            assert after.task_id == before.task_id
            assert after.truth == before.truth
            assert after.votes_for(0)[0] == before.votes_for(0)[0]
            assert [w for w, _ in after.votes_for(0)] == [
                w for w, _ in before.votes_for(0)
            ]

    def test_changed_votes_follow_unique_leaders(self):
        """Any altered vote must equal the sole majority label of what preceded it."""
        m = sym_model([0.4, 0.6], [0.8, 0.7], [0.75, 0.9])
        data = generate(m, [5, 4], 300, seed=23)
        bent = inject_correlation(data, 0.6, seed=29)
        for before, after in zip(data.samples, bent.samples):
            for path in before.votes:
                old = [v for _, v in before.votes_for(path)]
                new = [v for _, v in after.votes_for(path)]
                tally = [0, 0]
                for j, (o, n) in enumerate(zip(old, new)):
                    if n != o:
                        assert j > 0
                        top = max(tally)
                        leaders = [c for c in range(2) if tally[c] == top]
                        assert leaders == [n]
                    tally[n] += 1

    def test_deterministic(self):
        data = two_vote_dataset(500)
        assert inject_correlation(data, 0.5, seed=3) == inject_correlation(
            data, 0.5, seed=3
        )
        assert inject_correlation(data, 0.5, seed=3) != inject_correlation(
            data, 0.5, seed=4
        )

    def test_probability_validated(self):
        data = two_vote_dataset(5)
        with pytest.raises(InputError):
            inject_correlation(data, -0.1)
        with pytest.raises(InputError):
            inject_correlation(data, 1.5)


class TestQuantilePaths:
    def test_bands_follow_accuracy_order(self):
        bands = quantile_paths({"low": 0.4, "mid": 0.5, "high": 0.9}, 3)
        assert bands == {"low": 0, "mid": 1, "high": 2}

    def test_ties_resolved_by_id(self):
        bands = quantile_paths({"b": 0.7, "a": 0.7}, 2)
        assert bands == {"a": 0, "b": 1}

    def test_balanced_band_sizes(self):
        rng = np.random.default_rng(0)
        accs = {f"w{i:04d}": float(rng.uniform(0.5, 1.0)) for i in range(3000)}
        bands = quantile_paths(accs, 3)
        counts = np.bincount(list(bands.values()), minlength=3)
        assert counts.tolist() == [1000, 1000, 1000]

    def test_needs_enough_workers(self):
        with pytest.raises(InputError):
            quantile_paths({"a": 0.5, "b": 0.6}, 3)
