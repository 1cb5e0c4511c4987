"""The simulator, and its batched draws against the per-task loops they replaced.

`generate` and `inject_correlation` draw every task's uniforms in one call
and run each draw as a pass over all tasks. `ref_generate` and
`ref_inject_correlation` below are the per-task loops that drew one uniform
per call; the batched forms must reproduce their columns and truths exactly.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdplan._rng as _rng
from crowdplan._rng import categorical_rows, stream_keys, substream
from crowdplan.errors import InputError
from crowdplan.model import AccessPathSpec, ApmModel, Cpt, Dataset, LabelSpace, TaskSample
from crowdplan.simulator import generate, inject_correlation, quantile_paths

from _oracles import records_of, sym_cpt, sym_model, table_of

PARITY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# --- the per-task references ---


def ref_draw(rng, probs):
    edges = np.cumsum(probs)
    u = rng.random(1)
    return int(np.minimum(np.searchsorted(edges, u * edges[-1], side="right"), len(probs) - 1)[0])


def ref_generate(model, counts, num_tasks, seed):
    task, paths, worker_code, label, workers, truths = [], [], [], [], {}, []
    for index in range(num_tasks):
        rng = substream(seed, "gen", index)
        y = ref_draw(rng, model.prior)
        for path in range(model.num_paths):
            if counts[path] == 0:
                continue
            z = ref_draw(rng, model.path_cpts[path].rows[y])
            table = model.worker_cpts[path]
            names = None if isinstance(table, Cpt) else tuple(sorted(table))
            for j in range(counts[path]):
                worker = None if names is None else names[j % len(names)]
                cpt = table if names is None else table[worker]
                task.append(index)
                paths.append(path)
                worker_code.append(workers.setdefault(worker, len(workers)))
                label.append(ref_draw(rng, cpt.rows[z]))
        truths.append(y)
    ids = [f"t{t:06d}" for t in range(num_tasks)]
    return Dataset.tabulate(
        ids, truths, task, paths, worker_code, label, list(workers), model.num_labels, model.num_paths
    )


def ref_inject_correlation(data, p, seed):
    cols = data.stored_columns()
    labels = []
    task = path = rng = tally = None
    for r, i, label in zip(*(cols[c].tolist() for c in ("task", "path", "label"))):
        if r != task:
            task, path, rng = r, None, substream(seed, "inject", cols["task_ids"][r])
        if i != path:
            path, tally = i, [0] * data.num_labels
        elif rng.random() < p:
            top = max(tally)
            if tally.count(top) == 1:
                label = tally.index(top)
        labels.append(label)
        tally[label] += 1
    return Dataset.tabulate(**{**cols, "label": labels})


def assert_same_columns(got, want):
    a, b = got.stored_columns(), want.stored_columns()
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert a[key].tolist() == np.asarray(b[key]).tolist(), key
        else:
            assert a[key] == b[key], key
    assert got.task_ids == want.task_ids
    assert got.truth.tolist() == want.truth.tolist()


@st.composite
def rows(draw, k):
    """A probability row from small integer weights, zeros included."""
    w = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    return [x / sum(w) for x in w]


@st.composite
def models(draw):
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, 3))

    def table():
        return Cpt([draw(rows(k)) for _ in range(k)])

    worker_cpts = []
    for _ in range(n):
        if draw(st.booleans()):
            worker_cpts.append(table())
        else:
            ids = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True))
            worker_cpts.append({w: table() for w in ids})
    return ApmModel(
        labels=LabelSpace(k),
        prior=draw(rows(k)),
        paths=tuple(AccessPathSpec(index=i, cost=Fraction(1)) for i in range(n)),
        path_cpts=tuple(table() for _ in range(n)),
        worker_cpts=tuple(worker_cpts),
    )


@st.composite
def ragged_datasets(draw):
    """Tasks with 0 to 4 votes per path, voteless tasks and 1-vote paths included."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))
    ids = draw(st.lists(st.text("xyz", min_size=1, max_size=3), max_size=12, unique=True))
    samples = []
    for tid in ids:
        votes = {}
        for i in range(n):
            path = draw(
                st.lists(
                    st.tuples(st.sampled_from([None, "a", "b", "c"]), st.integers(0, k - 1)),
                    max_size=4,
                )
            )
            if path:
                votes[i] = tuple(path)
        truth = draw(st.none() | st.integers(0, k - 1))
        samples.append(TaskSample(task_id=tid, votes=votes, truth=truth))
    return table_of(samples, n, k)


class TestBatchedDrawsMatchPerTaskLoops:
    @PARITY
    @given(models(), st.data(), st.integers(0, 30), st.integers(0, 2**32))
    def test_generate(self, model, data, num_tasks, seed):
        counts = data.draw(
            st.lists(st.integers(0, 6), min_size=model.num_paths, max_size=model.num_paths)
        )
        want = ref_generate(model, counts, num_tasks, seed)
        assert_same_columns(generate(model, counts, num_tasks, seed), want)

    @PARITY
    @given(models(), st.data(), st.integers(1, 20), st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 99))
    def test_inject_after_generate(self, model, data, num_tasks, p, seed):
        counts = data.draw(
            st.lists(st.integers(0, 6), min_size=model.num_paths, max_size=model.num_paths)
        )
        base = generate(model, counts, num_tasks, seed)
        assert_same_columns(
            inject_correlation(base, p, seed + 1), ref_inject_correlation(base, p, seed + 1)
        )

    @PARITY
    @given(ragged_datasets(), st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2**32))
    def test_inject_on_ragged_data(self, data, p, seed):
        assert_same_columns(inject_correlation(data, p, seed), ref_inject_correlation(data, p, seed))


class TestStreams:
    @pytest.fixture
    def opened(self, monkeypatch):
        """The key of every stream derived, as (*prefix, part)."""
        keys = []

        def recording(seed, prefix, parts):
            parts = list(parts)
            keys.extend((*prefix, part) for part in parts)
            return stream_keys(seed, prefix, parts)

        monkeypatch.setattr(_rng, "stream_keys", recording)
        return keys

    def test_generate_opens_one_stream_per_task(self, opened):
        m = sym_model([0.5, 0.5], [0.8, 0.7, 0.6], [0.9, 0.85, 0.8])
        generate(m, [3, 0, 2], 25, seed=4)
        assert opened == [("gen", t) for t in range(25)]

    def test_inject_skips_tasks_without_a_second_vote_on_a_path(self, opened):
        samples = (
            TaskSample(task_id="lone", votes={0: ((None, 0),), 1: ((None, 1),)}),
            TaskSample(task_id="empty", votes={}),
            TaskSample(task_id="pair", votes={0: ((None, 1),), 1: ((None, 0), (None, 1))}),
        )
        inject_correlation(table_of(samples, 2, 2), 0.5, seed=1)
        assert opened == [("inject", "pair")]


class TestDrawRule:
    def test_zero_uniform_skips_leading_zero_weight(self):
        edges = np.cumsum([[0.0, 0.5, 0.5]], axis=1)
        assert categorical_rows(edges, np.zeros(1)).tolist() == [1]

    def test_matches_searchsorted_right(self):
        probs = np.array([[0.0, 0.25, 0.0, 0.75], [0.5, 0.0, 0.5, 0.0]])
        edges = np.cumsum(probs, axis=1)
        u = np.array([0.0, 0.25, 0.5, 0.999, 1 - 2**-53])
        for row, e in enumerate(edges):
            want = np.minimum(np.searchsorted(e, u * e[-1], side="right"), 3)
            assert categorical_rows(edges[row][None], u).tolist() == want.tolist()


class TestGenerate:
    def test_deterministic_tables_copy_the_truth(self):
        m = sym_model([0.3, 0.7], [1.0, 1.0], [1.0, 1.0])
        data = generate(m, [3, 2], 200, seed=0)
        for s in records_of(data):
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
        assert [s.task_id for s in records_of(data)] == [f"t{i:06d}" for i in range(12)]
        for s in records_of(data):
            assert len(s.votes_for(0)) == 2
            assert s.votes_for(1) == ()
            assert s.truth is not None

    def test_truth_frequency_tracks_prior(self):
        m = sym_model([0.9, 0.1], [0.9], [0.8])
        data = generate(m, [1], 20_000, seed=3)
        share = np.mean([s.truth for s in records_of(data)])
        assert share == pytest.approx(0.1, abs=0.01)

    def test_vote_frequency_tracks_model_marginal(self):
        """p(x=1) = 0.1 * 0.74 + 0.9 * 0.26 for a 0.9 path with 0.8 workers."""
        m = sym_model([0.9, 0.1], [0.9], [0.8])
        data = generate(m, [1], 20_000, seed=5)
        share = np.mean([s.votes_for(0)[0][1] for s in records_of(data)])
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
        for s in records_of(data):
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
    return table_of(samples=samples, num_paths=1, num_labels=2)


class TestInjectCorrelation:
    def test_zero_probability_is_identity(self):
        m = sym_model([0.5, 0.5], [0.8, 0.7], [0.9, 0.85])
        data = generate(m, [3, 2], 100, seed=2)
        assert inject_correlation(data, 0.0, seed=9) == data

    def test_full_probability_copies_first_vote(self):
        m = sym_model([0.5, 0.5], [0.8, 0.7], [0.9, 0.85])
        data = generate(m, [4, 3], 200, seed=2)
        bent = inject_correlation(data, 1.0, seed=9)
        for s in records_of(bent):
            for path, votes in s.votes.items():
                first = votes[0][1]
                assert all(v == first for _, v in votes)

    def test_flip_rate_matches_probability(self):
        data = two_vote_dataset(20_000)
        bent = inject_correlation(data, 0.4, seed=17)
        flipped = sum(
            1 for s in records_of(bent) if s.votes_for(0)[1][1] == 0
        )
        assert flipped / len(data) == pytest.approx(0.4, abs=0.02)
        assert all(s.votes_for(0)[0][1] == 0 for s in records_of(bent))

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
        for before, after in zip(records_of(data), records_of(bent)):
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
        for before, after in zip(records_of(data), records_of(bent)):
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

    def test_needs_a_path(self):
        with pytest.raises(InputError, match="num_paths must be >= 1, got 0"):
            quantile_paths({"a": 0.5}, 0)
