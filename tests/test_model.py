import json
from dataclasses import replace
from fractions import Fraction
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdplan.errors import InputError
from crowdplan.model import (
    AccessPathSpec,
    AccessPlan,
    ApmModel,
    Cpt,
    Dataset,
    LabelSpace,
    _lex_order,
    NbiModel,
    TaskSample,
    as_counts,
    load_model,
    model_from_dict,
    model_to_dict,
    nbi_model_from_dict,
    plan_cost,
    save_model,
    validate_model,
)

from _oracles import random_model, records_of, sym_model, table_of


class TestPlanCost:
    def test_worked_examples(self):
        m = sym_model([0.5, 0.5], [0.8, 0.8, 0.8], [0.9, 0.9, 0.9], costs=[20, 15, 10])
        assert plan_cost(m, [1, 2, 3]) == Fraction(80)
        m2 = sym_model([0.5, 0.5], [0.8, 0.8, 0.8], [0.9, 0.9, 0.9], costs=[2, 3, 4])
        assert plan_cost(m2, [2, 4, 6]) == Fraction(40)

    def test_exact_fractions(self):
        m = ApmModel(
            labels=LabelSpace(2),
            prior=np.array([0.5, 0.5]),
            paths=(AccessPathSpec(index=0, cost=Fraction(1, 3)),),
            path_cpts=(Cpt([[0.8, 0.2], [0.2, 0.8]]),),
            worker_cpts=(Cpt([[0.9, 0.1], [0.1, 0.9]]),),
        )
        assert plan_cost(m, [3]) == Fraction(1)
        assert plan_cost(m, [1]) == Fraction(1, 3)

    def test_linear_in_plans(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            costs = [int(c) for c in rng.integers(1, 9, size=3)]
            m = sym_model([0.5, 0.5], [0.8] * 3, [0.9] * 3, costs=costs)
            a = [int(x) for x in rng.integers(0, 5, size=3)]
            b = [int(x) for x in rng.integers(0, 5, size=3)]
            combined = [x + y for x, y in zip(a, b)]
            assert plan_cost(m, combined) == plan_cost(m, a) + plan_cost(m, b)

    def test_empty_plan_is_free(self):
        m = sym_model([0.5, 0.5], [0.8], [0.9], costs=[5])
        assert plan_cost(m, [0]) == Fraction(0)


class TestLabelSpace:
    def test_needs_at_least_two_labels(self):
        with pytest.raises(InputError):
            LabelSpace(1)

    @pytest.mark.parametrize("cardinality", [2.5, "2", None])
    def test_cardinality_must_be_an_integer(self, cardinality):
        with pytest.raises(InputError, match="labels.cardinality must be an integer"):
            LabelSpace(cardinality)

    def test_names_must_match_cardinality(self):
        with pytest.raises(InputError):
            LabelSpace(2, names=("a", "b", "c"))
        with pytest.raises(InputError):
            LabelSpace(2, names=("a", "a"))

    def test_index_of(self):
        ls = LabelSpace(3, names=("no", "maybe", "yes"))
        assert ls.index_of("maybe") == 1
        with pytest.raises(InputError):
            ls.index_of("nope")

    def test_index_of_needs_names(self):
        with pytest.raises(InputError, match="label space has no names"):
            LabelSpace(2).index_of("a")


class TestValidation:
    def test_valid_model_has_no_violations(self):
        rng = np.random.default_rng(0)
        for per_worker in (False, True):
            m = random_model(rng, 3, k=2, per_worker=per_worker)
            assert validate_model(m) == []

    def test_bad_row_sum_reported(self):
        bad = Cpt(np.array([[0.7, 0.2], [0.1, 0.9]]))
        msgs = bad.violations("path 0 table")
        assert any("sums to 0.9" in m for m in msgs)

    def test_nonpositive_cost_reported(self):
        with pytest.raises(InputError, match="path 0: non-positive cost"):
            AccessPathSpec(index=0, cost=0)

    def test_prior_must_normalize(self):
        m = sym_model([0.5, 0.5], [0.8], [0.9])
        broken = ApmModel(
            labels=m.labels,
            prior=np.array([0.6, 0.6]),
            paths=m.paths,
            path_cpts=m.path_cpts,
            worker_cpts=m.worker_cpts,
        )
        assert validate_model(broken)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entries_reported(self, bad):
        assert Cpt(np.array([[bad, 0.2], [0.1, 0.9]])).violations("t") == [
            "t: non-finite entries"
        ]
        m = sym_model([0.5, 0.5], [0.8], [0.9])
        broken = ApmModel(
            labels=m.labels,
            prior=np.array([bad, 0.5]),
            paths=m.paths,
            path_cpts=m.path_cpts,
            worker_cpts=m.worker_cpts,
        )
        assert validate_model(broken) == ["prior: non-finite entries"]

    def test_nbi_document_with_nan_rejected(self):
        doc = {
            "kind": "nbi",
            "labels": {"cardinality": 2},
            "prior": [0.5, 0.5],
            "workers": {"a": [[float("nan"), 0.5], [0.5, 0.5]]},
        }
        with pytest.raises(InputError, match="non-finite"):
            nbi_model_from_dict(doc)
        doc["workers"]["a"][0][0] = 0.5
        doc["prior"] = [float("nan"), 1.0]
        with pytest.raises(InputError, match="non-finite"):
            nbi_model_from_dict(doc)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("prior", np.array([1.0]), "prior: expected length 2, got shape (1,)"),
            (
                "path_cpts",
                (Cpt(np.full((2, 3), 1 / 3)),),
                "path 0 path CPT: shape (2, 3), expected (2, 2)",
            ),
            ("worker_cpts", ({},), "path 0: no worker CPTs"),
        ],
    )
    def test_malformed_parameters_reported(self, field, value, message):
        m = sym_model([0.5, 0.5], [0.8], [0.9])
        assert validate_model(replace(m, **{field: value})) == [message]

    def test_misnumbered_path_reported(self):
        m = sym_model([0.5, 0.5], [0.8, 0.8], [0.9, 0.9])
        broken = ApmModel(
            labels=m.labels,
            prior=m.prior,
            paths=(m.paths[0], AccessPathSpec(index=5, cost=Fraction(1))),
            path_cpts=m.path_cpts,
            worker_cpts=m.worker_cpts,
        )
        assert validate_model(broken)


class TestImmutability:
    def test_arrays_are_read_only(self):
        m = sym_model([0.5, 0.5], [0.8], [0.9])
        with pytest.raises(ValueError):
            m.prior[0] = 0.3
        with pytest.raises(ValueError):
            m.path_cpts[0].rows[0, 0] = 0.5

    def test_arrays_are_copied_from_the_caller(self):
        """A model's arrays are its own: writing through the caller's array,
        or a view of it, changes no table, and the caller's array stays writable."""
        base = np.array([[0.9, 0.1], [0.2, 0.8]])
        prior = np.array([0.5, 0.5])
        cpt = Cpt(base[:])
        model = ApmModel(LabelSpace(2), prior, [AccessPathSpec(0, 1)], [cpt], [cpt])
        base[0, 0] = 0.5
        prior[0] = 0.3
        assert cpt.rows.tolist() == [[0.9, 0.1], [0.2, 0.8]]
        assert model.prior.tolist() == [0.5, 0.5]
        assert base.flags.writeable and prior.flags.writeable

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Cpt([[1, 0], [0, 1]]),
            lambda: load_model(str(files("crowdplan") / "data" / "example_model.json")),
            lambda: NbiModel(LabelSpace(2), [0.5, 0.5], {"a": Cpt([[1, 0], [0, 1]])}),
        ],
        ids=["cpt", "apm_model", "nbi_model"],
    )
    def test_array_holders_compare_by_identity(self, make):
        """`==`, `!=` and `hash` never raise; values compare through `model_to_dict`."""
        a, b = make(), make()
        assert a == a and not a != a
        assert a != b and not a == b
        assert len({a, b, a}) == 2


class TestSerialization:
    def test_round_trip_is_bitwise(self):
        rng = np.random.default_rng(11)
        for per_worker in (False, True):
            m = random_model(rng, 3, k=3, per_worker=per_worker, costs=[1, 2, 3])
            d = model_to_dict(m)
            back = model_from_dict(json.loads(json.dumps(d)))
            assert np.array_equal(back.prior, m.prior)
            for i in range(3):
                assert np.array_equal(back.path_cpts[i].rows, m.path_cpts[i].rows)
                assert back.paths[i].cost == m.paths[i].cost
                if per_worker:
                    assert sorted(back.worker_cpts[i]) == sorted(m.worker_cpts[i])
                    for w in m.worker_cpts[i]:
                        assert np.array_equal(
                            back.worker_cpts[i][w].rows, m.worker_cpts[i][w].rows
                        )
                else:
                    assert np.array_equal(
                        back.worker_cpts[i].rows, m.worker_cpts[i].rows
                    )

    def test_fractional_costs_survive(self, tmp_path):
        m = ApmModel(
            labels=LabelSpace(2, names=("no", "yes")),
            prior=np.array([0.4, 0.6]),
            paths=(AccessPathSpec(index=0, cost=Fraction(7, 3), name="panel"),),
            path_cpts=(Cpt([[0.8, 0.2], [0.2, 0.8]]),),
            worker_cpts=(Cpt([[0.9, 0.1], [0.1, 0.9]]),),
        )
        path = tmp_path / "m.json"
        save_model(m, str(path))
        raw = json.loads(path.read_text())
        assert raw["paths"][0]["cost"] == "7/3"
        back = load_model(str(path))
        assert back.paths[0].cost == Fraction(7, 3)
        assert back.labels.names == ("no", "yes")
        assert back.paths[0].name == "panel"

    def test_load_rejects_invalid(self, tmp_path):
        m = sym_model([0.5, 0.5], [0.8], [0.9])
        d = model_to_dict(m)
        d["prior"] = [0.7, 0.7]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(InputError):
            load_model(str(path))


class TestPlanAndSamples:
    def test_counts_must_be_non_negative(self):
        with pytest.raises(InputError):
            AccessPlan(counts=(1, -1))

    def test_as_counts_checks_length(self):
        with pytest.raises(InputError):
            as_counts([1, 2], 3)
        assert as_counts(AccessPlan(counts=(1, 2)), 2) == (1, 2)

    def test_empty_vote_lists_are_dropped(self):
        s = TaskSample(task_id="t", votes={0: ((None, 1),), 1: ()})
        assert 1 not in s.votes
        assert s.votes_for(0) == ((None, 1),)
        assert s.votes_for(5) == ()

    def test_dataset_validates_ranges(self):
        s = TaskSample(task_id="t", votes={3: ((None, 0),)})
        with pytest.raises(InputError):
            table_of(samples=(s,), num_paths=2, num_labels=2)
        s2 = TaskSample(task_id="t", votes={0: ((None, 4),)})
        with pytest.raises(InputError):
            table_of(samples=(s2,), num_paths=2, num_labels=2)
        s3 = TaskSample(task_id="t", votes={0: ((None, 1),)}, truth=2)
        with pytest.raises(InputError):
            table_of(samples=(s3,), num_paths=2, num_labels=2)

    def test_duplicate_task_ids_rejected(self):
        s = TaskSample(task_id="t", votes={0: ((None, 0),)})
        with pytest.raises(InputError):
            table_of(samples=(s, s), num_paths=1, num_labels=2)


class TestDatasetColumns:
    def test_selection_matches_a_fresh_tabulation(self):
        """Selected rows keep the stored and canonical orders a new dataset would have."""
        rng = np.random.default_rng(5)

        def votes():
            return tuple((f"w{rng.integers(6)}", int(rng.integers(3))) for _ in range(3))

        samples = [
            TaskSample(f"t{rng.integers(1000):03d}-{i}", {0: votes(), 2: votes()}, i % 3)
            for i in range(40)
        ]
        data = table_of(samples, num_paths=3, num_labels=3)
        tasks = rng.random(40) < 0.5
        rows = rng.random(len(data.label)) < 0.6
        assert len(data.folded_ids) == len(data)  # cached before the selection
        chosen = data.select(tasks, rows)
        # the j-th vote in stored order is row data.stored[j]
        picked = (rows & tasks[data.sample_idx])[data.stored].tolist()
        flat = [(s, p, vote) for s in samples for p in sorted(s.votes) for vote in s.votes[p]]
        votes = {s.task_id: {} for s in samples if tasks[data.task_ids.index(s.task_id)]}
        for (s, p, vote), keep in zip(flat, picked):
            if keep:
                votes[s.task_id].setdefault(p, []).append(vote)
        expect = [
            TaskSample(s.task_id, {p: tuple(v) for p, v in votes[s.task_id].items()}, s.truth)
            for s in samples
            if s.task_id in votes
        ]
        fresh = table_of(expect, num_paths=3, num_labels=3)
        assert records_of(chosen) == records_of(fresh)
        for name in ("task_ids", "order", "truth", "sample_idx", "path_idx", "worker_idx",
                     "folded_ids"):
            np.testing.assert_array_equal(getattr(chosen, name), getattr(fresh, name), err_msg=name)
        for name in ("label", "workers", "stored"):
            np.testing.assert_array_equal(getattr(chosen, name), getattr(fresh, name), err_msg=name)

    def test_tiled_copies_equal_a_fresh_tabulation_of_renamed_tasks(self):
        """Copy c of every task, id `c:id` with c zero-padded, in a checked table of its own."""
        rng = np.random.default_rng(8)
        samples = [
            TaskSample(
                f"t{rng.integers(1000):03d}-{i}",
                {p: tuple((f"w{rng.integers(4)}", int(rng.integers(2))) for _ in range(p + i % 3))
                 for p in range(3) if p + i % 3},
                i % 2,
            )
            for i in range(9)
        ]
        data = table_of(samples, num_paths=4, num_labels=2)
        assert len(data.folded_ids) == len(data)  # cached before tiling renames the ids
        tiled = data.tiled(11)
        renamed = [
            TaskSample(f"{c:02d}:{s.task_id}", s.votes, s.truth) for c in range(11) for s in samples
        ]
        fresh = table_of(renamed, num_paths=4, num_labels=2)
        assert list(tiled.task_ids) == sorted(tiled.task_ids)
        assert tiled == fresh
        for name in ("order", "truth", "sample_idx", "path_idx", "worker_idx", "label", "stored",
                     "folded_ids"):
            np.testing.assert_array_equal(getattr(tiled, name), getattr(fresh, name), err_msg=name)
        assert tiled.workers == fresh.workers

    def test_equality_is_layout_and_stored_votes(self):
        """Tables are equal when their layouts, their tasks in stored order and each
        (task, path)'s votes in stored order, worker ids included, are."""

        def table(task_ids=("a", "b"), truth=(1, -1), task=(0, 0, 1), worker=(0, 1, 1),
                  label=(1, 0, 1), worker_ids=("x", "y"), num_paths=None):
            return Dataset.tabulate(
                list(task_ids), list(truth), list(task), [0, 0, 1], list(worker), list(label),
                list(worker_ids), 2, num_paths,
            )

        base = table()
        assert base == table()
        assert base == table(worker_ids=("y", "x"), worker=(1, 0, 0))  # same ids, other codes
        assert base == table(worker_ids=("x", "y", "unused"))
        assert base == table(num_paths=2)
        assert base != table(task_ids=("b", "a"), truth=(-1, 1), task=(1, 1, 0))  # other task order
        assert base != table(label=(0, 1, 1), worker=(1, 0, 1))  # task a's votes swapped
        assert base != table(worker_ids=("x", "z"))
        assert base != table(truth=(0, -1))
        assert base != table(num_paths=3)
        assert base != "a"
        assert Dataset.tabulate(["t"], [1], [0], [0], [0], [1], ["a", "b"], 2) == Dataset.tabulate(
            ["t"], [1], [0], [0], [0], [1], ["a"], 2
        )

    @pytest.mark.parametrize(
        "task, path, worker, worker_ids",
        [
            ([0, 0, 1, 1, 1], [2, 0, 2, 2, 0], [1, 0, 2, 1, 0], [None, "b", "a"]),
            ([0, 1, 1], [2**62, 3, 2**62], [0, 1, 0], [None, "w"]),
            ([0, 0, 1], [1, 1, 0], [0, 0, 0], [None]),
            ([], [], [], []),
        ],
        ids=["mixed", "huge-path-id", "no-worker-ids", "empty"],
    )
    def test_path_worker_slots_match_a_2d_unique(self, task, path, worker, worker_ids):
        data = Dataset.tabulate(
            ["a", "b"], [-1, -1], task, path, worker, [0] * len(task), worker_ids, 2
        )
        want_pairs, want_idx = np.unique(
            np.stack([data.path_idx, data.worker_idx], axis=1), axis=0, return_inverse=True
        )
        pairs, idx = data.path_worker_slots()
        assert pairs.dtype == want_pairs.dtype == idx.dtype == np.int64
        np.testing.assert_array_equal(pairs, want_pairs)
        np.testing.assert_array_equal(idx, want_idx.reshape(-1))
        assert pairs.shape == want_pairs.shape and idx.shape == (len(task),)


def _lexsort_tabulate(task_ids, truth, task, path, worker, label, worker_ids, **_):
    """The order fields of a table as `Dataset.tabulate` sorted them with `np.lexsort`."""
    by_id = np.array(sorted(range(len(task_ids)), key=task_ids.__getitem__), dtype=np.int64)
    rank = np.empty_like(by_id)
    rank[by_id] = np.arange(len(by_id))
    index = {w: j for j, w in enumerate(sorted({w for w in worker_ids if w is not None}))}
    worker = np.array([index.get(w, -1) for w in worker_ids], dtype=np.int64)[worker]
    canon = np.lexsort((label, worker, path, rank[task]))
    row_of = np.empty_like(canon)
    row_of[canon] = np.arange(len(canon))
    return dict(
        order=by_id,
        truth=truth[by_id],
        sample_idx=rank[task][canon],
        path_idx=path[canon],
        worker_idx=worker[canon],
        label=label[canon],
        stored=row_of[np.lexsort((path, task))],
    )


def _near(top):
    """Small values and values just under `top`, so that a key's range reaches `top`."""
    return st.one_of(st.integers(0, min(3, top)), st.integers(max(0, top - 3), top))


@st.composite
def vote_columns(draw):
    """`Dataset.tabulate`'s arguments; wide path and label ranges need a second sort word."""
    n_tasks = draw(st.integers(1, 6))
    n_workers = draw(st.integers(0, 4))
    num_paths = draw(st.sampled_from([1, 3, 2**20, 2**63]))
    num_labels = draw(st.sampled_from([2, 5, 2**40, 2**62]))

    def column(values, size):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=np.int64)

    votes = draw(st.integers(0, 40))
    return dict(
        task_ids=draw(st.permutations([f"t{i}" for i in range(n_tasks)])),
        truth=column(st.integers(-1, 1), n_tasks),
        task=column(st.integers(0, n_tasks - 1), votes),
        path=column(_near(num_paths - 1), votes),
        worker=column(st.integers(0, n_workers), votes),
        label=column(_near(num_labels - 1), votes),
        worker_ids=[None] + draw(st.permutations([f"w{i}" for i in range(n_workers)])),
        num_labels=num_labels,
        num_paths=num_paths,
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(vote_columns())
def test_tabulate_sorts_as_lexsort(columns):
    data = Dataset.tabulate(**columns)
    for name, value in _lexsort_tabulate(**columns).items():
        np.testing.assert_array_equal(getattr(data, name), value, err_msg=name)


INT64_KEYS = st.integers(1, 4).flatmap(lambda keys: st.integers(0, 30).flatmap(
    lambda size: st.lists(
        st.lists(st.one_of(st.integers(-2, 2), st.integers(-(2**63), 2**63 - 1)),
                 min_size=size, max_size=size),
        min_size=keys, max_size=keys,
    )
))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(INT64_KEYS)
def test_lex_order_is_lexsort_for_any_int64_keys(keys):
    keys = [np.array(key, dtype=np.int64) for key in keys]
    np.testing.assert_array_equal(_lex_order(keys), np.lexsort(keys))


class TestRebuilders:
    def test_with_costs(self):
        from crowdplan.model import with_costs

        m = sym_model([0.5, 0.5], [0.8, 0.7], [0.9, 0.9])
        m2 = with_costs(m, [Fraction(3), "1/2"])
        assert m2.costs == (Fraction(3), Fraction(1, 2))
        assert np.array_equal(m2.prior, m.prior)
        with pytest.raises(InputError):
            with_costs(m, [1])

    @pytest.mark.parametrize("bad", [0, -1, "-1/2"])
    def test_with_costs_rejects_non_positive(self, bad):
        from crowdplan.model import with_costs

        m = sym_model([0.5, 0.5], [0.8, 0.7], [0.9, 0.9])
        with pytest.raises(InputError, match="path 1: non-positive cost"):
            with_costs(m, [1, bad])

    def test_with_labels(self):
        from crowdplan.model import with_labels

        m = sym_model([0.5, 0.5], [0.8], [0.9])
        m2 = with_labels(m, LabelSpace(2, names=("cat", "dog")))
        assert m2.labels.names == ("cat", "dog")
        with pytest.raises(InputError):
            with_labels(m, LabelSpace(3))

    def test_nbi_round_trip(self):
        from crowdplan.model import nbi_model_from_dict, nbi_model_to_dict

        nm = NbiModel(
            labels=LabelSpace(2),
            prior=np.array([0.3, 0.7]),
            worker_cpts={"a": Cpt([[0.9, 0.1], [0.2, 0.8]])},
            sparse_workers=("b",),
        )
        d = nbi_model_to_dict(nm)
        assert d["kind"] == "nbi"
        back = nbi_model_from_dict(json.loads(json.dumps(d)))
        assert np.array_equal(back.worker_cpts["a"].rows, nm.worker_cpts["a"].rows)
        assert back.sparse_workers == frozenset({"b"})
