import json
from fractions import Fraction

import numpy as np
import pytest

from crowdplan.errors import InputError
from crowdplan.model import (
    AccessPathSpec,
    AccessPlan,
    ApmModel,
    Cpt,
    Dataset,
    LabelSpace,
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

from _oracles import random_model, sym_model


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
        m = sym_model([0.5, 0.5], [0.8], [0.9])
        broken = ApmModel(
            labels=m.labels,
            prior=m.prior,
            paths=(AccessPathSpec(index=0, cost=Fraction(0)),),
            path_cpts=m.path_cpts,
            worker_cpts=m.worker_cpts,
        )
        assert any("non-positive cost" in v for v in validate_model(broken))

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
            Dataset(samples=(s,), num_paths=2, num_labels=2)
        s2 = TaskSample(task_id="t", votes={0: ((None, 4),)})
        with pytest.raises(InputError):
            Dataset(samples=(s2,), num_paths=2, num_labels=2)
        s3 = TaskSample(task_id="t", votes={0: ((None, 1),)}, truth=2)
        with pytest.raises(InputError):
            Dataset(samples=(s3,), num_paths=2, num_labels=2)

    def test_duplicate_task_ids_rejected(self):
        s = TaskSample(task_id="t", votes={0: ((None, 0),)})
        with pytest.raises(InputError):
            Dataset(samples=(s, s), num_paths=1, num_labels=2)


class TestRebuilders:
    def test_with_costs(self):
        from crowdplan.model import with_costs

        m = sym_model([0.5, 0.5], [0.8, 0.7], [0.9, 0.9])
        m2 = with_costs(m, [Fraction(3), "1/2"])
        assert m2.costs == (Fraction(3), Fraction(1, 2))
        assert np.array_equal(m2.prior, m.prior)
        with pytest.raises(InputError):
            with_costs(m, [1])

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
