"""Property tests: the batched posteriors and log-likelihood against the oracles.

Models are drawn at random with shared and per-worker vote tables, and their
tables may hold exact zeros, so impossible votes and degenerate evidence
come up. Every claim is checked task by task against the brute-force
references in `_oracles.py`.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdplan.inference import infer
from crowdplan.learning import log_likelihood
from crowdplan.model import (
    AccessPathSpec,
    ApmModel,
    Cpt,
    Dataset,
    LabelSpace,
    NbiModel,
    TaskSample,
)

from _oracles import (
    enum_joint_of_assignment,
    enum_posterior,
    naive_path_posterior,
    naive_worker_posterior,
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
WORKERS = ("a", "b", "c")


@st.composite
def distributions(draw, k):
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=k, max_size=k
        ).filter(lambda w: sum(w) > 0)
    )
    return np.asarray(weights) / sum(weights)


@st.composite
def cpts(draw, k):
    return Cpt(np.stack([draw(distributions(k)) for _ in range(k)]))


@st.composite
def apm_models(draw, shared_only=False):
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3))
    worker_cpts = []
    for _ in range(n):
        if shared_only or draw(st.booleans()):
            worker_cpts.append(draw(cpts(k)))
        else:
            worker_cpts.append({w: draw(cpts(k)) for w in WORKERS})
    return ApmModel(
        labels=LabelSpace(k),
        prior=draw(distributions(k)),
        paths=tuple(AccessPathSpec(index=i, cost=Fraction(1)) for i in range(n)),
        path_cpts=tuple(draw(cpts(k)) for _ in range(n)),
        worker_cpts=tuple(worker_cpts),
    )


@st.composite
def nbi_models(draw):
    k = draw(st.integers(2, 3))
    return NbiModel(
        labels=LabelSpace(k),
        prior=draw(distributions(k)),
        worker_cpts={w: draw(cpts(k)) for w in WORKERS},
    )


@st.composite
def task_lists(draw, num_paths, k, per_worker=True, labeled=False, max_votes=4):
    """Tasks with up to max_votes votes per path; worker ids may be missing when not per_worker."""
    worker = st.sampled_from(WORKERS) if per_worker else st.sampled_from((None,) + WORKERS)
    vote = st.tuples(worker, st.integers(0, k - 1))
    tasks = []
    for t in range(draw(st.integers(1, 6))):
        votes = {p: tuple(draw(st.lists(vote, max_size=max_votes))) for p in range(num_paths)}
        truth = draw(st.one_of(st.none(), st.integers(0, k - 1))) if labeled else None
        tasks.append(TaskSample(task_id=f"t{t}", votes=votes, truth=truth))
    return tasks


def has_per_worker_path(model):
    return any(not model.is_shared(i) for i in range(model.num_paths))


@PROPERTY
@given(st.data())
def test_apm_matches_enumeration(data):
    model = data.draw(apm_models())
    tasks = data.draw(task_lists(model.num_paths, model.num_labels, has_per_worker_path(model)))
    for task, post in zip(tasks, infer("apm", model, tasks)):
        np.testing.assert_allclose(post.probs, enum_posterior(model, task), atol=1e-12, rtol=0)


@PROPERTY
@given(st.data())
def test_nbap_matches_path_marginal_oracle(data):
    model = data.draw(apm_models(shared_only=True))
    tasks = data.draw(task_lists(model.num_paths, model.num_labels, per_worker=False))
    for task, post in zip(tasks, infer("nbap", model, tasks)):
        want = naive_path_posterior(model, task)
        np.testing.assert_allclose(post.probs, want, atol=1e-12, rtol=0)


@PROPERTY
@given(st.data())
def test_nbi_matches_worker_oracle(data):
    model = data.draw(nbi_models())
    tasks = data.draw(task_lists(2, model.num_labels))
    rows = {w: t.rows for w, t in model.worker_cpts.items()}
    for task, post in zip(tasks, infer("nbi", model, tasks)):
        votes = [wv for p in sorted(task.votes) for wv in task.votes[p]]
        want = naive_worker_posterior(model.prior, rows, votes)
        np.testing.assert_allclose(post.probs, want, atol=1e-12, rtol=0)


def shuffled(draw, tasks):
    """The same tasks, with tasks, paths and each path's votes in a drawn order."""
    rnd = draw(st.randoms(use_true_random=False))
    out = []
    for task in rnd.sample(tasks, len(tasks)):
        paths = rnd.sample(list(task.votes), len(task.votes))
        votes = {p: tuple(rnd.sample(task.votes[p], len(task.votes[p]))) for p in paths}
        out.append(TaskSample(task_id=task.task_id, votes=votes, truth=task.truth))
    return out


@PROPERTY
@given(st.data(), st.sampled_from(["apm", "nbap", "mv", "nbi"]))
def test_permuting_votes_and_tasks_is_bitwise_invariant(data, kind):
    if kind == "nbi":
        model = data.draw(nbi_models())
        num_paths = 2
    else:
        model = data.draw(apm_models(shared_only=kind == "nbap"))
        num_paths = model.num_paths
    per_worker = kind == "nbi" or (kind == "apm" and has_per_worker_path(model))
    tasks = data.draw(task_lists(num_paths, model.num_labels, per_worker, max_votes=10))
    before = {t.task_id: p for t, p in zip(tasks, infer(kind, model, tasks))}
    other = shuffled(data.draw, tasks)
    for task, post in zip(other, infer(kind, model, other)):
        want = before[task.task_id]
        assert np.array_equal(post.probs, want.probs)
        assert post.prediction == want.prediction
        assert post.degenerate_evidence == want.degenerate_evidence


@PROPERTY
@given(st.data())
def test_log_likelihood_is_sum_of_oracle_log_joints(data):
    model = data.draw(apm_models(shared_only=True))
    tasks = data.draw(
        task_lists(model.num_paths, model.num_labels, per_worker=False, labeled=True)
    )
    want = 0.0
    for task in tasks:
        joint = enum_joint_of_assignment(
            model, {p: tuple(v for _, v in vs) for p, vs in task.votes.items()}
        )
        mass = joint[task.truth] if task.truth is not None else math.fsum(joint)
        want += math.log(mass) if mass > 0 else -math.inf
    layout = {"num_paths": model.num_paths, "num_labels": model.num_labels}
    got = log_likelihood(model, Dataset(samples=tuple(tasks), **layout))
    if math.isinf(want):
        assert got == want
    else:
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    other = Dataset(samples=tuple(shuffled(data.draw, tasks)), **layout)
    assert log_likelihood(model, other) == got
