"""The scoring kernels against the plain numpy forms they replace.

`logsumexp` reduces a short axis as one pass per entry, and the
scatter-adds run on `np.bincount`. The references below are the plain forms:
numpy reductions over the axis, `np.einsum` and `np.add.at`. For K <= 7 both
must agree bit for bit, ties, -inf entries and all -inf slices included;
from K = 8 numpy sums pairwise, so there they agree to 1e-12. Scatters keep
their bits at every K.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdplan.learning as learning
from crowdplan._kernel import (
    count_evidence,
    direct_log_joints,
    logsumexp,
    vote_evidence,
)
from crowdplan.inference import table_posteriors
from crowdplan.model import TaskSample

from _oracles import enum_posterior, random_model, table_of

PARITY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
BIT_K = st.integers(2, 7)
WIDE_K = st.integers(8, 10)


# --- the plain forms ---


def ref_logsumexp(a, axis=-1):
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = np.sum(top, axis=axis, keepdims=True, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        rest = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=axis, keepdims=True)
    out = np.where(np.isfinite(a_max), np.log1p(rest / m) + np.log(m) + a_max, a_max)
    return np.squeeze(out, axis=axis)


def ref_count_evidence(counts, log_tables):
    counts = counts[..., None, :]
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, counts * log_tables, 0.0).sum(axis=-1)


def ref_vote_evidence(table, slot_idx, log_tables):
    out = np.zeros((table.num_samples, table.num_paths, table.num_labels))
    np.add.at(out, (table.sample_idx, table.path_idx), log_tables[slot_idx, :, table.label])
    return out


def ref_direct_log_joints(log_prior, sample_idx, vote_rows, num_samples):
    out = np.tile(log_prior, (num_samples, 1))
    np.add.at(out, sample_idx, vote_rows)
    return out


def ref_outcome_posterior(log_joint, truth):
    k = log_joint.shape[1]
    norm = ref_logsumexp(log_joint, axis=1)
    with np.errstate(invalid="ignore"):
        q_y = np.exp(log_joint - norm[:, None])
    q_y = np.where(np.isfinite(norm)[:, None], q_y, 1.0 / k)
    known = truth >= 0
    q_y[known] = np.eye(k)[truth[known]]
    at_truth = log_joint[np.arange(len(truth)), np.maximum(truth, 0)]
    return q_y, float(np.where(known, at_truth, norm).sum())


def ref_estep(params, t, slots):
    """q_y (n, K_y), q_z (n, N, K_y, K_z) and the log-likelihood, task-major."""
    evidence = ref_vote_evidence(t, slots.idx, learning.log(params.tables))
    terms = learning.log(params.path_cpts)[None] + evidence[:, :, None, :]
    f = ref_logsumexp(terms, axis=3)
    active = np.zeros((t.num_samples, t.num_paths), dtype=bool)
    active[t.sample_idx, t.path_idx] = True
    log_joint = learning.log(params.prior) + np.where(active[:, :, None], f, 0.0).sum(axis=1)
    with np.errstate(invalid="ignore"):
        q_z = np.exp(terms - f[:, :, :, None])
    q_z = np.where(np.isfinite(f)[:, :, :, None], q_z, 1.0 / t.num_labels)
    q_y, loglik = ref_outcome_posterior(log_joint, t.truth)
    return q_y, q_z, loglik


def ref_nbi_estep(prior, tables, t):
    rows = learning.log(tables)[t.worker_idx, :, t.label]
    log_joint = ref_direct_log_joints(learning.log(prior), t.sample_idx, rows, t.num_samples)
    return ref_outcome_posterior(log_joint, t.truth)


def ref_mstep(t, slots, q_y, q_z, alpha):
    prior = learning._normalize_rows(q_y.sum(axis=0) + alpha)
    path_counts = np.einsum("ky,kiyz->iyz", q_y, q_z) + alpha
    r = np.einsum("ky,kiyz->kiz", q_y, q_z)
    table_counts = np.zeros((len(slots.path), t.num_labels, t.num_labels))
    np.add.at(table_counts.transpose(0, 2, 1), (slots.idx, t.label), r[t.sample_idx, t.path_idx])
    return learning._Params(
        prior=prior,
        path_cpts=learning._normalize_rows(path_counts),
        tables=learning._normalize_rows(table_counts + alpha),
    )


def ref_nbi_mstep(t, q_y, alpha):
    prior = learning._normalize_rows(q_y.sum(axis=0) + alpha)
    counts = np.zeros((len(t.workers), t.num_labels, t.num_labels))
    np.add.at(counts.transpose(0, 2, 1), (t.worker_idx, t.label), q_y[t.sample_idx])
    return prior, learning._normalize_rows(counts + alpha)


def ref_mv_probs(table, k):
    counts = np.zeros((table.num_samples, k))
    np.add.at(counts, (table.sample_idx, table.label), 1.0)
    totals = counts.sum(axis=1, keepdims=True)
    probs = np.where(totals > 0, counts / np.maximum(totals, 1.0), 1.0 / k)
    return probs[np.argsort(table.order)]


def lone(stacked):
    """Parameters fitted on a stack of one run, without the run axis."""
    return [p[0] for p in stacked]


def lone_estep(params, t, slots):
    """`learning._estep` on a stack of one run, in the unstacked layout."""
    logs = learning._Params(*(learning.log(p)[None] for p in params))
    q_y, q_z, loglik = learning._estep(logs, t, slots)
    return q_y[:, 0], q_z[:, :, 0], loglik[0]


def lone_nbi_estep(prior, tables, t):
    """`learning._nbi_estep` on a stack of one run, in the unstacked layout."""
    q_y, loglik = learning._nbi_estep(learning.log(prior)[None], learning.log(tables)[None], t)
    return q_y[:, 0], loglik[0]


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# --- inputs ---


def log_scores(rng, shape):
    """Log-domain values with exact ties, -inf entries and all -inf slices on the last axis."""
    a = rng.normal(-3.0, 4.0, size=shape)
    pooled = rng.random(shape) < 0.5
    a[pooled] = rng.choice([-4.5, -1.25, 0.0, 2.0, -np.inf], size=int(pooled.sum()))
    a[rng.random(shape[:-1]) < 0.1] = -np.inf
    return a


def log_tables(rng, n, k):
    """Log of n row-stochastic k x k tables, some entries exactly 0."""
    p = rng.random((n, k, k)) * (rng.random((n, k, k)) > 0.25)
    p[..., 0] += 1e-3
    return learning.log(p / p.sum(axis=-1, keepdims=True))


def vote_table(rng, k, paths, tasks=12, workers=4):
    samples = [TaskSample(task_id="first", votes={0: (("w0", 0),)})]
    for t in range(tasks):
        votes = {}
        for p in range(paths):
            n = int(rng.integers(0, 5))
            if n:
                votes[p] = tuple(
                    (f"w{int(rng.integers(workers))}", int(rng.integers(k))) for _ in range(n)
                )
        truth = int(rng.integers(k)) if rng.random() < 0.5 else None
        samples.append(TaskSample(task_id=f"t{rng.integers(10**6)}-{t}", votes=votes, truth=truth))
    return table_of(samples, paths, k), samples


def posteriors(rng, shape):
    """Non-negative weights along the last axis, some exactly 0, rows summing to 1."""
    w = rng.random(shape) * (rng.random(shape) > 0.2)
    w[..., 0] += 1e-3
    return w / w.sum(axis=-1, keepdims=True)


# --- label-axis reductions ---


@PARITY
@given(k=BIT_K, rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_logsumexp_bits(k, rows, seed):
    rng = np.random.default_rng(seed)
    for lead, axis in (((rows,), 1), ((rows, 2, k), 3), ((rows, 3), 1), ((), 0)):
        a = np.moveaxis(log_scores(rng, lead + (k,)), -1, axis)
        same_bits(logsumexp(a, axis=axis), ref_logsumexp(a, axis=axis))


def test_logsumexp_all_minus_inf_and_ties():
    a = np.array([[-np.inf] * 3, [0.5, 0.5, 0.5], [0.0, -np.inf, 0.0], [1.0, -np.inf, -np.inf]])
    got = logsumexp(a, axis=1)
    same_bits(got, ref_logsumexp(a, axis=1))
    assert got[0] == -np.inf
    assert got[3] == 1.0


@PARITY
@given(k=BIT_K, rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_label_sums_bits(k, rows, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(rows, 1, k)).astype(np.float64)
    tables = log_tables(rng, 1, k)
    same_bits(count_evidence(counts, tables), ref_count_evidence(counts, tables))


@PARITY
@given(k=WIDE_K, rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_wide_label_axes_within_1e12(k, rows, seed):
    rng = np.random.default_rng(seed)
    a = log_scores(rng, (rows, 2, k))
    close(logsumexp(a, axis=2), ref_logsumexp(a, axis=2))
    counts = rng.integers(0, 4, size=(rows, 1, k)).astype(np.float64)
    tables = log_tables(rng, 1, k)
    close(count_evidence(counts, tables), ref_count_evidence(counts, tables))


def test_nine_label_posterior_matches_enumeration():
    rng = np.random.default_rng(9)
    model = random_model(rng, 2, k=9)
    task = TaskSample(task_id="t", votes={0: ((None, 3), (None, 3), (None, 7)), 1: ((None, 0),)})
    probs = table_posteriors("apm", model, table_of([task], None, 9))[0][0]
    np.testing.assert_allclose(probs, enum_posterior(model, task), atol=1e-12, rtol=0)


# --- scatter-adds ---


@PARITY
@given(k=st.integers(2, 10), paths=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_scatters_bits(k, paths, seed):
    rng = np.random.default_rng(seed)
    t, _ = vote_table(rng, k, paths)
    pairs, slot_idx = t.path_worker_slots()
    tables = log_tables(rng, len(pairs), k)
    same_bits(
        vote_evidence(t, slot_idx, tables).transpose(2, 1, 0),
        ref_vote_evidence(t, slot_idx, tables),
    )

    log_prior = learning.log(posteriors(rng, (k,)))
    rows = tables[slot_idx, :, t.label]
    same_bits(
        direct_log_joints(log_prior, t.sample_idx, rows.T, t.num_samples).T,
        ref_direct_log_joints(log_prior, t.sample_idx, rows, t.num_samples),
    )

    q_y = posteriors(rng, (t.num_samples, k))
    q_z = posteriors(rng, (t.num_samples, paths, k, k))
    alpha = float(rng.choice([0.0, 1.0, 0.37]))
    for share in (True, False):
        slots = learning._slots(t, share)
        q_z_one = q_z.transpose(2, 3, 1, 0)[:, :, None]
        got = lone(learning._mstep(t, slots, q_y.T[:, None], q_z_one, alpha))
        want = ref_mstep(t, slots, q_y, q_z, alpha)
        for g, w in zip(got, want):
            if k <= 7:
                same_bits(g, w)
            else:
                close(g, w)
    got = lone(learning._nbi_mstep(t, q_y.T[:, None], alpha))
    for g, w in zip(got, ref_nbi_mstep(t, q_y, alpha)):
        same_bits(g, w)
    got = table_posteriors("mv", random_model(rng, paths, k=k), t)[0]
    same_bits(got[np.argsort(t.order)], ref_mv_probs(t, k))


def test_empty_scatters():
    t = table_of([TaskSample(task_id="a", votes={})], 2, 3)
    _, slot_idx = t.path_worker_slots()
    same_bits(
        vote_evidence(t, slot_idx, np.zeros((0, 3, 3))).transpose(2, 1, 0),
        ref_vote_evidence(t, slot_idx, np.zeros((0, 3, 3))),
    )
    log_prior = np.log([0.2, 0.3, 0.5])
    same_bits(
        direct_log_joints(log_prior, t.sample_idx, np.zeros((3, 0)), 1).T,
        ref_direct_log_joints(log_prior, t.sample_idx, np.zeros((0, 3)), 1),
    )


@pytest.mark.parametrize("k", [2, 4, 7])
def test_log_prior_goes_in_ahead_of_votes(k):
    """A task's sum starts from its log prior, as np.tile then np.add.at does."""
    log_prior = np.log(np.linspace(1.0, 2.0, k) / np.linspace(1.0, 2.0, k).sum())
    rows = np.full((3, k), 1e-17)
    idx = np.array([0, 0, 0])
    want = ref_direct_log_joints(log_prior, idx, rows, 2)
    same_bits(direct_log_joints(log_prior, idx, rows.T, 2).T, want)


# --- E-steps ---


def task_major(q_y, q_z=None):
    """The E-step posteriors, q_y (K_y, n) and q_z (K_y, K_z, N, n), in the
    references' task-major layout."""
    return q_y.T if q_z is None else (q_y.T, q_z.transpose(3, 2, 0, 1))


def estep_table(rng, k, paths, truths):
    """A vote table with a voteless task and a task whose only vote, label
    k - 1 on path 0 by worker w0, has probability 0 under every state once
    `dead_column` is applied; `truths` is "none", "some" or "all"."""
    _, samples = vote_table(rng, k, paths)
    samples = [*samples, TaskSample("voteless", {}), TaskSample("dead", {0: (("w0", k - 1),)})]
    for i, s in enumerate(samples):
        known = truths == "all" or (truths == "some" and rng.random() < 0.5)
        samples[i] = TaskSample(s.task_id, s.votes, int(rng.integers(k)) if known else None)
    return table_of(samples, paths, k)


def dead_column(tables, slot, label):
    """`tables` with column `label` of table `slot` zeroed, rows renormalized."""
    tables = tables.copy()
    tables[slot, :, label] = 0.0
    tables[slot, :, 0 if label else 1] += 1e-3
    return tables / tables.sum(axis=-1, keepdims=True)


def agree(got, want, k):
    if k <= 7:
        same_bits(got, want)
    else:
        close(got, want)


@PARITY
@given(
    k=st.integers(2, 10),
    paths=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    truths=st.sampled_from(["none", "some", "all"]),
)
def test_esteps_match_task_major_references(k, paths, seed, truths):
    rng = np.random.default_rng(seed)
    t = estep_table(rng, k, paths, truths)
    dead = int(np.flatnonzero(np.array(t.task_ids) == "dead")[0])
    kill = rng.random() < 0.5
    for share in (True, False):
        slots = learning._slots(t, share)
        tables = posteriors(rng, (len(slots.path), k, k))
        if kill:
            tables = dead_column(tables, slots.idx[t.sample_idx == dead][0], k - 1)
        params = learning._Params(posteriors(rng, (k,)), posteriors(rng, (paths, k, k)), tables)
        got_y, got_z, got_ll = lone_estep(params, t, slots)
        want_y, want_z, want_ll = ref_estep(params, t, slots)
        for g, w in zip(task_major(got_y, got_z), (want_y, want_z)):
            agree(g, w, k)
        agree(got_ll, want_ll, k)
        if kill and t.truth[dead] < 0:
            assert (want_y[dead] == 1.0 / k).all()

    workers = posteriors(rng, (len(t.workers), k, k))
    if kill:
        workers = dead_column(workers, t.workers.index("w0"), k - 1)
    prior = posteriors(rng, (k,))
    got_y, got_ll = lone_nbi_estep(prior, workers, t)
    want_y, want_ll = ref_nbi_estep(prior, workers, t)
    agree(task_major(got_y), want_y, k)
    agree(got_ll, want_ll, k)


@pytest.mark.parametrize("tasks", [[], [TaskSample("a", {}), TaskSample("b", {}, truth=1)]])
def test_esteps_without_tasks_or_votes(tasks):
    """n = 0, and V = 0: every path inactive, so each log joint is the log prior."""
    k, paths = 3, 2
    t = table_of(tasks, paths, k)
    rng = np.random.default_rng(0)
    slots = learning._slots(t, True)
    params = learning._Params(
        posteriors(rng, (k,)), posteriors(rng, (paths, k, k)), posteriors(rng, (paths, k, k))
    )
    got_y, got_z, got_ll = lone_estep(params, t, slots)
    want_y, want_z, want_ll = ref_estep(params, t, slots)
    for g, w in zip(task_major(got_y, got_z), (want_y, want_z)):
        same_bits(g, w)
    assert got_ll == want_ll
    got_y, got_ll = lone_nbi_estep(params.prior, np.zeros((0, k, k)), t)
    want_y, want_ll = ref_nbi_estep(params.prior, np.zeros((0, k, k)), t)
    same_bits(task_major(got_y), want_y)
    assert got_ll == want_ll
