"""The scoring kernels against the plain numpy forms they replace.

`normalise` sums scaled terms along a short axis, `_log_space` takes a sum
again in log space as one pass per entry, and the scatter-adds run over
label entries on `np.bincount`. The references below are the plain forms:
numpy reductions over the axis, `np.einsum` and `np.add.at` over every vote.
For K <= 7 both must agree bit for bit, ties, -inf entries and all -inf
slices included; from K = 8 numpy sums pairwise, so there they agree to
1e-12. Scatters keep their bits at every K where every label entry holds one
vote; an entry of m votes adds m log p once, where the per-vote form adds
log p m times, so with repeated labels they agree to a relative 1e-12. The
scaled normaliser also agrees with the log-space form to 1e-12, across gaps
of more than 745 nats, where its scaled sums underflow.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

import crowdplan.learning as learning
from crowdplan._kernel import _log_space, entries, evidence, label_entries, normalise, path_factors
from crowdplan.inference import table_posteriors
from crowdplan.model import AccessPathSpec, ApmModel, Cpt, LabelSpace, TaskSample

from _oracles import (
    _ref_estep,
    _ref_mstep,
    _ref_nbi_estep,
    _ref_nbi_mstep,
    enum_posterior,
    random_model,
    table_of,
)

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


def ref_normalise(log_x, weights=1.0):
    """The scaled normaliser along the last axis: e = exp(log_x - top), w = weights * e,
    s = sum w; log s + top and w / s, taken again in log space where s < 1e-250."""
    top = np.max(log_x, axis=-1, keepdims=True)
    w = weights * np.exp(log_x - np.maximum(top, -np.finfo(np.float64).max))
    s = np.sum(w, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.log(s) + top
        post = w / s
        low = (s < 1e-250)[..., 0]
        terms = (np.log(np.broadcast_to(weights, w.shape)) + log_x)[low]
        norm[low] = ref_logsumexp(terms)[:, None]
        post[low] = np.exp(terms - norm[low])
    post[low & ~np.isfinite(norm[..., 0])] = 1.0 / w.shape[-1]
    return norm[..., 0], post


def ref_count_evidence(counts, log_tables):
    counts = counts[..., None, :]
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, counts * log_tables, 0.0).sum(axis=-1)


def ref_vote_evidence(table, slot_idx, log_tables):
    out = np.zeros((table.num_samples, table.num_paths, table.num_labels))
    np.add.at(out, (table.sample_idx, table.path_idx), log_tables[slot_idx, :, table.label])
    return out


def ref_direct_log_joints(log_prior, sample_idx, vote_rows, num_samples):
    """Each task's votes added in order, then its log prior."""
    out = np.zeros((num_samples, len(log_prior)))
    np.add.at(out, sample_idx, vote_rows)
    return out + log_prior


def ref_outcome_posterior(log_joint, truth):
    k = log_joint.shape[1]
    norm, q_y = ref_normalise(log_joint)
    known = truth >= 0
    q_y[known] = np.eye(k)[truth[known]]
    at_truth = log_joint[np.arange(len(truth)), np.maximum(truth, 0)]
    return q_y, float(np.where(known, at_truth, norm).sum())


def ref_estep(params, t, slots):
    """q_y (n, K_y), q_z (n, N, K_y, K_z) and the log-likelihood, task-major."""
    evidence = ref_vote_evidence(t, slots.idx, learning.log(params.tables))
    f, q_z = ref_normalise(evidence[:, :, None, :], params.path_cpts[None])
    active = np.zeros((t.num_samples, t.num_paths), dtype=bool)
    active[t.sample_idx, t.path_idx] = True
    log_joint = learning.log(params.prior) + np.where(active[:, :, None], f, 0.0).sum(axis=1)
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
    stacked = learning._Params(*(p[None] for p in params))
    logs = learning._Params(*(learning.log(p) for p in stacked))
    q_y, q_z, loglik = learning._estep(stacked, logs, t, learning._Layout(t, slots.idx))
    return q_y[:, 0], q_z[:, :, 0], loglik[0]


def lone_nbi_estep(prior, tables, t):
    """`learning._nbi_estep` on a stack of one run, in the unstacked layout."""
    logs = (learning.log(p)[None] for p in (prior, tables))
    q_y, loglik = learning._nbi_estep(*logs, nbi_layout(t))
    return q_y[:, 0], loglik[0]


def nbi_layout(t):
    return learning._Layout(t, t.worker_idx, per_path=False)


def lone_evidence(t, slot_idx, log_tables):
    """`evidence` of one run over the (path, task) cells, (K_z, N, n)."""
    cells = evidence(log_tables[None], label_entries(t, slot_idx))[:, 0]
    return cells.reshape(-1, t.num_paths, t.num_samples)


def lone_direct(t, slot_idx, log_prior, log_tables):
    """The log prior plus `evidence` of one run over the task cells, (K, n), as
    nbap (slot: the path) and nbi (slot: the worker) take it."""
    return log_prior[:, None] + evidence(log_tables[None], label_entries(t, slot_idx, False))[:, 0]


def count_evidence(counts, log_tables):
    """`evidence` (V, K) of count vectors (V, K) from their non-zero entries, as exact
    IG builds them."""
    v, x = np.nonzero(counts)
    e = entries(counts.shape[1], len(counts), v, 0, x, counts[v, x])
    return evidence(log_tables[None], e)[:, 0].T


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


def vote_table(rng, k, paths, tasks=12, workers=4, distinct=False):
    """Random votes; with `distinct`, no label twice in a task, so every label
    entry of every layout holds one vote."""
    samples = [TaskSample(task_id="first", votes={0: (("w0", 0),)})]
    for t in range(tasks):
        votes, unused = {}, list(rng.permutation(k)) if distinct else []

        def label():
            return unused.pop() if distinct else rng.integers(k)

        for p in range(paths):
            n = int(rng.integers(0, min(5, len(unused) + 1) if distinct else 5))
            if n:
                votes[p] = tuple(
                    (f"w{int(rng.integers(workers))}", int(label())) for _ in range(n)
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
    """`_log_space` over a leading axis, in any layout of the rest."""
    rng = np.random.default_rng(seed)
    for lead, axis in (((rows,), 1), ((rows, 2, k), 3), ((rows, 3), 1), ((), 0)):
        a = np.moveaxis(log_scores(rng, lead + (k,)), -1, axis)
        same_bits(_log_space(np.moveaxis(a, axis, 0))[0], ref_logsumexp(a, axis=axis))


def test_logsumexp_all_minus_inf_and_ties():
    a = np.array([[-np.inf] * 3, [0.5, 0.5, 0.5], [0.0, -np.inf, 0.0], [1.0, -np.inf, -np.inf]])
    got, post = _log_space(a.T)
    same_bits(got, ref_logsumexp(a, axis=1))
    assert got[0] == -np.inf
    assert got[3] == 1.0
    assert (post[:, 0] == 1.0 / 3).all()
    assert post[:, 3].tolist() == [1.0, 0.0, 0.0]


def gapped_scores(rng, shape):
    """`log_scores` with some entries pushed 745 to 1,500 nats below the rest,
    beyond the reach of a scaled double."""
    a = log_scores(rng, shape)
    far = rng.random(shape) < 0.3
    a[far] -= rng.uniform(745.0, 1500.0, size=int(far.sum()))
    return a


def tiny_weights(rng, shape):
    """Row-stochastic weights along the last axis, some exactly 0 and some below 1e-250."""
    w = posteriors(rng, shape)
    w[rng.random(shape) < 0.2] = 0.0
    w[rng.random(shape) < 0.2] = 1e-280
    w[..., 0] += 1e-3
    return w / w.sum(axis=-1, keepdims=True)


@PARITY
@given(k=BIT_K, rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_normalise_bits(k, rows, seed):
    """`normalise` and `path_factors`, label-major, against the task-major reference."""
    rng = np.random.default_rng(seed)
    log_x = gapped_scores(rng, (rows, k))
    for g, w in zip(normalise(log_x.T), ref_normalise(log_x)):
        same_bits(np.ascontiguousarray(g.T), w)
    evidence = gapped_scores(rng, (rows, 3, k))                 # (n, N, K_z)
    cpts = tiny_weights(rng, (3, k, k))                         # (N, K_y, K_z)
    f, q_z = path_factors(cpts, evidence.transpose(2, 1, 0))
    want_f, want_q = ref_normalise(evidence[:, :, None, :], cpts[None])
    same_bits(np.ascontiguousarray(f.transpose(2, 1, 0)), want_f)
    same_bits(np.ascontiguousarray(q_z.transpose(3, 2, 0, 1)), want_q)


@PARITY
@given(k=BIT_K, rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_factors_without_posteriors_keep_path_factors_bits(k, rows, seed):
    """The factors-only path gives `path_factors`' own factors, bit for bit, with
    and without a run axis, underflowed sums and all -inf slices included."""
    rng = np.random.default_rng(seed)
    for runs in ((), (2,)):
        evidence = gapped_scores(rng, (k, *runs, 3, rows))          # (K_z, (R,) N, n)
        evidence[:, ..., 0] = -np.inf
        cpts = tiny_weights(rng, (*runs, 3, k, k))                   # ((R,) N, K_y, K_z)
        factors, q_z = path_factors(cpts, evidence, posterior=False)
        assert q_z is None
        same_bits(factors, path_factors(cpts, evidence)[0])


def log_space_form(log_x, weights):
    """log sum w and w / sum w along the last axis, summed in log space by scipy."""
    terms = np.log(weights) + log_x
    norm = scipy_logsumexp(terms, axis=-1)
    post = np.exp(terms - norm[..., None])
    return norm, np.where(np.isfinite(norm)[..., None], post, 1.0 / terms.shape[-1])


@PARITY
@given(k=st.integers(2, 10), rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_normalise_matches_the_log_space_form(k, rows, seed):
    """The scaled path factors and posteriors equal the log-space ones to 1e-12,
    ties, -inf entries, all -inf slices and gaps over 745 nats included."""
    rng = np.random.default_rng(seed)
    evidence = gapped_scores(rng, (rows, 3, k))
    cpts = tiny_weights(rng, (3, k, k))
    f, q_z = path_factors(cpts, evidence.transpose(2, 1, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        want_f, want_q = log_space_form(evidence[:, :, None, :], cpts[None])
    close(f.transpose(2, 1, 0), want_f)
    close(q_z.transpose(3, 2, 0, 1), want_q)
    log_joint = gapped_scores(rng, (rows, k))
    norm, post = normalise(log_joint.T)
    with np.errstate(invalid="ignore"):
        want_norm, want_post = log_space_form(log_joint, 1.0)
    close(norm, want_norm)
    close(post.T, want_post)


@PARITY
@given(k=BIT_K, rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_label_sums_bits(k, rows, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(rows, k)).astype(np.float64)
    tables = log_tables(rng, 1, k)
    same_bits(count_evidence(counts, tables), ref_count_evidence(counts[:, None], tables)[:, 0])


@PARITY
@given(k=WIDE_K, rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_wide_label_axes_within_1e12(k, rows, seed):
    rng = np.random.default_rng(seed)
    a = log_scores(rng, (rows, 2, k))
    close(_log_space(np.moveaxis(a, 2, 0))[0], ref_logsumexp(a, axis=2))
    counts = rng.integers(0, 4, size=(rows, k)).astype(np.float64)
    tables = log_tables(rng, 1, k)
    close(count_evidence(counts, tables), ref_count_evidence(counts[:, None], tables)[:, 0])


def test_nine_label_posterior_matches_enumeration():
    rng = np.random.default_rng(9)
    model = random_model(rng, 2, k=9)
    task = TaskSample(task_id="t", votes={0: ((None, 3), (None, 3), (None, 7)), 1: ((None, 0),)})
    probs = table_posteriors("apm", model, table_of([task], None, 9))[0][0]
    np.testing.assert_allclose(probs, enum_posterior(model, task), atol=1e-12, rtol=0)


# --- scatter-adds ---


def agree_entries(got, want, exact):
    """Bit for bit where `exact`; else to a relative 1e-12, as an entry of m votes
    adds m log p where the per-vote form adds log p m times."""
    if exact:
        same_bits(got, want)
    else:
        close(got, want)


@PARITY
@given(
    k=st.integers(2, 10),
    paths=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    distinct=st.booleans(),
)
def test_scatters_bits(k, paths, seed, distinct):
    """The entry kernel against `np.add.at` over every vote: the evidence over
    (path, task) and task cells and the M-steps' count tables. Bit for bit where
    every entry holds one vote (no label twice in a task), at every K."""
    rng = np.random.default_rng(seed)
    t, _ = vote_table(rng, k, paths, distinct=distinct)
    pairs, slot_idx = t.path_worker_slots()
    tables = log_tables(rng, len(pairs), k)
    agree_entries(
        lone_evidence(t, slot_idx, tables).transpose(2, 1, 0),
        ref_vote_evidence(t, slot_idx, tables),
        distinct,
    )

    log_prior = learning.log(posteriors(rng, (k,)))
    rows = tables[slot_idx, :, t.label]
    agree_entries(
        lone_direct(t, slot_idx, log_prior, tables).T,
        ref_direct_log_joints(log_prior, t.sample_idx, rows, t.num_samples),
        distinct,
    )

    q_y = posteriors(rng, (t.num_samples, k))
    q_z = posteriors(rng, (t.num_samples, paths, k, k))
    alpha = float(rng.choice([0.0, 1.0, 0.37]))
    for share in (True, False):
        slots = learning._slots(t, share)
        q_z_one = q_z.transpose(2, 3, 1, 0)[:, :, None]
        layout = learning._Layout(t, slots.idx)
        got = lone(learning._mstep(layout, len(slots.path), q_y.T[:, None], q_z_one, alpha))
        want = ref_mstep(t, slots, q_y, q_z, alpha)
        for g, w in zip(got, want):
            agree_entries(g, w, distinct and k <= 7)  # ref_mstep's einsum sums pairwise from K = 8
    got = lone(learning._nbi_mstep(nbi_layout(t), len(t.workers), q_y.T[:, None], alpha))
    for g, w in zip(got, ref_nbi_mstep(t, q_y, alpha)):
        agree_entries(g, w, distinct)
    got = table_posteriors("mv", random_model(rng, paths, k=k), t)[0]
    same_bits(got[np.argsort(t.order)], ref_mv_probs(t, k))


def test_empty_scatters():
    t = table_of([TaskSample(task_id="a", votes={})], 2, 3)
    _, slot_idx = t.path_worker_slots()
    same_bits(
        lone_evidence(t, slot_idx, np.zeros((0, 3, 3))).transpose(2, 1, 0),
        ref_vote_evidence(t, slot_idx, np.zeros((0, 3, 3))),
    )
    log_prior = np.log([0.2, 0.3, 0.5])
    same_bits(
        lone_direct(t, slot_idx, log_prior, np.zeros((0, 3, 3))).T,
        ref_direct_log_joints(log_prior, t.sample_idx, np.zeros((0, 3)), 1),
    )


@pytest.mark.parametrize("k", [2, 4, 7])
def test_log_prior_goes_in_after_the_votes(k):
    """A task's sum adds its votes in order from 0.0, then its log prior, as
    np.add.at into zeros and then adding the prior does."""
    log_prior = np.log(np.linspace(1.0, 2.0, k) / np.linspace(1.0, 2.0, k).sum())
    votes = tuple((None, x) for x in range(k))
    t = table_of([TaskSample("a", {0: votes}), TaskSample("b", {})], 1, k)
    log_table = -np.arange(1.0, k * k + 1.0).reshape(1, k, k) / 3.0
    want = ref_direct_log_joints(log_prior, t.sample_idx, log_table[0][:, t.label].T, 2)
    same_bits(lone_direct(t, t.path_idx, log_prior, log_table).T, want)


def test_a_repeated_label_adds_m_log_p_once():
    """Five votes for one label by one worker make one entry of m = 5 in every
    layout, whose evidence is 5 log p, bit for bit. Labels that interleave
    across workers (0, 1, 0 in canonical order) stay three entries of m = 1."""
    k = 3
    rng = np.random.default_rng(5)
    repeated = TaskSample("a", {0: (("w0", 2),) * 5})
    mixed = TaskSample("b", {0: (("w0", 0), ("w1", 1), ("w2", 0))})
    t = table_of([repeated, mixed], 1, k)
    tables = log_tables(rng, 3, k)
    for slot, per_path in ((t.path_idx, True), (t.path_worker_slots()[1], True),
                           (t.worker_idx, False)):
        e = label_entries(t, slot, per_path)
        assert e.m.reshape(k, -1)[0].tolist() == [5.0, 1.0, 1.0, 1.0]
        got = evidence(tables[None], e)[:, 0].reshape(k, -1)  # (K, cells)
        same_bits(got[:, 0], 5.0 * tables[slot[0], :, 2])
    assert label_entries(table_of([mixed], 1, k), t.path_idx[5:]).m is None


# --- E-steps ---


def task_major(q_y, q_z=None):
    """The E-step posteriors, q_y (K_y, n) and q_z (K_y, K_z, N, n), in the
    references' task-major layout."""
    return q_y.T if q_z is None else (q_y.T, q_z.transpose(3, 2, 0, 1))


def estep_table(rng, k, paths, truths, distinct=False):
    """A vote table with a voteless task and a task whose only vote, label
    k - 1 on path 0 by worker w0, has probability 0 under every state once
    `dead_column` is applied; `truths` is "none", "some" or "all"; `distinct`
    as in `vote_table`."""
    _, samples = vote_table(rng, k, paths, distinct=distinct)
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


def agree(got, want, k, distinct=True):
    """Bit for bit for K <= 7 where every label entry holds one vote, else to 1e-12."""
    agree_entries(got, want, k <= 7 and distinct)


@PARITY
@given(
    k=st.integers(2, 10),
    paths=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    truths=st.sampled_from(["none", "some", "all"]),
    distinct=st.booleans(),
)
def test_esteps_match_task_major_references(k, paths, seed, truths, distinct):
    rng = np.random.default_rng(seed)
    t = estep_table(rng, k, paths, truths, distinct)
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
            agree(g, w, k, distinct)
        agree(got_ll, want_ll, k, distinct)
        if kill and t.truth[dead] < 0:
            assert (want_y[dead] == 1.0 / k).all()

    workers = posteriors(rng, (len(t.workers), k, k))
    if kill:
        workers = dead_column(workers, t.workers.index("w0"), k - 1)
    prior = posteriors(rng, (k,))
    got_y, got_ll = lone_nbi_estep(prior, workers, t)
    want_y, want_ll = ref_nbi_estep(prior, workers, t)
    agree(task_major(got_y), want_y, k, distinct)
    agree(got_ll, want_ll, k, distinct)


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


# --- a path factor whose scaled sum underflows ---


def underflow_model():
    """K = 2. On path 0, y = 0 puts all its mass on state 1 and each vote for
    label 0 costs state 1 100 nats, so 8 such votes give evidence [0, -800] and
    p(x_0 | y = 0) = e^-800, which a scaled double cannot hold. On path 1 the
    state copies the outcome, so 9 votes for label 0 favour y = 0 by 900 nats.
    On path 2 label 1 is impossible under every state. The prior favours y = 1."""
    votes = Cpt([[1.0, 0.0], [np.exp(-100.0), 1.0 - np.exp(-100.0)]])
    return ApmModel(
        labels=LabelSpace(2),
        prior=np.array([0.4, 0.6]),
        paths=tuple(AccessPathSpec(index=i, cost=1) for i in range(3)),
        path_cpts=(Cpt([[0.0, 1.0], [0.5, 0.5]]), Cpt(np.eye(2)), Cpt(np.eye(2))),
        worker_cpts=(votes, votes, Cpt([[1.0, 0.0], [1.0, 0.0]])),
    )


def log_space_joint(model, task):
    """log p(y, x) of one task, every path's state summed out by scipy in log space."""
    out = np.log(model.prior)
    for i, path_votes in task.votes.items():
        rows = model.worker_cpts[i].rows
        with np.errstate(divide="ignore"):
            evidence = sum(np.log(rows[:, label]) for _, label in path_votes)
            out = out + scipy_logsumexp(np.log(model.path_cpts[i].rows) + evidence, axis=1)
    return out


def model_estep(model, table):
    """`lone_estep` at a shared-worker model's own parameters."""
    tables = [np.array([c.rows for c in cpts]) for cpts in (model.path_cpts, model.worker_cpts)]
    return lone_estep(learning._Params(model.prior, *tables), table, learning._slots(table, True))


def test_underflowed_path_factor_is_taken_again_in_log_space():
    """Scaled sums give p(x_0 | y = 0) = e^-800 and p(x_1 | y = 1) = e^-900 as 0,
    so without the recompute both outcomes lose all mass and the task falls
    back to the prior's y = 1, though y = 0 wins by about 100 nats; the
    log-space recompute keeps both factors."""
    model = underflow_model()
    task = TaskSample("t", {0: ((None, 0),) * 8, 1: ((None, 0),) * 9})
    want = log_space_joint(model, task)
    assert want[0] - want[1] > 99
    table = table_of([task], 3, 2)
    probs, prediction, degenerate = table_posteriors("apm", model, table)
    assert prediction[0] == 0 and not degenerate[0]
    np.testing.assert_allclose(probs[0], np.exp(want - scipy_logsumexp(want)), rtol=1e-12)
    close(learning.log_likelihood(model, table), scipy_logsumexp(want))

    q_y, q_z, loglik = model_estep(model, table)
    assert not np.isnan(q_z).any() and not np.isnan(q_y).any()
    assert q_z[0, :, 0, 0].tolist() == [0.0, 1.0]
    close(loglik, scipy_logsumexp(want))


def test_impossible_vote_gives_minus_inf_and_the_prior():
    """A vote of probability 0 under every state: every log joint is -inf, so the
    task is degenerate, its posterior the prior, its log-likelihood -inf, and its
    state posteriors uniform."""
    model = underflow_model()
    table = table_of([TaskSample("t", {0: ((None, 0),), 2: ((None, 1),)})], 3, 2)
    probs, _, degenerate = table_posteriors("apm", model, table)
    assert degenerate[0] and probs[0].tolist() == [0.4, 0.6]
    assert learning.log_likelihood(model, table) == -np.inf
    q_y, q_z, loglik = model_estep(model, table)
    assert loglik == -np.inf
    assert q_y[:, 0].tolist() == [0.5, 0.5]
    assert (q_z[:, :, 2, 0] == 0.5).all() and not np.isnan(q_z).any()


# --- label entries against the per-vote oracles ---

ORACLE_RTOL = 1e-12  # an entry of m votes adds m log p once; the oracles add log p m times


def near(got, want):
    """Equal to a relative `ORACLE_RTOL`, the infinite entries equal."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    assert np.array_equal(got[~np.isfinite(got)], want[~np.isfinite(want)])
    np.testing.assert_allclose(got[np.isfinite(got)], want[np.isfinite(want)], rtol=ORACLE_RTOL,
                               atol=0)


def repeating_table(rng, k, paths, tasks=12, workers=4):
    """Votes whose labels repeat within a (task, path) and interleave across its
    workers: each (task, path) draws 0 to 6 votes over two of the K labels. Task
    "rep" holds five votes for one label by one worker on path 0, task "mix"
    labels 0, 1, 0 from workers w0, w1, w2, and worker w0 votes on every path
    of task "all"."""
    samples = [
        TaskSample("rep", {0: (("w0", k - 1),) * 5}),
        TaskSample("mix", {0: (("w0", 0), ("w1", 1), ("w2", 0))}),
        TaskSample("all", {p: (("w0", 1),) for p in range(paths)}),
    ]
    for t in range(tasks):
        votes = {}
        for p in range(paths):
            pair = rng.choice(k, 2, replace=False)
            n = int(rng.integers(0, 7))
            if n:
                labels = pair[rng.integers(2, size=n)]
                votes[p] = tuple((f"w{int(rng.integers(workers))}", int(x)) for x in labels)
        truth = int(rng.integers(k)) if rng.random() < 0.3 else None
        samples.append(TaskSample(f"t{t}", votes, truth))
    return table_of(samples, paths, k)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["shared", "per-worker", "nbi"]),
    k=st.integers(2, 10),
    paths=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.0, 1.0]),
)
def test_entry_em_iteration_matches_the_per_vote_oracles(kind, k, paths, seed, alpha):
    """The entry kernel's evidence, one E+M iteration of apm (shared or per-worker
    tables) and one of nbi equal the per-vote `np.add.at` forms of
    `tests/_oracles.py` to a relative `ORACLE_RTOL`, K = 2 to 10."""
    rng = np.random.default_rng(seed)
    t = repeating_table(rng, k, paths)
    prior = posteriors(rng, (k,))
    if kind == "nbi":
        tables = posteriors(rng, (len(t.workers), k, k))
        rows = learning.log(tables)[t.worker_idx, :, t.label]
        want = ref_direct_log_joints(learning.log(prior), t.sample_idx, rows, t.num_samples)
        near(lone_direct(t, t.worker_idx, learning.log(prior), learning.log(tables)).T, want)
        got_y, got_ll = lone_nbi_estep(prior, tables, t)
        want_y, want_ll = _ref_nbi_estep((prior, tables), t)
        layout = nbi_layout(t)
        got = lone(learning._nbi_mstep(layout, len(t.workers), got_y[:, None], alpha))
        want = _ref_nbi_mstep(t, want_y, alpha)
    else:
        slots = learning._slots(t, kind == "shared")
        tables = posteriors(rng, (len(slots.path), k, k))
        params = learning._Params(prior, posteriors(rng, (paths, k, k)), tables)
        got_e = lone_evidence(t, slots.idx, learning.log(tables)).transpose(2, 1, 0)
        near(got_e, ref_vote_evidence(t, slots.idx, learning.log(tables)))
        got_y, got_z, got_ll = lone_estep(params, t, slots)
        want_y, want_z, want_ll = _ref_estep(params, t, slots)
        near(got_z, want_z)
        layout = learning._Layout(t, slots.idx)
        q_z = got_z[:, :, None]
        got = lone(learning._mstep(layout, len(slots.path), got_y[:, None], q_z, alpha))
        want = _ref_mstep(t, slots, want_y, want_z, alpha)
    assert layout.entries.m is not None  # "rep" holds an entry of m = 5
    near(got_y, want_y)
    near(got_ll, want_ll)
    for g, w in zip(got, want):
        near(g, w)
