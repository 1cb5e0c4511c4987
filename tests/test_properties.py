"""Property tests: the batched posteriors and log-likelihood against the oracles,
the lazy greedy planner against an eager reference, a greedy step's batched
sampled scores against separate calls, the batched IG scorer and the planners
that use it against their one-plan-at-a-time references, the `equal` and `rnd`
pick rules against their own purchase loops, and EM monotonicity.

Models are drawn at random with shared and per-worker vote tables, and their
tables may hold exact zeros, so impossible votes, degenerate evidence and
exact ties between candidate votes come up. Posteriors are checked task by
task against the brute-force references in `_oracles.py`.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import replace
from fractions import Fraction
from importlib.resources import files
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdplan.infogain as infogain
import crowdplan.planner as planner
from crowdplan._rng import substream
from crowdplan.cli import main
from crowdplan.errors import CrowdPlanError, InputError, NumericError, ResourceLimitError
from crowdplan.infogain import (
    IgConfig,
    IgEstimate,
    IgMode,
    _resolve_mode,
    exact_conditional_entropy,
    information_gain,
    information_gains,
    prior_entropy,
    sampled_conditional_entropies,
)
from crowdplan.learning import EmConfig, fit_em, fit_nbi, log_likelihood
from crowdplan.model import (
    AccessPathSpec,
    AccessPlan,
    ApmModel,
    Cpt,
    LabelSpace,
    NbiModel,
    TaskSample,
    as_counts,
    model_to_dict,
    nbi_model_to_dict,
    plan_cost,
    with_costs,
)
from crowdplan.planner import PlanResult, TraceStep, baseline_plan, exhaustive_opt, greedy_plan

from _oracles import (
    enum_joint_of_assignment,
    enum_posterior,
    naive_path_posterior,
    naive_worker_posterior,
    posteriors,
    sym_model,
    table_of,
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
def apm_models(draw, shared_only=False, max_labels=3):
    k = draw(st.integers(2, max_labels))
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
    for task, probs in zip(tasks, posteriors("apm", model, tasks)[0]):
        np.testing.assert_allclose(probs, enum_posterior(model, task), atol=1e-12, rtol=0)


@PROPERTY
@given(st.data())
def test_nbap_matches_path_marginal_oracle(data):
    model = data.draw(apm_models(shared_only=True))
    tasks = data.draw(task_lists(model.num_paths, model.num_labels, per_worker=False))
    for task, probs in zip(tasks, posteriors("nbap", model, tasks)[0]):
        want = naive_path_posterior(model, task)
        np.testing.assert_allclose(probs, want, atol=1e-12, rtol=0)


@PROPERTY
@given(st.data())
def test_nbi_matches_worker_oracle(data):
    model = data.draw(nbi_models())
    tasks = data.draw(task_lists(2, model.num_labels))
    rows = {w: t.rows for w, t in model.worker_cpts.items()}
    for task, probs in zip(tasks, posteriors("nbi", model, tasks)[0]):
        votes = [wv for p in sorted(task.votes) for wv in task.votes[p]]
        want = naive_worker_posterior(model.prior, rows, votes)
        np.testing.assert_allclose(probs, want, atol=1e-12, rtol=0)


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
    before = {t.task_id: p for t, p in zip(tasks, zip(*posteriors(kind, model, tasks)))}
    other = shuffled(data.draw, tasks)
    for task, (probs, pred, degenerate) in zip(other, zip(*posteriors(kind, model, other))):
        want_probs, want_pred, want_degenerate = before[task.task_id]
        assert np.array_equal(probs, want_probs)
        assert pred == want_pred
        assert degenerate == want_degenerate


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
    got = log_likelihood(model, table_of(samples=tuple(tasks), **layout))
    if math.isinf(want):
        assert got == want
    else:
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    other = table_of(samples=tuple(shuffled(data.draw, tasks)), **layout)
    assert log_likelihood(model, other) == got


@PROPERTY
@given(st.data(), st.integers(1, 3), st.integers(2, 3))
def test_permuting_votes_and_tasks_leaves_learning_bitwise_unchanged(data, num_paths, k):
    """Shared and per-worker `fit_em` and `fit_nbi` give equal model documents
    and reports, or the same error, on shuffled tasks."""
    tasks = data.draw(task_lists(num_paths, k, labeled=True))
    cfg = EmConfig(max_iters=20, rel_tol=1e-12, restarts=2, seed=data.draw(st.integers(0, 9)))

    fits = [
        (model_to_dict, lambda table: fit_em(table, True, cfg)),
        (model_to_dict, lambda table: fit_em(table, False, cfg)),
        (nbi_model_to_dict, lambda table: fit_nbi(table, cfg)),
    ]

    def document(to_dict, fit, table):
        model, report = fit(table)
        return to_dict(model), report

    def learned(samples):
        table = table_of(samples=tuple(samples), num_paths=num_paths, num_labels=k)
        return [outcome(document, to_dict, fit, table) for to_dict, fit in fits]

    assert learned(shuffled(data.draw, tasks)) == learned(tasks)


# --- greedy planner ---

COSTS = st.sampled_from([Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)])


@st.composite
def priced_models(draw):
    model = draw(apm_models(shared_only=True))
    return with_costs(model, [draw(COSTS) for _ in range(model.num_paths)])


def eager_greedy(model, budget, cfg):
    """Cost-scaled greedy that scores every affordable candidate at every step,
    each plan in its own call under the caller's config."""
    b = Fraction(budget)
    counts = [0] * model.num_paths
    spent = Fraction(0)
    trace = []
    step = 0
    while True:
        affordable = [i for i, c in enumerate(model.costs) if c <= b - spent]
        if not affordable:
            break
        base = information_gain(model, counts, cfg).value
        best = None
        for i in affordable:
            counts[i] += 1
            delta = information_gain(model, counts, cfg).value - base
            counts[i] -= 1
            if delta <= 0:
                continue
            ratio = delta / float(model.costs[i])
            if best is None or ratio > best[2]:
                best = (i, delta, ratio)
        if best is None:
            break
        i, delta, ratio = best
        counts[i] += 1
        spent += model.costs[i]
        trace.append(TraceStep(step=step, path=i, delta_ig=delta, ratio=ratio))
        step += 1
    return AccessPlan(tuple(counts)), information_gain(model, counts, cfg), tuple(trace)


@PROPERTY
@given(
    priced_models(),
    st.integers(0, 8),
    st.sampled_from(
        [
            IgConfig(mode=IgMode.EXACT),
            IgConfig(),
            IgConfig(mode=IgMode.SAMPLED, num_samples=64, seed=7),
        ]
    ),
)
def test_greedy_matches_eager_reference(model, budget, cfg):
    """Lazy exact steps pick the same votes, with the same gain bits, as scoring every candidate."""
    got = greedy_plan(model, budget, cfg)
    plan, ig, trace = eager_greedy(model, budget, cfg)
    assert got.plan == plan
    assert got.trace == trace
    assert got.ig == ig


@st.composite
def symmetric_models(draw):
    """Identical paths, so candidates tie exactly and the lowest-index rule decides."""
    n = draw(st.integers(2, 3))
    return sym_model(
        draw(st.sampled_from([[0.5, 0.5], [0.6, 0.4]])),
        [draw(st.sampled_from([0.7, 0.8, 0.85, 0.9]))] * n,
        [draw(st.sampled_from([0.6, 0.75, 0.8]))] * n,
        costs=[draw(st.sampled_from([1, 2]))] * n,
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(symmetric_models(), st.integers(1, 12))
def test_greedy_ties_match_eager_reference(model, budget):
    cfg = IgConfig(mode=IgMode.EXACT)
    got = greedy_plan(model, budget, cfg)
    plan, ig, trace = eager_greedy(model, budget, cfg)
    assert got.plan == plan
    assert got.trace == trace
    assert got.ig == ig


def _step_groups(calls):
    """Split the plans a greedy run scores, in order, into steps.

    Step t scores candidates one vote larger than the plan it starts from (t
    votes), and that plan too unless the previous step's estimate of it
    carries over; it never scores a plan twice, and any other call starts
    step t + 1.
    """
    groups, step, seen = [], 0, set()
    for plan, mode in calls:
        if not groups or sum(plan) not in (step, step + 1) or plan in seen:
            step += bool(groups)
            assert sum(plan) in (step, step + 1), calls
            groups.append([])
            seen = set()
        seen.add(plan)
        groups[-1].append(mode)
    return groups


@PROPERTY
@given(priced_models(), st.integers(1, 8), st.integers(2, 60), st.integers(1, 40))
def test_each_greedy_step_uses_one_estimator(model, budget, exact_limit, samples):
    """Near auto's threshold a step's candidates straddle it; the step still uses one mode."""
    cfg = IgConfig(num_samples=samples, seed=3)
    calls = []
    scorer = planner.information_gain
    batch_scorer = planner._information_gains

    def recording(model, plan, step_cfg=None):
        est = scorer(model, plan, step_cfg)
        if step_cfg is not cfg:  # the caller's own config scores the final plan, not a step
            calls.append((tuple(plan), est.mode))
        return est

    def recording_batch(model, plans, step_cfg, held):
        ests = batch_scorer(model, plans, step_cfg, held)
        calls.extend((tuple(plan), est.mode) for plan, est in zip(plans, ests))
        return ests

    with patch.object(planner, "information_gain", recording), patch.object(
        planner, "_information_gains", recording_batch
    ), patch.object(infogain, "EXACT_LIMIT", exact_limit):
        result = greedy_plan(model, budget, cfg)
    groups = _step_groups(calls)
    assert len(groups) >= len(result.trace)
    for modes in groups:
        assert len(set(modes)) == 1, groups


@PROPERTY
@given(
    priced_models(),
    st.integers(0, 10),
    st.sampled_from([1, 64, 8192 + 3]),
    st.integers(0, 9),
    st.sampled_from([IgMode.SAMPLED, IgMode.AUTO]),
    st.integers(2, 60),
)
def test_sampled_search_keeps_a_lone_calls_estimate(model, budget, samples, seed, mode, limit):
    """The final `ig` and `stderr` a greedy search keeps from its last sampled
    step are, bit for bit, those of a lone `information_gain` call on its plan;
    near auto's threshold the search mixes exact and sampled steps."""
    cfg = IgConfig(mode=mode, num_samples=samples, seed=seed)
    with patch.object(infogain, "EXACT_LIMIT", limit):
        result = greedy_plan(model, budget, cfg)
        want = information_gain(model, result.plan, cfg)
    assert bits(result.ig) == bits(want)


# --- sampled information gain ---


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(apm_models(shared_only=True, max_labels=4), st.data())
@pytest.mark.parametrize("samples", [1, 97, 8192 + 7])
def test_batched_sampled_scorer_matches_separate_calls(samples, model, data):
    """A greedy step's plans scored together give each plan's own estimate, bit for bit.

    Every plan is checked twice: after a drawn base, and after the empty base,
    whose candidates each open a path with no votes.
    """
    cfg = IgConfig(mode=IgMode.SAMPLED, num_samples=samples, seed=data.draw(st.integers(0, 99)))
    n = model.num_paths
    drawn = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    for base in (drawn, [0] * n):
        plans = [base] + [base[:i] + [base[i] + 1] + base[i + 1 :] for i in range(n)]
        got = sampled_conditional_entropies(model, plans, cfg)
        want = [sampled_conditional_entropies(model, [plan], cfg)[0] for plan in plans]
        assert got == want
        assert all(type(h) is float and type(se) is float for h, se in got)


# --- one IG builder: the batched planners against their one-plan references ---


def bits(est):
    return est.value.hex(), est.stderr.hex(), est.mode


def outcome(fn, *args):
    """fn's result, or the type and message of the CrowdPlanError it raised."""
    try:
        return fn(*args)
    except CrowdPlanError as exc:
        return type(exc), str(exc)


def reference_information_gain(model, plan, cfg):
    """The one-plan body `information_gains` replaced."""
    counts = as_counts(plan, model.num_paths)
    mode = _resolve_mode(cfg, counts, model.num_labels)
    h_prior = prior_entropy(model.prior)
    if sum(counts) == 0:
        return IgEstimate(value=0.0, stderr=0.0, mode=mode)
    if mode is IgMode.EXACT:
        value = h_prior - exact_conditional_entropy(model, counts)
        if value < 0:
            if value < -1e-9:
                raise NumericError(f"exact information gain {value} below -1e-09")
            value = 0.0
        return IgEstimate(value=value, stderr=0.0, mode=IgMode.EXACT)
    [(h_cond, stderr)] = sampled_conditional_entropies(model, [counts], cfg)
    return IgEstimate(value=h_prior - h_cond, stderr=stderr, mode=IgMode.SAMPLED)


def reference_opt(model, budget, enumeration_limit):
    """The recursive `exhaustive_opt`: score maximal plans as the recursion reaches them."""
    costs = model.costs
    b = Fraction(budget)
    total = 1
    for c in costs:
        total *= int(b // c) + 1
    if total > enumeration_limit:
        raise ResourceLimitError(
            f"{total} candidate plans exceed the enumeration limit {enumeration_limit}"
        )
    cfg = IgConfig(mode=IgMode.EXACT)
    best = [None, None]

    def recurse(path, prefix, remaining):
        if path == model.num_paths:
            if remaining < min(costs):
                est = reference_information_gain(model, prefix, cfg)
                if best[1] is None or est.value > best[1].value:
                    best[:] = [tuple(prefix), est]
            return
        count = 0
        while count * costs[path] <= remaining:
            recurse(path + 1, prefix + [count], remaining - count * costs[path])
            count += 1

    recurse(0, [], b)
    counts, est = best
    return counts, plan_cost(model, counts), bits(est)


def reference_best(model, budget):
    """The one-plan-at-a-time `best` baseline: the first path with the largest one-vote gain."""
    n, b = model.num_paths, Fraction(budget)
    cfg = IgConfig(mode=IgMode.EXACT)
    best_path, best_gain = None, -1.0
    for i in range(n):
        gain = reference_information_gain(model, [int(i == j) for j in range(n)], cfg).value
        if gain > best_gain:
            best_path, best_gain = i, gain
    counts = [0] * n
    if model.costs[best_path] <= b:
        counts[best_path] = int(b // model.costs[best_path])
    return tuple(counts)


PLAN_COSTS = st.sampled_from(
    [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)]
)
# 0, fractions, and budgets below every path cost on the models drawn here.
BUDGETS = st.sampled_from([0, Fraction(1, 4), Fraction(2, 7), Fraction(1, 3), Fraction(5, 3)]) | (
    st.integers(1, 6)
)


@st.composite
def opt_models(draw):
    """Random models with integer and fractional costs, or exactly tied symmetric ones."""
    if draw(st.booleans()):
        return draw(symmetric_models())
    model = draw(apm_models(shared_only=True))
    return with_costs(model, [draw(PLAN_COSTS) for _ in range(model.num_paths)])


@PROPERTY
@given(opt_models(), BUDGETS, st.sampled_from([200_000, 30]))
def test_exhaustive_opt_matches_recursive_reference(model, budget, limit):
    """Same counts, cost and gain bits; ties go to the lexicographically smallest plan."""
    want = outcome(reference_opt, model, budget, limit)
    with patch.object(planner, "_OPT_LIMIT", limit):
        got = outcome(exhaustive_opt, model, budget)
    if isinstance(got, PlanResult):
        got = got.plan.counts, got.cost, bits(got.ig)
    assert got == want


@PROPERTY
@given(opt_models(), BUDGETS)
def test_best_baseline_matches_one_plan_reference(model, budget):
    got = baseline_plan("best", model, budget)
    assert got.plan.counts == reference_best(model, budget)
    assert bits(got.ig) == bits(reference_information_gain(model, got.plan, IgConfig()))


def reference_equal(costs, b):
    """`equal` as a round-robin: one vote on each affordable path in index
    order, round after round, until a round buys nothing."""
    counts, spent = [0] * len(costs), Fraction(0)
    progressed = True
    while progressed:
        progressed = False
        for i, c in enumerate(costs):
            if c <= b - spent:
                counts[i] += 1
                spent += c
                progressed = True
    return tuple(counts)


def reference_rnd(costs, b, seed):
    """`rnd` with its own loop: a uniform draw among the affordable paths per vote."""
    counts, spent = [0] * len(costs), Fraction(0)
    rng = substream(seed, "rnd-plan")
    while True:
        affordable = [i for i, c in enumerate(costs) if c <= b - spent]
        if not affordable:
            return tuple(counts)
        i = affordable[int(rng.integers(0, len(affordable)))]
        counts[i] += 1
        spent += costs[i]


@PROPERTY
@given(
    st.lists(PLAN_COSTS, min_size=1, max_size=4),
    st.integers(0, 80).map(lambda n: Fraction(n, 2)),
    st.integers(0, 2**32),
)
def test_equal_and_rnd_match_their_reference_loops(costs, budget, seed):
    model = sym_model([0.6, 0.4], [0.8] * len(costs), [0.7] * len(costs), costs=costs)
    # One draw per sampled IG keeps the score of a plan of up to 140 votes cheap.
    cfg = IgConfig(mode=IgMode.SAMPLED, num_samples=1)
    equal = baseline_plan("equal", model, budget, seed=seed, ig_cfg=cfg)
    assert equal.plan.counts == reference_equal(model.costs, budget)
    rnd = baseline_plan("rnd", model, budget, seed=seed, ig_cfg=cfg)
    assert rnd.plan.counts == reference_rnd(model.costs, budget, seed)


@st.composite
def ig_models(draw):
    """Shared-table models; in half, path states ignore the outcome, so exact IG
    rounds to either side of 0 and the clamp decides."""
    model = draw(apm_models(shared_only=True))
    if draw(st.booleans()):
        flat = [Cpt(np.tile(cpt.rows[0], (model.num_labels, 1))) for cpt in model.path_cpts]
        model = replace(model, path_cpts=flat)
    return model


@PROPERTY
@given(
    ig_models(),
    st.data(),
    st.sampled_from(list(IgMode)),
    st.integers(1, 40),
    st.integers(1, 60),
    st.integers(0, 9),
)
def test_information_gains_matches_one_plan_reference(model, data, mode, samples, limit, seed):
    """A batch mixing empty, exact and sampled plans gives each plan its lone estimate, bit for bit.

    A small EXACT_LIMIT and G put auto's threshold among the drawn plans; in
    forced exact mode a plan past EXACT_LIMIT raises, in batch as alone.
    """
    cfg = IgConfig(mode=mode, num_samples=samples, seed=seed)
    counts = st.lists(st.integers(0, 4), min_size=model.num_paths, max_size=model.num_paths)
    plans = data.draw(st.lists(counts, min_size=1, max_size=6))
    with patch.object(infogain, "EXACT_LIMIT", limit):
        want = outcome(lambda: [bits(reference_information_gain(model, p, cfg)) for p in plans])
        got = outcome(lambda: [bits(est) for est in information_gains(model, plans, cfg)])
    assert got == want


# --- EM ---


@PROPERTY
@given(st.data(), st.sampled_from([0.0, 0.5, 1.0]))
def test_em_history_never_decreases(data, alpha):
    model = data.draw(apm_models())
    shared = not has_per_worker_path(model)
    tasks = data.draw(
        task_lists(model.num_paths, model.num_labels, per_worker=not shared, labeled=True)
    )
    dataset = table_of(samples=tuple(tasks), num_paths=model.num_paths, num_labels=model.num_labels)
    cfg = EmConfig(max_iters=25, rel_tol=1e-12, smoothing_alpha=alpha, restarts=2, seed=1)
    if not shared and not any(t.total_votes for t in tasks):
        with pytest.raises(InputError):
            fit_em(dataset, share_workers=False, cfg=cfg)
        return
    reports = [fit_em(dataset, share_workers=shared, cfg=cfg)[1]]
    if not shared:
        reports.append(fit_nbi(dataset, cfg=cfg)[1])
    for report in reports:
        hist = report.history
        assert len(hist) == report.iterations
        assert all(b >= a - 1e-8 for a, b in zip(hist, hist[1:])), hist


# --- CLI fuzz ---

EXAMPLE_FILE = files("crowdplan") / "data" / "example_model.json"
EXAMPLE, EXAMPLE_DOC = str(EXAMPLE_FILE), json.loads(EXAMPLE_FILE.read_text())
# Each is wrong somewhere in a model document: a wrong type, a non-finite or
# out-of-range number, a huge id. None is negative and finite, and no positive
# one is below 1, so a mutated cost never turns negative and keeps greedy
# planning at budget 9 short.
BAD_VALUES = st.sampled_from(
    [None, True, "x", [], {}, [[1]], math.nan, math.inf, -math.inf, 0, 10**20, 1e308, 2.5]
)
CSV_FIELDS = st.tuples(
    st.sampled_from(["t1", "t2", "t3", ""]),
    st.sampled_from(["0", "1", "2", "3", "50", "-1", "x", ""]),
    st.sampled_from(["a", "b", ""]),
    st.sampled_from(["no", "yes", "maybe", ""]),
    st.sampled_from(["no", "yes", ""]),
    st.just("extra"),
)
NBI_DOC = {
    "kind": "nbi",
    "labels": {"cardinality": 2, "names": ["no", "yes"]},
    "prior": [0.5, 0.5],
    "workers": {"a": [[0.9, 0.1], [0.2, 0.8]], "b": [[0.7, 0.3], [0.4, 0.6]]},
}
GOOD_VOTES = "task_id,path_id,worker_id,vote,truth\nt1,0,a,no,no\nt1,2,b,yes,no\nt2,1,a,yes,yes\n"
KEYS = (
    "kind", "labels", "cardinality", "names", "prior", "paths", "id", "cost", "path_cpt",
    "shared_cpt", "worker_cpts", "workers", "sparse_workers",
)


def _locations(node, prefix=()):
    """(location, node) for every node of a JSON document, the root included."""
    yield prefix, node
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _locations(child, prefix + (key,))


@st.composite
def mutated_model_docs(draw):
    """An apm or nbi document with up to three nodes replaced, dropped or moved to another key."""
    doc = json.loads(json.dumps(draw(st.sampled_from([EXAMPLE_DOC, NBI_DOC]))))
    found = list(_locations(doc))
    containers = [where for where, node in found if isinstance(node, (dict, list))]
    leaves = [where for where, node in found if not isinstance(node, (dict, list))]
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.one_of(st.sampled_from(containers), st.sampled_from(leaves)))
        if not where:
            return draw(BAD_VALUES)
        parent = doc
        try:
            for key in where[:-1]:
                parent = parent[key]
            op = draw(st.sampled_from(["replace", "drop", "move"]))
            if op == "replace" or not isinstance(parent, dict):
                parent[where[-1]] = draw(BAD_VALUES)
            elif op == "drop":
                del parent[where[-1]]
            else:
                parent[draw(st.sampled_from(KEYS))] = parent.pop(where[-1])
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this location
    return doc


@st.composite
def mangled_votes(draw):
    header = draw(st.sampled_from(["task_id,path_id,worker_id,vote,truth", "task_id,vote", ""]))
    lines = [header]
    for fields in draw(st.lists(CSV_FIELDS, max_size=6)):
        lines.append(",".join(fields[: draw(st.sampled_from([5, 5, 5, 0, 1, 4, 6]))]))
    raw = bytearray("\n".join(lines).encode())
    for junk in draw(st.lists(st.sampled_from([b"\xff", b"\x00", b'"', b"\r"]), max_size=2)):
        at = draw(st.integers(0, len(raw)))
        raw[at:at] = junk
    return bytes(raw)


def _run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), (argv, rc)
    if rc:
        assert err.getvalue().startswith("error: "), err.getvalue()


FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@FUZZ
@given(mutated_model_docs())
def test_cli_survives_malformed_model_documents(doc):
    with tempfile.TemporaryDirectory() as tmp:
        model, votes = os.path.join(tmp, "m.json"), os.path.join(tmp, "v.csv")
        with open(model, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with open(votes, "w", encoding="utf-8") as fh:
            fh.write(GOOD_VOTES)
        _run_cli(["plan", "--model", model, "--budget", "9"])
        _run_cli(["simulate", "--model", model, "--plan", "1,1,1", "--tasks", "3",
                  "--out", os.path.join(tmp, "s.csv")])
        for kind in ("apm", "nbi"):
            _run_cli(["infer", "--model", model, "--votes", votes, "--model-kind", kind,
                      "--out", os.path.join(tmp, "p.csv")])


@settings(FUZZ, max_examples=80)
@given(mangled_votes())
def test_cli_survives_malformed_votes_files(raw):
    with tempfile.TemporaryDirectory() as tmp:
        votes, nbi = os.path.join(tmp, "v.csv"), os.path.join(tmp, "nbi.json")
        with open(votes, "wb") as fh:
            fh.write(raw)
        with open(nbi, "w", encoding="utf-8") as fh:
            json.dump(NBI_DOC, fh)
        out = os.path.join(tmp, "out")
        em = ["--max-iters", "3", "--restarts", "1"]
        for kind in ("apm", "nbap", "mv"):
            _run_cli(["infer", "--model", EXAMPLE, "--votes", votes, "--model-kind", kind,
                      "--out", out])
        _run_cli(["infer", "--model", nbi, "--votes", votes, "--model-kind", "nbi", "--out", out])
        for kind in ("apm", "nbi"):
            _run_cli(["learn", "--votes", votes, "--model-kind", kind, "--out", out, *em])
        _run_cli(["sweep", "--votes", votes, "--budgets", "3", "--models", "mv,apm",
                  "--strategies", "equal", "--folds", "2", "--out", out, *em])
