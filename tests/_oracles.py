"""Independent reference implementations used to check the package's numerics.

Everything here works by brute force in plain Python arithmetic: full-joint
enumeration over (outcome, every latent path state), raw enumeration over all
vote assignments for conditional entropy, and naive products for the
independence-assuming posteriors. Nothing imports the package's inference or
information-gain code paths, except the former implementations kept as
references, which share the package's tables and kernels:
`whole_array_exact_conditional_entropy`, the log-space exact entropy that
`exact_conditional_entropy` is held to within 1e-12; and, bit for bit,
`ref_em_fit`, EM one restart after another, for the stacked
`learning._em`, and `ref_execute` and `ref_score_fold`, plan execution by
one `rng.choice` per drawn group and fold scoring by one pass per (strategy,
budget) cell, for `evaluation._execute` and `_score_fold`.

The oracles take one task at a time, as a `TaskSample` record. `table_of`,
`records_of` and `posteriors` carry such records to and from the package's
tables: a table through `Dataset.tabulate`, records in stored order, and
`table_posteriors` in the records' order.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from crowdplan import learning
from crowdplan._rng import derive_seed, substreams
from crowdplan._kernel import (
    apm_log_joints,
    direct_log_joints,
    label_columns,
    label_sum,
    log,
    logsumexp,
    path_factors,
    scatter_rows,
    task_sum,
    vote_evidence,
)
from crowdplan.evaluation import FoldRow, _accuracy, _neg_log_likelihood
from crowdplan.inference import ModelKind, table_posteriors
from crowdplan.infogain import _count_vector_table
from crowdplan.learning import fit_em, fit_nbi
from crowdplan.model import (
    AccessPathSpec,
    AccessPlan,
    ApmModel,
    Cpt,
    Dataset,
    LabelSpace,
    TaskSample,
    with_costs,
)
from crowdplan.planner import build_plan


def enum_posterior(model: ApmModel, sample: TaskSample) -> np.ndarray:
    """Posterior over outcomes by summing the full joint over every latent state."""
    k = model.num_labels
    n = model.num_paths
    mass = [0.0] * k
    for assignment in itertools.product(range(k), repeat=n + 1):
        y, zs = assignment[0], assignment[1:]
        p = float(model.prior[y])
        for i in range(n):
            p *= float(model.path_cpts[i].rows[y, zs[i]])
            for worker, vote in sample.votes_for(i):
                table = model.worker_cpts[i]
                rows = table.rows if isinstance(table, Cpt) else table[worker].rows
                p *= float(rows[zs[i], vote])
        mass[y] += p
    total = math.fsum(mass)
    if total == 0.0:
        return np.asarray(model.prior, dtype=np.float64).copy()
    return np.array([m / total for m in mass])


def enum_joint_of_assignment(model: ApmModel, votes_by_path: dict[int, tuple[int, ...]]):
    """p(votes, y) for every y, latent states summed out, plain loops."""
    k = model.num_labels
    out = []
    for y in range(k):
        p = float(model.prior[y])
        for i in range(model.num_paths):
            votes = votes_by_path.get(i, ())
            acc = 0.0
            for z in range(k):
                term = float(model.path_cpts[i].rows[y, z])
                for v in votes:
                    term *= float(model.worker_cpts[i].rows[z, v])
                acc += term
            p *= acc
        out.append(p)
    return out


def enum_conditional_entropy(model: ApmModel, counts) -> float:
    """H(Y | X_S) by enumerating every one of the K^(sum S) vote assignments."""
    k = model.num_labels
    active = [i for i, c in enumerate(counts) if c > 0]
    slot_paths = [i for i in active for _ in range(counts[i])]
    terms = []
    for flat in itertools.product(range(k), repeat=len(slot_paths)):
        votes_by_path: dict[int, tuple[int, ...]] = {}
        for path, vote in zip(slot_paths, flat):
            votes_by_path[path] = votes_by_path.get(path, ()) + (vote,)
        joint = enum_joint_of_assignment(model, votes_by_path)
        px = math.fsum(joint)
        for pxy in joint:
            if pxy > 0.0:
                terms.append(pxy * math.log(px / pxy))
    return math.fsum(terms)


def whole_array_exact_conditional_entropy(model: ApmModel, counts) -> float:
    """H(Y | X_S) as `exact_conditional_entropy` once computed it, in log space:
    the whole enumeration as one (V, K) array of log p(x, y), each path's
    terms added in path order, `logsumexp` over its label axis, and
    sum p(x, y) log(p(x) / p(x, y)) over every entry with p(x, y) > 0."""
    k = model.num_labels
    log_terms = log(model.prior)[None, :]
    log_mult = np.zeros(1)
    for i, s_i in enumerate(counts):
        if s_i == 0:
            continue
        table = _count_vector_table(model, i, s_i)
        log_c, factor = table.log_c, np.ascontiguousarray(table.factor.T)
        log_terms = (log_terms[:, None, :] + factor[None, :, :]).reshape(-1, k)
        log_mult = (log_mult[:, None] + log_c[None, :]).reshape(-1)
    log_pxy = log_terms + log_mult[:, None]
    log_px = logsumexp(log_pxy, axis=1)
    with np.errstate(invalid="ignore"):
        pxy = np.exp(log_pxy)
        surprise = (log_px[:, None] - log_pxy) * pxy
        contrib = np.where(pxy > 0, surprise, 0.0)
    return float(contrib.sum())


def naive_worker_posterior(prior, worker_rows: dict[str, np.ndarray], votes):
    """Per-worker naive Bayes by direct products: votes are (worker, label)."""
    k = len(prior)
    mass = []
    for y in range(k):
        p = float(prior[y])
        for worker, vote in votes:
            p *= float(worker_rows[worker][y, vote])
        mass.append(p)
    total = math.fsum(mass)
    if total == 0.0:
        return np.asarray(prior, dtype=np.float64).copy()
    return np.array([m / total for m in mass])


def naive_path_posterior(model: ApmModel, sample: TaskSample) -> np.ndarray:
    """Path-marginal naive Bayes: each vote uses p(x|y) = sum_z p(z|y) p(x|z)."""
    k = model.num_labels
    mass = []
    for y in range(k):
        p = float(model.prior[y])
        for i in range(model.num_paths):
            for _, vote in sample.votes_for(i):
                marg = math.fsum(
                    float(model.path_cpts[i].rows[y, z])
                    * float(model.worker_cpts[i].rows[z, vote])
                    for z in range(k)
                )
                p *= marg
        mass.append(p)
    total = math.fsum(mass)
    if total == 0.0:
        return np.asarray(model.prior, dtype=np.float64).copy()
    return np.array([m / total for m in mass])


# --- per-task records, tabulated and read back ---


def table_of(samples, num_paths: int | None, num_labels: int) -> Dataset:
    """`TaskSample` records as one checked table, through `Dataset.tabulate`
    (`num_paths=None` as there); each record's votes are stored path by path."""
    codes: dict[str | None, int] = {}
    flat = np.fromiter(
        (
            x
            for i, s in enumerate(samples)
            for p, vs in s.votes.items()
            for w, v in vs
            for x in (i, p, codes.setdefault(None if w is None else str(w), len(codes)), v)
        ),
        dtype=np.int64,
    ).reshape(-1, 4)
    truth = [-1 if s.truth is None else s.truth for s in samples]
    ids = [s.task_id for s in samples]
    return Dataset.tabulate(ids, truth, *flat.T, list(codes), num_labels, num_paths)


def records_of(table: Dataset) -> tuple[TaskSample, ...]:
    """The tasks of a table as `TaskSample` records, in stored order."""
    c = table.stored_columns()
    votes: list[dict] = [{} for _ in c["task_ids"]]
    for i, p, w, v in zip(*(c[k].tolist() for k in ("task", "path", "worker", "label"))):
        votes[i].setdefault(p, []).append((c["worker_ids"][w], v))
    return tuple(
        TaskSample(tid, {p: tuple(vs) for p, vs in vote.items()}, None if y < 0 else y)
        for tid, vote, y in zip(c["task_ids"], votes, c["truth"].tolist())
    )


def posteriors(kind, model, samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`table_posteriors` of the records' table, rows in the order of `samples`:
    probabilities (n, K), predictions and degenerate flags."""
    table = table_of(samples, None, model.num_labels)
    back = np.argsort(table.order)
    return tuple(a[back] for a in table_posteriors(kind, model, table))


# --- model builders ---


def sym_cpt(acc: float) -> Cpt:
    return Cpt([[acc, 1.0 - acc], [1.0 - acc, acc]])


def sym_model(prior, path_accs, worker_accs, costs=None) -> ApmModel:
    n = len(path_accs)
    costs = costs if costs is not None else [1] * n
    return ApmModel(
        labels=LabelSpace(2),
        prior=np.asarray(prior, dtype=np.float64),
        paths=tuple(
            AccessPathSpec(index=i, cost=Fraction(costs[i])) for i in range(n)
        ),
        path_cpts=tuple(sym_cpt(a) for a in path_accs),
        worker_cpts=tuple(sym_cpt(b) for b in worker_accs),
    )


def random_cpt(rng: np.random.Generator, k: int, lo: float = 0.55, hi: float = 0.95) -> Cpt:
    rows = np.empty((k, k))
    for r in range(k):
        diag = rng.uniform(lo, hi)
        rest = rng.uniform(0.05, 1.0, size=k - 1)
        rest = rest / rest.sum() * (1.0 - diag)
        row = np.insert(rest, r, diag)
        rows[r] = row
    return Cpt(rows)


def random_model(
    rng: np.random.Generator,
    num_paths: int,
    k: int = 2,
    per_worker: bool = False,
    workers_per_path: int = 2,
    costs=None,
) -> ApmModel:
    prior = rng.uniform(0.2, 1.0, size=k)
    prior = prior / prior.sum()
    if costs is None:
        costs = [1] * num_paths
    worker_cpts = []
    for i in range(num_paths):
        if per_worker:
            worker_cpts.append(
                {f"w{i}_{j}": random_cpt(rng, k) for j in range(workers_per_path)}
            )
        else:
            worker_cpts.append(random_cpt(rng, k))
    return ApmModel(
        labels=LabelSpace(k),
        prior=prior,
        paths=tuple(
            AccessPathSpec(index=i, cost=Fraction(costs[i])) for i in range(num_paths)
        ),
        path_cpts=tuple(random_cpt(rng, k) for _ in range(num_paths)),
        worker_cpts=tuple(worker_cpts),
    )


def random_sample(rng: np.random.Generator, model: ApmModel, max_votes: int = 3) -> TaskSample:
    votes = {}
    for i in range(model.num_paths):
        m = int(rng.integers(0, max_votes + 1))
        if m == 0:
            continue
        table = model.worker_cpts[i]
        if isinstance(table, Cpt):
            votes[i] = tuple((None, int(v)) for v in rng.integers(0, model.num_labels, m))
        else:
            workers = sorted(table)
            votes[i] = tuple(
                (workers[int(rng.integers(0, len(workers)))], int(v))
                for v in rng.integers(0, model.num_labels, m)
            )
    return TaskSample(task_id="t0", votes=votes)


# --- EM one restart at a time, as fitted before restarts were stacked ---


def _ref_outcome_posterior(log_joint, truth):
    k = log_joint.shape[0]
    norm = logsumexp(log_joint, axis=0)
    with np.errstate(invalid="ignore"):
        q_y = np.exp(log_joint - norm)
    q_y = np.where(np.isfinite(norm), q_y, 1.0 / k)
    known = truth >= 0
    q_y[:, known] = np.eye(k)[:, truth[known]]
    at_truth = np.take_along_axis(log_joint, np.maximum(truth, 0)[None], axis=0)[0]
    return q_y, float(np.where(known, at_truth, norm).sum())


def _ref_estep(params, t, slots):
    prior, path_cpts, tables = params
    evidence = vote_evidence(t, slots.idx, log(tables))
    terms, f = path_factors(log(path_cpts), evidence)
    log_joint = apm_log_joints(log(prior), f, t.active)
    with np.errstate(invalid="ignore"):
        q_z = np.exp(terms - f[:, None])
    q_z = np.where(np.isfinite(f)[:, None], q_z, 1.0 / t.num_labels)
    q_y, loglik = _ref_outcome_posterior(log_joint, t.truth)
    return q_y, q_z, loglik


def _ref_penalty(params, alpha):
    if alpha == 0.0:
        return 0.0
    return float(alpha * sum(log(table).sum() for table in params))


def _ref_label_scatter(num_tables, table_idx, t, rows):
    k = t.num_labels
    counts = scatter_rows(table_idx * k + t.label, rows, num_tables * k)
    return np.ascontiguousarray(counts.reshape(k, num_tables, k).transpose(1, 0, 2))


def _ref_mstep(t, slots, q_y, q_z, alpha):
    norm = learning._normalize_rows
    prior = norm(task_sum(q_y) + alpha)
    joint = q_y[:, None, None, :] * q_z
    path_counts = np.ascontiguousarray(task_sum(joint).transpose(2, 0, 1)) + alpha
    r = label_sum(joint, axis=0).reshape(t.num_labels, -1)
    table_counts = _ref_label_scatter(len(slots.path), slots.idx, t, np.take(r, t.cells, axis=1))
    return prior, norm(path_counts), norm(table_counts + alpha)


def _ref_nbi_estep(params, t):
    prior, tables = params
    rows = label_columns(log(tables), t.worker_idx, t.label)
    log_joint = direct_log_joints(log(prior), t.sample_idx, rows, t.num_samples)
    return _ref_outcome_posterior(log_joint, t.truth)


def _ref_nbi_mstep(t, q_y, alpha):
    prior = learning._normalize_rows(task_sum(q_y) + alpha)
    counts = _ref_label_scatter(
        len(t.workers), t.worker_idx, t, np.take(q_y, t.sample_idx, axis=1)
    )
    return prior, learning._normalize_rows(counts + alpha)


def _ref_em(cfg, init, estep, mstep):
    best = None
    for restart in range(cfg.restarts):
        params, history, converged = init(restart), [], False
        for _ in range(cfg.max_iters):
            *posteriors, loglik = estep(params)
            objective = loglik + _ref_penalty(params, cfg.smoothing_alpha)
            if history and abs(objective - history[-1]) <= cfg.rel_tol * (abs(history[-1]) + 1e-12):
                history.append(objective)
                converged = True
                break
            history.append(objective)
            params = mstep(*posteriors)
        if best is None or history[-1] > best[1]["history"][-1]:
            best = (params, dict(iterations=len(history), converged=converged,
                                 restart_index=restart, history=tuple(history)))
    return best


def ref_em_fit(data, kind: str, cfg):
    """The winning parameters and report fields (iterations, converged,
    restart_index, history) of the EM fit behind `fit_em` (kind "shared" or
    "per-worker") or `fit_nbi` (kind "nbi"), computed as the package did
    before it stacked restarts: each restart runs to its end on its own."""
    alpha = cfg.smoothing_alpha
    if kind == "nbi":
        k = data.num_labels
        return _ref_em(
            cfg,
            lambda restart: (
                learning._init_prior(data.truth, k),
                learning._blended_identities(
                    len(data.workers), k, learning.substream(cfg.seed, "nbi-init", restart)
                ),
            ),
            lambda params: _ref_nbi_estep(params, data),
            lambda q_y: _ref_nbi_mstep(data, q_y, alpha),
        )
    slots = learning._slots(data, kind == "shared")
    return _ref_em(
        cfg,
        lambda restart: tuple(learning._init_params(data, slots, cfg, restart)),
        lambda params: _ref_estep(params, data, slots),
        lambda q_y, q_z: _ref_mstep(data, slots, q_y, q_z, alpha),
    )


# --- plan execution and fold scoring, one (strategy, budget) cell at a time ---


def ref_execute(table: Dataset, plan: AccessPlan, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """`evaluation._execute` as it was before its draws were replayed in arrays:
    one `rng.choice` call per drawn (task, path), on the task's stream."""
    s = table.stored
    counts = np.array([min(c, len(s) + 1) for c in plan.counts], dtype=np.int64)
    task, path = table.sample_idx[s], table.path_idx[s]
    start = np.flatnonzero(np.diff(task, prepend=-1) | np.diff(path, prepend=-1))
    have = np.diff(start, append=len(s))
    want = counts[path[start]]
    draw = (want > 0) & (want < have)
    keep = np.arange(len(s)) - np.repeat(start, have) < np.repeat(np.where(draw, 0, want), have)
    groups = np.flatnonzero(draw)
    owner = task[start[groups]]
    opens = np.diff(owner, prepend=-1) != 0
    streams = substreams(seed, ("exec",), [table.task_ids[t] for t in owner[opens].tolist()])
    for g, new in zip(groups.tolist(), opens.tolist()):
        rng = next(streams) if new else rng
        keep[start[g] + rng.choice(int(have[g]), size=int(want[g]), replace=False)] = True
    bought = np.empty_like(keep)
    bought[s] = keep
    filled = np.bincount(task[start[(want > 0) & (want <= have)]], minlength=len(table))
    return bought, filled < np.count_nonzero(counts)


def ref_score_fold(fold, train, test, kinds, strategies, budgets, ig_cfg, em_cfg, costs, seed):
    """`evaluation._score_fold` as it was before a fold's cells were scored in one
    stacked table: per cell, one `ref_execute`, two selections and one
    `table_posteriors` call per model kind."""
    apm_model, _ = fit_em(train, share_workers=True, cfg=em_cfg)
    apm_model = with_costs(apm_model, costs)
    if ModelKind.NBI in kinds:
        nbi_model, _ = fit_nbi(train, cfg=em_cfg)
        known = [w in nbi_model.worker_cpts for w in test.workers] + [False]
        nbi_rows = np.array(known, dtype=bool)[test.worker_idx]
    rows = []
    for strategy in strategies:
        for budget in budgets:
            plan = build_plan(
                strategy,
                apm_model,
                budget,
                seed=derive_seed(seed, "plan", fold, strategy.value, str(budget)),
                ig_cfg=ig_cfg,
            )
            cell_seed = derive_seed(seed, "exec", fold, strategy.value, str(budget))
            bought, short = ref_execute(test, plan.plan, cell_seed)
            kept = np.bincount(test.sample_idx[bought], minlength=test.num_samples) > 0
            short_filled = int(np.count_nonzero(kept & short))
            truth = test.truth[kept]
            executed = test.select(kept, bought)
            for kind in kinds:
                if kind is ModelKind.NBI:
                    model, votes = nbi_model, test.select(kept, bought & nbi_rows)
                else:
                    model, votes = apm_model, executed
                probs, pred, _ = table_posteriors(kind, model, votes)
                rows.append(
                    FoldRow(
                        model=kind.value,
                        strategy=strategy.value,
                        budget=budget,
                        fold=fold,
                        accuracy=_accuracy(pred, truth),
                        neg_log_likelihood=_neg_log_likelihood(probs[range(len(truth)), truth]),
                        tasks_evaluated=len(truth),
                        tasks_skipped=test.num_samples - len(truth),
                        tasks_short_filled=short_filled,
                    )
                )
    return rows


# --- alignment for recovery tests ---


def aligned_worst_row_l1(model: ApmModel, reference: ApmModel) -> float:
    """Smallest achievable worst-row L1 between learned and reference tables.

    Minimizes over the global outcome relabeling and an independent latent
    state relabeling per path, since both are unidentified in fitting.
    """
    k = model.num_labels
    n = model.num_paths
    best = math.inf
    for y_perm in itertools.permutations(range(k)):
        yp = np.array(y_perm)
        path_worst = []
        feasible = True
        for i in range(n):
            pc = model.path_cpts[i].rows[yp, :]
            wc = model.worker_cpts[i].rows
            ref_pc = reference.path_cpts[i].rows
            ref_wc = reference.worker_cpts[i].rows
            local = math.inf
            for z_perm in itertools.permutations(range(k)):
                zp = np.array(z_perm)
                cand_pc = pc[:, zp]
                cand_wc = wc[zp, :]
                worst = max(
                    float(np.abs(cand_pc - ref_pc).sum(axis=1).max()),
                    float(np.abs(cand_wc - ref_wc).sum(axis=1).max()),
                )
                local = min(local, worst)
            if not math.isfinite(local):
                feasible = False
                break
            path_worst.append(local)
        if feasible:
            best = min(best, max(path_worst))
    return best
