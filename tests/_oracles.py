"""Independent reference implementations used to check the package's numerics.

Everything here works by brute force in plain Python arithmetic: full-joint
enumeration over (outcome, every latent path state), raw enumeration over all
vote assignments for conditional entropy, and naive products for the
independence-assuming posteriors. Nothing imports the package's inference or
information-gain code paths, except `whole_array_exact_conditional_entropy`:
a former implementation kept as the bit-for-bit reference for the blocked one,
which must share the package's tables and kernels to share its bits.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from crowdplan._kernel import log, logsumexp
from crowdplan.infogain import _count_vector_table
from crowdplan.model import (
    AccessPathSpec,
    ApmModel,
    Cpt,
    LabelSpace,
    TaskSample,
)


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
    """H(Y | X_S) as `exact_conditional_entropy` computed it before it scored
    row blocks: the whole enumeration as one (V, K) array, each path's terms
    added in path order, `logsumexp` over its strided label axis. Its tables
    are taken row-major, as it took them: numpy lays out an elementwise
    result after its inputs and sums an array in memory order, so a
    column-major table would change the last bits of its sums."""
    k = model.num_labels
    log_terms = log(model.prior)[None, :]
    log_mult = np.zeros(1)
    for i, s_i in enumerate(counts):
        if s_i == 0:
            continue
        log_c, factor = _count_vector_table(model, i, s_i)
        factor = np.ascontiguousarray(factor.T)
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
