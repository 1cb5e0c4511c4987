"""Core model types: label spaces, conditional probability tables, access paths.

The access path model is a three-layer tree. A task's true label Y feeds one
latent quality node Z_i per access path, and each vote collected on path i is
drawn from its worker's table conditioned on Z_i. The latent node has the same
cardinality as the label space, so every table here is square.

Path costs are exact rationals. Budget feasibility is decided with integer
arithmetic, never with float comparisons, so a plan that spends the whole
budget is exactly affordable.

Types are frozen; array fields are marked read-only after construction. Value
level checks (row sums, cost positivity) live in `validate_model` so that a
broken model can be constructed, inspected, and reported on -- loaders and
fitters call it before handing a model out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import InputError, MissingWorkerCptError

PROB_TOL = 1e-9


def _frozen_array(values, shape_hint: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise InputError(f"{shape_hint}: expected {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LabelSpace:
    """The set of possible task outcomes.

    Args:
        cardinality: number of outcome values, at least 2.
        names: optional human-readable name per outcome, unique when present.
    """

    cardinality: int
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.cardinality < 2:
            raise InputError(f"label cardinality must be >= 2, got {self.cardinality}")
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != self.cardinality:
                raise InputError(
                    f"{len(self.names)} label names for cardinality {self.cardinality}"
                )
            if len(set(self.names)) != len(self.names):
                raise InputError("label names must be unique")

    def index_of(self, name: str) -> int:
        if self.names is None:
            raise InputError("label space has no names")
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown label {name!r}") from None


@dataclass(frozen=True)
class Cpt:
    """A conditional probability table, one distribution per row."""

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _frozen_array(self.rows, "Cpt.rows", 2))

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape  # type: ignore[return-value]

    def violations(self, context: str) -> list[str]:
        # Every check is written so that NaN fails it.
        rows = self.rows
        if not np.all(np.isfinite(rows)):
            return [f"{context}: non-finite entries"]
        out = []
        if not (np.all(rows >= -PROB_TOL) and np.all(rows <= 1 + PROB_TOL)):
            out.append(f"{context}: entries outside [0, 1]")
        for r, s in enumerate(rows.sum(axis=1)):
            if not abs(s - 1.0) <= PROB_TOL:
                out.append(f"{context}: row {r} sums to {s:.6g}")
        return out


@dataclass(frozen=True)
class AccessPathSpec:
    """Identity and unit price of one way of asking the crowd.

    Args:
        index: position of the path in the model, 0-based.
        cost: exact price of one vote on this path.
        name: optional display name.
    """

    index: int
    cost: Fraction
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "cost", Fraction(self.cost))


WorkerCpts = Union[Cpt, Mapping[str, Cpt]]


@dataclass(frozen=True)
class ApmModel:
    """Full parameter set of the access path model.

    Fields:
        labels: the outcome space.
        prior: class prior over outcomes, length K.
        paths: per-path specs, index i at position i.
        path_cpts: per-path K x K tables p(z | y); row = outcome, column = latent state.
        worker_cpts: per path, either one shared K x K table p(x | z) applied to
            every vote, or a mapping from worker id to that worker's table.
    """

    labels: LabelSpace
    prior: np.ndarray
    paths: tuple[AccessPathSpec, ...]
    path_cpts: tuple[Cpt, ...]
    worker_cpts: tuple[WorkerCpts, ...]

    def __post_init__(self):
        object.__setattr__(self, "prior", _frozen_array(self.prior, "prior", 1))
        object.__setattr__(self, "paths", tuple(self.paths))
        object.__setattr__(self, "path_cpts", tuple(self.path_cpts))
        object.__setattr__(self, "worker_cpts", tuple(self.worker_cpts))
        if not (len(self.paths) == len(self.path_cpts) == len(self.worker_cpts)):
            raise InputError("paths, path_cpts and worker_cpts must align")

    @property
    def num_labels(self) -> int:
        return self.labels.cardinality

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @property
    def costs(self) -> tuple[Fraction, ...]:
        return tuple(p.cost for p in self.paths)

    def is_shared(self, path: int) -> bool:
        return isinstance(self.worker_cpts[path], Cpt)

    def vote_cpt(self, path: int, worker_id: str | None) -> Cpt:
        """The table governing one vote on `path` cast by `worker_id`."""
        table = self.worker_cpts[path]
        if isinstance(table, Cpt):
            return table
        if worker_id is None or worker_id not in table:
            raise MissingWorkerCptError(str(worker_id), path)
        return table[worker_id]


@dataclass(frozen=True)
class AccessPlan:
    """How many votes to buy on each path."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if any(c < 0 for c in counts):
            raise InputError(f"plan counts must be non-negative, got {counts}")

    @property
    def total_votes(self) -> int:
        return sum(self.counts)


Vote = tuple[Union[str, None], int]


@dataclass(frozen=True)
class TaskSample:
    """One task's collected votes, grouped by access path.

    `votes` maps path index to the votes gathered there, each a
    (worker id or None, label index) pair. `truth` is the gold label when known.
    """

    task_id: str
    votes: Mapping[int, tuple[Vote, ...]]
    truth: int | None = None

    def __post_init__(self):
        normal = {
            int(p): tuple((w, int(v)) for w, v in vs)
            for p, vs in self.votes.items()
            if len(vs) > 0
        }
        object.__setattr__(self, "votes", normal)

    def votes_for(self, path: int) -> tuple[Vote, ...]:
        return self.votes.get(path, ())

    @property
    def total_votes(self) -> int:
        return sum(len(v) for v in self.votes.values())


@dataclass(frozen=True)
class Dataset:
    """A collection of task samples over a fixed path and label layout."""

    samples: tuple[TaskSample, ...]
    num_paths: int
    num_labels: int

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        seen: set[str] = set()
        for s in self.samples:
            if s.task_id in seen:
                raise InputError(f"duplicate task id {s.task_id!r}")
            seen.add(s.task_id)
            for p, votes in s.votes.items():
                if not 0 <= p < self.num_paths:
                    raise InputError(f"task {s.task_id}: path index {p} out of range")
                for _, v in votes:
                    if not 0 <= v < self.num_labels:
                        raise InputError(f"task {s.task_id}: label {v} out of range")
            if s.truth is not None and not 0 <= s.truth < self.num_labels:
                raise InputError(f"task {s.task_id}: truth {s.truth} out of range")

    def __len__(self) -> int:
        return len(self.samples)

    def vote_table(self) -> VoteTable:
        """The dataset's votes as a canonical columnar table."""
        return VoteTable.build(self.samples, self.num_labels, self.num_paths)


@dataclass(frozen=True, eq=False)
class VoteTable:
    """The votes of a set of tasks as flat columns, in canonical order.

    Tasks are ordered by task id; within a task, votes are ordered by path,
    then worker id (votes without one first), then label. The order depends
    only on what the votes are, so every sum taken over the table in row order
    is the same, bit for bit, however the votes and tasks were stored.

    Fields:
        order: input position of each task, shape (n,).
        truth: truth index per task, -1 when unknown, shape (n,).
        sample_idx, path_idx, worker_idx, label: one entry per vote, shape (V,);
            worker_idx indexes `workers`, -1 for a vote without a worker id.
        workers: the distinct worker ids, sorted.
    """

    num_paths: int
    num_labels: int
    order: np.ndarray
    truth: np.ndarray
    sample_idx: np.ndarray
    path_idx: np.ndarray
    worker_idx: np.ndarray
    label: np.ndarray
    workers: tuple[str, ...]

    @classmethod
    def build(
        cls, samples: Sequence[TaskSample], num_labels: int, num_paths: int | None = None
    ) -> VoteTable:
        """Tabulate the votes of `samples` and check them against the layout.

        `num_paths=None` takes one more than the largest path index voted on.
        """
        order = sorted(range(len(samples)), key=lambda i: samples[i].task_id)
        tasks = [samples[i] for i in order]
        ids = [
            None if w is None else str(w) for s in tasks for vs in s.votes.values() for w, _ in vs
        ]
        workers = tuple(sorted(set(ids) - {None}))
        index = {None: -1, **{w: j for j, w in enumerate(workers)}}
        flat = [
            x for r, s in enumerate(tasks) for p, vs in s.votes.items() for _, v in vs for x in (r, p, v)
        ]
        cols = np.empty((len(ids), 4), dtype=np.int64)
        cols[:, [0, 1, 3]] = np.array(flat, dtype=np.int64).reshape(-1, 3)
        cols[:, 2] = [index[w] for w in ids]
        cols = cols[np.lexsort(cols.T[::-1])]
        truth = np.array([-1 if s.truth is None else s.truth for s in tasks], dtype=np.int64)
        if num_paths is None:
            num_paths = int(cols[:, 1].max()) + 1 if len(cols) else 0
        for col, limit, what in ((1, num_paths, "path index"), (3, num_labels, "label")):
            bad = (cols[:, col] < 0) | (cols[:, col] >= limit)
            if bad.any():
                r, value = cols[np.argmax(bad), [0, col]]
                raise InputError(
                    f"task {tasks[r].task_id}: {what} {value} outside 0..{limit - 1}"
                )
        return cls(
            num_paths=num_paths,
            num_labels=num_labels,
            order=np.asarray(order, dtype=np.int64),
            truth=truth,
            sample_idx=cols[:, 0],
            path_idx=cols[:, 1],
            worker_idx=cols[:, 2],
            label=cols[:, 3],
            workers=workers,
        )

    @property
    def num_samples(self) -> int:
        return len(self.order)

    @cached_property
    def active(self) -> np.ndarray:
        """(n, N) mask of the (task, path) cells holding at least one vote."""
        out = np.zeros((self.num_samples, self.num_paths), dtype=bool)
        out[self.sample_idx, self.path_idx] = True
        return out

    def path_worker_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct (path, worker index) pairs, sorted, and each vote's pair index."""
        pairs, idx = np.unique(
            np.stack([self.path_idx, self.worker_idx], axis=1), axis=0, return_inverse=True
        )
        return pairs, idx.reshape(-1)


def with_costs(model: ApmModel, costs: Sequence[Fraction | int | str]) -> ApmModel:
    """Copy of a model with new path costs."""
    if len(costs) != model.num_paths:
        raise InputError(f"{len(costs)} costs for {model.num_paths} paths")
    return replace(model, paths=tuple(replace(p, cost=c) for p, c in zip(model.paths, costs)))


def with_labels(model: ApmModel, labels: LabelSpace) -> ApmModel:
    """Copy of a model with a different label space (same cardinality)."""
    if labels.cardinality != model.num_labels:
        raise InputError("label cardinality mismatch")
    return replace(model, labels=labels)


def as_counts(plan: AccessPlan | Sequence[int], num_paths: int) -> tuple[int, ...]:
    """Coerce a plan argument to a validated counts tuple of length num_paths."""
    counts = plan.counts if isinstance(plan, AccessPlan) else tuple(int(c) for c in plan)
    if len(counts) != num_paths:
        raise InputError(f"plan has {len(counts)} entries for {num_paths} paths")
    if any(c < 0 for c in counts):
        raise InputError(f"plan counts must be non-negative, got {counts}")
    return counts


def plan_cost(model: ApmModel, plan: AccessPlan | Sequence[int]) -> Fraction:
    """Exact total price of a plan: sum of count * unit cost over paths."""
    counts = as_counts(plan, model.num_paths)
    total = Fraction(0)
    for spec, c in zip(model.paths, counts):
        total += spec.cost * c
    return total


def validate_model(model: ApmModel) -> list[str]:
    """Check every model invariant; return human-readable violations, empty if sound."""
    k = model.num_labels
    out = _prior_violations(model.prior, k)
    for i, spec in enumerate(model.paths):
        where = f"path {i}"
        if spec.index != i:
            out.append(f"{where}: spec index {spec.index} does not match position")
        if spec.cost <= 0:
            out.append(f"{where}: non-positive cost {spec.cost}")
        out.extend(_table_violations({"path CPT": model.path_cpts[i]}, k, where))
        wc = model.worker_cpts[i]
        tables = {"shared": wc} if isinstance(wc, Cpt) else dict(wc)
        if not tables:
            out.append(f"{where}: no worker CPTs")
        out.extend(_table_violations(tables, k, f"{where} worker"))
    names = model.labels.names
    if names is not None and len(set(names)) != len(names):
        out.append("label names not unique")
    return out


def _prior_violations(prior: np.ndarray, k: int) -> list[str]:
    if prior.shape != (k,):
        return [f"prior: expected length {k}, got shape {prior.shape}"]
    return Cpt(prior[None, :]).violations("prior")


def _table_violations(tables: Mapping[str, Cpt], k: int, where: str) -> list[str]:
    out = []
    for name, t in tables.items():
        if t.shape != (k, k):
            out.append(f"{where} {name}: shape {t.shape}, expected {(k, k)}")
        else:
            out.extend(t.violations(f"{where} {name}"))
    return out


@dataclass(frozen=True)
class NbiModel:
    """Per-worker naive Bayes parameters: votes depend on the outcome directly.

    There is no path layer here. Each worker w has one K x K table p(x | y);
    workers flagged sparse were seen too rarely to estimate and carry smoothed
    uniform tables.
    """

    labels: LabelSpace
    prior: np.ndarray
    worker_cpts: Mapping[str, Cpt]
    sparse_workers: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "prior", _frozen_array(self.prior, "prior", 1))
        object.__setattr__(self, "worker_cpts", dict(self.worker_cpts))
        object.__setattr__(self, "sparse_workers", frozenset(self.sparse_workers))

    @property
    def num_labels(self) -> int:
        return self.labels.cardinality

    def vote_cpt(self, worker_id: str | None) -> Cpt:
        if worker_id is None or worker_id not in self.worker_cpts:
            raise MissingWorkerCptError(str(worker_id))
        return self.worker_cpts[worker_id]


def nbi_model_to_dict(model: NbiModel) -> dict:
    doc: dict = {
        "kind": "nbi",
        "labels": {"cardinality": model.num_labels},
        "prior": model.prior.tolist(),
        "workers": {w: t.rows.tolist() for w, t in sorted(model.worker_cpts.items())},
        "sparse_workers": sorted(model.sparse_workers),
    }
    if model.labels.names is not None:
        doc["labels"]["names"] = list(model.labels.names)
    return doc


def _labels_from(doc: Mapping) -> LabelSpace:
    names = doc["labels"].get("names")
    return LabelSpace(
        cardinality=int(doc["labels"]["cardinality"]),
        names=tuple(names) if names is not None else None,
    )


def nbi_model_from_dict(doc: Mapping) -> NbiModel:
    try:
        model = NbiModel(
            labels=_labels_from(doc),
            prior=np.asarray(doc["prior"], dtype=np.float64),
            worker_cpts={str(w): Cpt(rows) for w, rows in doc["workers"].items()},
            sparse_workers=frozenset(doc.get("sparse_workers", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed nbi model document: {exc}") from None
    problems = _prior_violations(model.prior, model.num_labels) + _table_violations(
        model.worker_cpts, model.num_labels, "worker"
    )
    if problems:
        raise InputError("invalid nbi model: " + "; ".join(problems))
    return model


def _cost_to_str(cost: Fraction) -> str:
    if cost.denominator == 1:
        return str(cost.numerator)
    return f"{cost.numerator}/{cost.denominator}"


def _cost_from_str(text: str) -> Fraction:
    try:
        cost = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad cost {text!r}: {exc}") from None
    return cost


def model_to_dict(model: ApmModel) -> dict:
    """Plain-JSON form of a model. Floats keep full precision via repr."""
    doc: dict = {
        "kind": "apm",
        "labels": {"cardinality": model.num_labels},
        "prior": model.prior.tolist(),
        "paths": [],
    }
    if model.labels.names is not None:
        doc["labels"]["names"] = list(model.labels.names)
    for i, spec in enumerate(model.paths):
        entry: dict = {
            "id": i,
            "cost": _cost_to_str(spec.cost),
            "path_cpt": model.path_cpts[i].rows.tolist(),
        }
        if spec.name is not None:
            entry["name"] = spec.name
        wc = model.worker_cpts[i]
        if isinstance(wc, Cpt):
            entry["shared_cpt"] = wc.rows.tolist()
        else:
            entry["worker_cpts"] = {wid: t.rows.tolist() for wid, t in sorted(wc.items())}
        doc["paths"].append(entry)
    return doc


def model_from_dict(doc: Mapping) -> ApmModel:
    try:
        labels = _labels_from(doc)
        prior = np.asarray(doc["prior"], dtype=np.float64)
        paths = []
        path_cpts = []
        worker_cpts: list[WorkerCpts] = []
        for i, entry in enumerate(doc["paths"]):
            if int(entry["id"]) != i:
                raise InputError(f"path entry {i} has id {entry['id']}")
            paths.append(
                AccessPathSpec(
                    index=i, cost=_cost_from_str(str(entry["cost"])), name=entry.get("name")
                )
            )
            path_cpts.append(Cpt(entry["path_cpt"]))
            if "shared_cpt" in entry:
                worker_cpts.append(Cpt(entry["shared_cpt"]))
            elif "worker_cpts" in entry:
                worker_cpts.append(
                    {str(w): Cpt(rows) for w, rows in entry["worker_cpts"].items()}
                )
            else:
                raise InputError(f"path {i}: neither shared_cpt nor worker_cpts present")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model document: {exc}") from None
    model = ApmModel(
        labels=labels,
        prior=prior,
        paths=tuple(paths),
        path_cpts=tuple(path_cpts),
        worker_cpts=tuple(worker_cpts),
    )
    problems = validate_model(model)
    if problems:
        raise InputError("invalid model: " + "; ".join(problems))
    return model


def save_model(model: ApmModel | NbiModel, path: str) -> None:
    doc = nbi_model_to_dict(model) if isinstance(model, NbiModel) else model_to_dict(model)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


_LOADERS = {"apm": model_from_dict, "nbi": nbi_model_from_dict}


def load_model(path: str, kinds: Sequence[str] = ("apm",)) -> ApmModel | NbiModel:
    """Read a model file and build the model its `kind` field names (apm when absent).

    Only files of a kind listed in `kinds` are accepted.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read model file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("model file must hold a JSON object")
    kind = doc.get("kind", "apm")
    if kind not in _LOADERS:
        raise InputError(f"unknown model kind {kind!r} in file")
    if kind not in kinds:
        raise InputError(f"expected {' or '.join(kinds)} model file, got kind {kind!r}")
    return _LOADERS[kind](doc)
