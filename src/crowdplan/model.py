"""Core model types: label spaces, conditional probability tables, access paths, datasets.

The access path model is a three-layer tree. A task's true label Y feeds one
latent quality node Z_i per access path, and each vote collected on path i is
drawn from its worker's table conditioned on Z_i. The latent node has the same
cardinality as the label space, so every table here is square.

Path costs are exact rationals. Budget feasibility is decided with integer
arithmetic, never with float comparisons, so a plan that spends the whole
budget is exactly affordable.

Types are frozen; array fields are marked read-only after construction.
`Cpt`, `ApmModel` and `NbiModel` compare and hash by identity; their values
compare through `model_to_dict` and `nbi_model_to_dict`.
Scalar fields are checked by their own types: `LabelSpace`, `AccessPathSpec`
(an exact cost above 0) and `AccessPlan` (integer counts, 0 or more). The
tables and the prior, which carry a tolerance, are reported together by
`validate_model`; loaders and fitters call it before handing a model out.

A `Dataset` is stored as flat vote columns, checked against its layout once
when `Dataset.tabulate` builds it. Folds and vote subsets are row selections
of it. `TaskSample` is a checked record of one task's votes, for code that
works task by task; no path in the package builds one.
"""

from __future__ import annotations

import json
import numbers
import operator
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import InputError, MissingWorkerCptError, ResourceLimitError

PROB_TOL = 1e-9
# The most cells one array built for a simulation, a sampled-IG block or a fit may have.
MAX_CELLS = 2**27


def _frozen_array(values, shape_hint: str, ndim: int) -> np.ndarray:
    # Its own copy: a caller's array stays writable, and later writes to it
    # cannot reach the model, whose content keys its exact tables.
    arr = np.array(values, dtype=np.float64)
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
        object.__setattr__(self, "cardinality", as_count(self.cardinality, "labels.cardinality", 2))
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


@dataclass(frozen=True, eq=False)
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
        if not np.isfinite(rows).all():
            return [f"{context}: non-finite entries"]
        out = []
        if not ((rows >= -PROB_TOL).all() and (rows <= 1 + PROB_TOL).all()):
            out.append(f"{context}: entries outside [0, 1]")
        for r, s in enumerate(rows.sum(axis=1).tolist()):
            if not abs(s - 1.0) <= PROB_TOL:
                out.append(f"{context}: row {r} sums to {s:.6g}")
        return out


@dataclass(frozen=True)
class AccessPathSpec:
    """Identity and unit price of one way of asking the crowd.

    Args:
        index: position of the path in the model, 0-based.
        cost: price of one vote on this path, above 0: anything `Fraction`
            reads, kept as that exact rational.
        name: optional display name.
    """

    index: int
    cost: Fraction
    name: str | None = None

    def __post_init__(self):
        cost = self.cost
        if not isinstance(cost, Fraction):  # fitting passes one shared Fraction to every path
            try:
                cost = Fraction(cost)
            except (OverflowError, TypeError, ValueError, ZeroDivisionError):
                raise InputError(f"path {self.index}: bad cost {cost!r}") from None
            object.__setattr__(self, "cost", cost)
        if cost.numerator <= 0:
            raise InputError(f"path {self.index}: non-positive cost {cost}")


WorkerCpts = Union[Cpt, Mapping[str, Cpt]]


@dataclass(frozen=True, eq=False)
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
    """How many votes to buy on each path: integers, 0 or more."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(as_count(c, "plan count") for c in self.counts))


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
        try:
            normal = {
                operator.index(p): tuple((w, operator.index(v)) for w, v in vs)
                for p, vs in self.votes.items()
                if len(vs) > 0
            }
        except TypeError:
            raise InputError(f"task {self.task_id}: path ids and labels must be integers") from None
        object.__setattr__(self, "votes", normal)
        if self.truth is not None:
            object.__setattr__(self, "truth", as_count(self.truth, f"task {self.task_id}: truth"))

    def votes_for(self, path: int) -> tuple[Vote, ...]:
        return self.votes.get(path, ())

    @property
    def total_votes(self) -> int:
        return sum(len(v) for v in self.votes.values())


@dataclass(frozen=True, eq=False, init=False)
class Dataset:
    """Tasks over a fixed path and label layout, stored as flat, checked vote columns.

    Rows are in canonical order: tasks by task id; within a task, votes by
    path, then worker id (votes without one first), then label. The order
    depends only on what the votes are, so every sum taken over the rows in
    order is the same, bit for bit, however the votes and tasks were stored.
    `order` and `stored` keep the stored order: tasks as given, then path,
    then each (task, path)'s votes as given.

    `tabulate` builds a table; `select` and `tiled` derive one from another.
    Tables are equal when their layouts, their tasks in stored order and each
    (task, path)'s votes in stored order are, each vote's worker compared by id.

    Fields:
        task_ids: the task ids, sorted.
        order: stored position of each task, shape (n,).
        truth: truth index per task, -1 when unknown, shape (n,).
        sample_idx, path_idx, worker_idx, label: one entry per vote, shape (V,);
            worker_idx indexes `workers`, -1 for a vote without a worker id.
        workers: the distinct worker ids, sorted.
        stored: the row of each vote in stored order, shape (V,).
    """

    num_paths: int
    num_labels: int
    task_ids: tuple[str, ...]
    order: np.ndarray
    truth: np.ndarray
    sample_idx: np.ndarray
    path_idx: np.ndarray
    worker_idx: np.ndarray
    label: np.ndarray
    workers: tuple[str, ...]
    stored: np.ndarray

    @classmethod
    def _of(cls, **columns) -> Dataset:
        for value in columns.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        data = cls.__new__(cls)
        data.__dict__.update(columns)
        return data

    def __len__(self) -> int:
        return len(self.task_ids)

    num_samples = property(__len__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented

        def key(table: Dataset) -> tuple[list, list]:
            c = table.stored_columns()
            worker_ids = c.pop("worker_ids")
            ids = [worker_ids[w] for w in c.pop("worker").tolist()]
            return ids, [v.tolist() if isinstance(v, np.ndarray) else v for v in c.values()]

        return key(self) == key(other)

    @classmethod
    def tabulate(
        cls, task_ids, truth, task, path, worker, label, worker_ids, num_labels, num_paths=None
    ) -> Dataset:
        """Sort votes given in stored order into a checked dataset.

        Task i has id `task_ids[i]` and truth `truth[i]` (-1 when unknown).
        Vote j belongs to task `task[j]`, lies on path `path[j]`, was cast by
        `worker_ids[worker[j]]` (None for no id) and has label `label[j]`.
        `num_paths=None` takes one more than the largest path index voted on.
        """
        seen: set = set()
        for tid in task_ids:
            if tid in seen:
                raise InputError(f"duplicate task id {tid!r}")
            seen.add(tid)
        by_id = np.array(sorted(range(len(task_ids)), key=task_ids.__getitem__), dtype=np.int64)
        rank = np.empty_like(by_id)
        rank[by_id] = np.arange(len(by_id))
        workers = tuple(sorted({w for w in worker_ids if w is not None}))
        index = {w: j for j, w in enumerate(workers)}
        columns = [np.asarray(c) for c in (truth, task, path, worker, label)]
        sizes = (len(task_ids),) + (len(columns[1]),) * 4
        for name, column, size in zip(("truth", "task", "path", "worker", "label"), columns, sizes):
            if column.size and column.dtype.kind not in "biu":
                raise InputError(f"{name} column must hold integers, got dtype {column.dtype}")
            if len(column) != size:
                raise InputError(f"{name} column has {len(column)} entries, expected {size}")
        truth, task, path, worker, label = (c.astype(np.int64, copy=False) for c in columns)
        for name, column, ids in (("task", task, task_ids), ("worker", worker, worker_ids)):
            bad = (column < 0) | (column >= len(ids))
            if bad.any():
                raise InputError(
                    f"{name} column: index {column[np.argmax(bad)]} outside 0..{len(ids) - 1}"
                )
        worker = np.array([index.get(w, -1) for w in worker_ids], dtype=np.int64)[worker]
        canon = np.lexsort((label, worker, path, rank[task]))
        row_of = np.empty_like(canon)
        row_of[canon] = np.arange(len(canon))
        num_labels = as_count(num_labels, "num_labels", 1)
        if num_paths is None:
            num_paths = int(path.max(initial=-1)) + 1
        num_paths = as_count(num_paths, "num_paths")
        return cls._of(
            num_paths=num_paths,
            num_labels=num_labels,
            task_ids=tuple(task_ids[i] for i in by_id.tolist()),
            order=by_id,
            truth=truth[by_id],
            sample_idx=rank[task][canon],
            path_idx=path[canon],
            worker_idx=worker[canon],
            label=label[canon],
            workers=workers,
            stored=row_of[np.lexsort((path, task))],
        )._checked()

    def stored_columns(self) -> dict:
        """The arguments of `tabulate` that rebuild this table."""
        by_pos, s = np.argsort(self.order), self.stored
        return dict(
            task_ids=[self.task_ids[r] for r in by_pos.tolist()],
            truth=self.truth[by_pos],
            task=self.order[self.sample_idx[s]],
            path=self.path_idx[s],
            worker=self.worker_idx[s] + 1,
            label=self.label[s],
            worker_ids=(None,) + self.workers,
            num_labels=self.num_labels,
            num_paths=self.num_paths,
        )

    def _checked(self) -> Dataset:
        """Self, once every path, label and truth lies inside the layout."""
        for task, value, low, limit, what in (
            (self.sample_idx, self.path_idx, 0, self.num_paths, "path index"),
            (self.sample_idx, self.label, 0, self.num_labels, "label"),
            (np.arange(self.num_samples), self.truth, -1, self.num_labels, "truth"),
        ):
            bad = (value < low) | (value >= limit)
            if bad.any():
                j = int(np.argmax(bad))
                raise InputError(
                    f"task {self.task_ids[task[j]]}: {what} {value[j]} outside 0..{limit - 1}"
                )
        return self

    def within(self, num_labels: int, num_paths: int | None = None) -> Dataset:
        """This table checked against, and laid out for, a model's labels and paths."""
        num_paths = self.num_paths if num_paths is None else num_paths
        if (num_labels, num_paths) == (self.num_labels, self.num_paths):
            return self
        columns = {f.name: getattr(self, f.name) for f in fields(self)}
        columns.update(num_labels=num_labels, num_paths=num_paths)
        return Dataset._of(**columns)._checked()

    def select(self, tasks: np.ndarray, rows: np.ndarray | None = None) -> Dataset:
        """The tasks in mask `tasks` with those of their votes in mask `rows`.

        Both orders carry over, so nothing is sorted. `workers` keeps the ids
        still voting; a selected task may be left without votes.
        """
        keep = tasks[self.sample_idx] if rows is None else rows & tasks[self.sample_idx]
        voting = np.zeros(len(self.workers) + 1, dtype=bool)
        voting[self.worker_idx[keep]] = True  # the last entry stands for no id
        worker_of = np.append(np.cumsum(voting[:-1]) - 1, -1)
        return Dataset._of(
            num_paths=self.num_paths,
            num_labels=self.num_labels,
            task_ids=tuple(compress(self.task_ids, tasks)),
            order=np.argsort(np.argsort(self.order[tasks])),
            truth=self.truth[tasks],
            sample_idx=(np.cumsum(tasks) - 1)[self.sample_idx[keep]],
            path_idx=self.path_idx[keep],
            worker_idx=worker_of[self.worker_idx[keep]],
            label=self.label[keep],
            workers=tuple(compress(self.workers, voting)),
            stored=(np.cumsum(keep) - 1)[self.stored[keep[self.stored]]],
        )

    def tiled(self, copies: int) -> Dataset:
        """`copies` copies of the table, one after another in both orders.

        Copy c of a task gets the id `c:id`, c zero-padded to one width, so
        the ids stay distinct and sort copy by copy; copy c's tasks and votes
        are those of index i at c * n + i and c * V + i.
        """
        width = len(str(copies - 1))
        copy = np.arange(copies)[:, None]
        n, v = len(self), len(self.stored)
        return Dataset._of(
            num_paths=self.num_paths,
            num_labels=self.num_labels,
            task_ids=tuple(f"{c:0{width}d}:{t}" for c in range(copies) for t in self.task_ids),
            order=(copy * n + self.order).reshape(-1),
            truth=np.tile(self.truth, copies),
            sample_idx=(copy * n + self.sample_idx).reshape(-1),
            path_idx=np.tile(self.path_idx, copies),
            worker_idx=np.tile(self.worker_idx, copies),
            label=np.tile(self.label, copies),
            workers=self.workers,
            stored=(copy * v + self.stored).reshape(-1),
        )

    def first_unlabeled(self) -> str | None:
        """The id of the first task, in stored order, without a truth."""
        missing = np.flatnonzero(self.truth < 0)
        return self.task_ids[missing[np.argmin(self.order[missing])]] if len(missing) else None

    @cached_property
    def cells(self) -> np.ndarray:
        """The path-major (path, task) cell of each vote, path * n + task, shape (V,)."""
        return self.path_idx * self.num_samples + self.sample_idx

    @cached_property
    def active(self) -> np.ndarray:
        """(N, n) mask of the (path, task) cells holding at least one vote."""
        out = np.zeros(self.num_paths * self.num_samples, dtype=bool)
        out[self.cells] = True
        return out.reshape(self.num_paths, self.num_samples)

    def path_worker_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct (path, worker index) pairs, sorted, and each vote's pair index.

        Keyed in 1-D by dense path code * (workers + 1) + worker + 1, which cannot overflow."""
        paths, code = np.unique(self.path_idx, return_inverse=True)
        width = len(self.workers) + 1
        keys, idx = np.unique(code * width + self.worker_idx + 1, return_inverse=True)
        return np.stack([paths[keys // width], keys % width - 1], axis=1), idx


def path_costs(costs: Sequence[Fraction | int | str], num_paths: int) -> tuple[Fraction, ...]:
    """Exact per-path costs, each checked as `AccessPathSpec` checks it."""
    if len(costs) != num_paths:
        raise InputError(f"{len(costs)} costs for {num_paths} paths")
    return tuple(AccessPathSpec(i, cost).cost for i, cost in enumerate(costs))


def with_costs(model: ApmModel, costs: Sequence[Fraction | int | str]) -> ApmModel:
    """Copy of a model with new path costs, each positive."""
    costs = path_costs(costs, model.num_paths)
    return replace(model, paths=tuple(replace(p, cost=c) for p, c in zip(model.paths, costs)))


def with_labels(model: ApmModel | NbiModel, labels: LabelSpace) -> ApmModel | NbiModel:
    """Copy of a model with a different label space (same cardinality)."""
    if not isinstance(labels, LabelSpace):
        raise InputError(f"expected a LabelSpace, got {labels!r}")
    if labels.cardinality != model.num_labels:
        raise InputError("label cardinality mismatch")
    return replace(model, labels=labels)


def as_count(value, what: str, low: int = 0) -> int:
    """`value` as an int of at least `low`; ints, numpy ints and bools are ints."""
    try:
        out = operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None
    if out < low:
        raise InputError(f"{what} must be >= {low}, got {out}")
    return out


def as_real(value, what: str):
    """`value`, once it is a real number other than NaN (ints, fractions and numpy
    numbers count); anything else is an InputError."""
    if not isinstance(value, numbers.Real) or value != value:
        raise InputError(f"{what} must be a real number, got {value!r}")
    return value


def as_config(cfg, cls):
    """`cfg`, or a default `cls()` for None; anything else that is not a `cls` is an InputError."""
    if cfg is None:
        return cls()
    if not isinstance(cfg, cls):
        raise InputError(f"expected a {cls.__name__} or None, got {cfg!r}")
    return cfg


def check_cells(cells: int, what: str) -> None:
    """Raise ResourceLimitError before `what` builds an array of more than MAX_CELLS cells."""
    if cells > MAX_CELLS:
        raise ResourceLimitError(f"{what} needs {cells} array cells, limit is {MAX_CELLS}")


def member(cls, value, what: str):
    """The member of enum `cls` whose value is `value`; an unknown value is an InputError."""
    try:
        return cls(value)
    except ValueError:
        choices = ", ".join(m.value for m in cls)
        raise InputError(f"unknown {what} {value!r}; choose from {choices}") from None


def as_counts(plan: AccessPlan | Sequence[int], num_paths: int) -> tuple[int, ...]:
    """A plan argument's checked counts, one per path."""
    counts = (plan if isinstance(plan, AccessPlan) else AccessPlan(plan)).counts
    if len(counts) != num_paths:
        raise InputError(f"plan has {len(counts)} entries for {num_paths} paths")
    return counts


def plan_cost(model: ApmModel, plan: AccessPlan | Sequence[int]) -> Fraction:
    """Exact total price of a plan: sum of count * unit cost over paths."""
    counts = as_counts(plan, model.num_paths)
    total = Fraction(0)
    for spec, c in zip(model.paths, counts):
        total += spec.cost * c
    return total


def validate_model(model: ApmModel) -> list[str]:
    """Check every model invariant; return human-readable violations, empty if sound.

    Anything but an `ApmModel` is an InputError."""
    if not isinstance(model, ApmModel):
        raise InputError(f"expected an ApmModel, got {model!r}")
    k = model.num_labels
    out = _prior_violations(model.prior, k)
    sound: set[int] = set()
    if not model.paths:
        out.append("model has no access paths")
    for i, spec in enumerate(model.paths):
        where = f"path {i}"
        if spec.index != i:
            out.append(f"{where}: spec index {spec.index} does not match position")
        out.extend(_table_violations({"path CPT": model.path_cpts[i]}, k, where, sound))
        wc = model.worker_cpts[i]
        tables = {"shared": wc} if isinstance(wc, Cpt) else dict(wc)
        if not tables:
            out.append(f"{where}: no worker CPTs")
        out.extend(_table_violations(tables, k, f"{where} worker", sound))
    return out


def _prior_violations(prior: np.ndarray, k: int) -> list[str]:
    if prior.shape != (k,):
        return [f"prior: expected length {k}, got shape {prior.shape}"]
    return Cpt(prior[None, :]).violations("prior")


def _table_violations(
    tables: Mapping[str, Cpt], k: int, where: str, sound: set[int]
) -> list[str]:
    """Violations of each table; `sound` holds the ids of tables already found sound.

    A table object shared by many places (fitting gives every voteless path
    one uniform table) is checked once. An unsound one is reported wherever
    it appears.
    """
    out = []
    for name, t in tables.items():
        if id(t) in sound:
            continue
        if t.shape != (k, k):
            out.append(f"{where} {name}: shape {t.shape}, expected {(k, k)}")
            continue
        found = t.violations(f"{where} {name}")
        if not found:
            sound.add(id(t))
        out.extend(found)
    return out


@dataclass(frozen=True, eq=False)
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


def _doc(kind: str, model: ApmModel | NbiModel) -> dict:
    """The head of a model document: its kind, its labels and its prior."""
    labels: dict = {"cardinality": model.num_labels}
    if model.labels.names is not None:
        labels["names"] = list(model.labels.names)
    return {"kind": kind, "labels": labels, "prior": model.prior.tolist()}


def nbi_model_to_dict(model: NbiModel) -> dict:
    doc = _doc("nbi", model)
    doc["workers"] = {w: t.rows.tolist() for w, t in sorted(model.worker_cpts.items())}
    doc["sparse_workers"] = sorted(model.sparse_workers)
    return doc


def _mapping(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise InputError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _labels_from(doc: Mapping) -> LabelSpace:
    labels = _mapping(doc["labels"], "labels")
    names = labels.get("names")
    if names is not None and not (
        isinstance(names, list) and all(isinstance(n, str) for n in names)
    ):
        raise InputError("labels.names must be a list of strings")
    return LabelSpace(
        cardinality=labels["cardinality"],
        names=tuple(names) if names is not None else None,
    )


def nbi_model_from_dict(doc: Mapping) -> NbiModel:
    try:
        model = NbiModel(
            labels=_labels_from(doc),
            prior=np.asarray(doc["prior"], dtype=np.float64),
            worker_cpts={
                str(w): Cpt(rows) for w, rows in _mapping(doc["workers"], "workers").items()
            },
            sparse_workers=frozenset(doc.get("sparse_workers", ())),
        )
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"malformed nbi model document: {exc}") from None
    problems = _prior_violations(model.prior, model.num_labels) + _table_violations(
        model.worker_cpts, model.num_labels, "worker", set()
    )
    if problems:
        raise InputError("invalid nbi model: " + "; ".join(problems))
    return model


def model_to_dict(model: ApmModel) -> dict:
    """Plain-JSON form of a model. Floats keep full precision via repr."""
    doc = _doc("apm", model)
    doc["paths"] = []
    for i, spec in enumerate(model.paths):
        entry: dict = {
            "id": i,
            "cost": str(spec.cost),
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
            entry = _mapping(entry, f"path entry {i}")
            if int(entry["id"]) != i:
                raise InputError(f"path entry {i} has id {entry['id']}")
            paths.append(AccessPathSpec(index=i, cost=str(entry["cost"]), name=entry.get("name")))
            path_cpts.append(Cpt(entry["path_cpt"]))
            if "shared_cpt" in entry:
                worker_cpts.append(Cpt(entry["shared_cpt"]))
            elif "worker_cpts" in entry:
                tables = _mapping(entry["worker_cpts"], f"path {i} worker_cpts")
                worker_cpts.append({str(w): Cpt(rows) for w, rows in tables.items()})
            else:
                raise InputError(f"path {i}: neither shared_cpt nor worker_cpts present")
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
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
    """Write a model file; a path that cannot be written is an InputError."""
    doc = nbi_model_to_dict(model) if isinstance(model, NbiModel) else model_to_dict(model)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


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
    if not isinstance(kind, str) or kind not in _LOADERS:
        raise InputError(f"unknown model kind {kind!r} in file")
    if kind not in kinds:
        raise InputError(f"expected {' or '.join(kinds)} model file, got kind {kind!r}")
    return _LOADERS[kind](doc)
