"""Reading and writing vote files.

The on-disk vote format is CSV with header task_id,path_id,worker_id,vote,truth.
Labels in files are strings; they map to dense indices in order of first
appearance (scanning rows top to bottom, vote column before truth column), and
that mapping travels with any model learned from the file.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

from .errors import InputError
from .model import Dataset, TaskSample, Vote

VOTES_HEADER = ("task_id", "path_id", "worker_id", "vote", "truth")


class _LabelMapper:
    def __init__(self, fixed: Sequence[str] | None):
        self.fixed = fixed is not None
        self.names: list[str] = list(fixed) if fixed is not None else []
        self.index = {n: i for i, n in enumerate(self.names)}

    def get(self, name: str, line: int) -> int:
        if name in self.index:
            return self.index[name]
        if self.fixed:
            raise InputError(f"line {line}: label {name!r} not in the model's label set")
        self.index[name] = len(self.names)
        self.names.append(name)
        return self.index[name]


def read_votes_csv(
    path: str, names: Sequence[str] | None = None
) -> tuple[Dataset, tuple[str, ...]]:
    """Load a vote file into a dataset plus the label name mapping.

    Pass `names` to force an existing mapping (for example a model's labels);
    otherwise labels are assigned indices in first-seen order.
    """
    mapper = _LabelMapper(names)
    tasks: dict[str, dict[int, list[Vote]]] = {}
    truths: dict[str, int] = {}
    order: list[str] = []
    max_path = -1
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read votes file: {exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: line {line}: not valid UTF-8 ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != VOTES_HEADER:
            raise InputError(
                f"votes file must start with header {','.join(VOTES_HEADER)}"
            )
        for line, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise InputError(f"line {line}: expected 5 fields, got {len(row)}")
            task_id, path_str, worker, vote_str, truth_str = (f.strip() for f in row)
            if not task_id:
                raise InputError(f"line {line}: empty task_id")
            try:
                path_id = int(path_str)
            except ValueError:
                raise InputError(f"line {line}: bad path_id {path_str!r}") from None
            if path_id < 0:
                raise InputError(f"line {line}: negative path_id {path_id}")
            if not vote_str:
                raise InputError(f"line {line}: empty vote")
            vote = mapper.get(vote_str, line)
            if task_id not in tasks:
                tasks[task_id] = {}
                order.append(task_id)
            tasks[task_id].setdefault(path_id, []).append(
                (worker if worker else None, vote)
            )
            max_path = max(max_path, path_id)
            if truth_str:
                truth = mapper.get(truth_str, line)
                if task_id in truths and truths[task_id] != truth:
                    raise InputError(
                        f"line {line}: task {task_id} has conflicting truths"
                    )
                truths[task_id] = truth
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(mapper.names) < 2:
        raise InputError("votes file mentions fewer than 2 distinct labels")
    samples = tuple(
        TaskSample(
            task_id=tid,
            votes={p: tuple(vs) for p, vs in tasks[tid].items()},
            truth=truths.get(tid),
        )
        for tid in order
    )
    return (
        Dataset(samples=samples, num_paths=max_path + 1, num_labels=len(mapper.names)),
        tuple(mapper.names),
    )


def write_votes_csv(data: Dataset, path: str, names: Sequence[str] | None = None) -> None:
    """Write a dataset back out; labels use `names` or their indices as strings."""

    def fmt(label: int) -> str:
        return names[label] if names is not None else str(label)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(VOTES_HEADER)
        for sample in data.samples:
            truth = fmt(sample.truth) if sample.truth is not None else ""
            for p in sorted(sample.votes):
                for worker, vote in sample.votes[p]:
                    writer.writerow(
                        [sample.task_id, p, worker if worker is not None else "", fmt(vote), truth]
                    )


def parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"bad {what} {text!r}: expected comma-separated integers") from None


def parse_budgets(text: str) -> list[str]:
    """Budget lists: '3,5,8', a range '3..30', or a stepped range '3..30..3'."""
    text = text.strip()
    if ".." in text:
        parts = text.split("..")
        if len(parts) not in (2, 3):
            raise InputError(f"bad budget range {text!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise InputError(f"bad budget range {text!r}") from None
        if step < 1 or hi < lo:
            raise InputError(f"bad budget range {text!r}")
        return [str(v) for v in range(lo, hi + 1, step)]
    out = [part.strip() for part in text.split(",") if part.strip()]
    if not out:
        raise InputError(f"bad budget list {text!r}")
    return out


def parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]
