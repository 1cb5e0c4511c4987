"""Reading and writing vote files.

The on-disk vote format is CSV with header task_id,path_id,worker_id,vote,truth.
Labels in files are strings; they map to dense indices in order of first
appearance (scanning rows top to bottom, vote column before truth column), and
that mapping travels with any model learned from the file.

`read_votes_csv` reads the file in one pass and codes each row into four ints
(task, path, worker, vote) as it goes, so the first check that fails is the
error, at its line. Each column keeps its codes in a dict keyed by the raw
field: a repeated field costs one lookup, and only a miss strips and checks
it. A field is cached only once it has passed its check. Tasks are stored in
first-seen order and each (task, path)'s votes in file order, the order
`write_votes_csv` writes back.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

import numpy as np

from .errors import InputError
from .model import Dataset

VOTES_HEADER = ("task_id", "path_id", "worker_id", "vote", "truth")


class _BadField(Exception):
    """A row's first failed check; the reader adds the line."""


class _Codes(dict):
    """One column's code per raw field; a miss strips the field and codes it."""

    def __init__(self, code):
        super().__init__()
        self.code = code

    def __missing__(self, raw: str) -> int:
        out = self[raw] = self.code(raw.strip())
        return out


def read_votes_csv(
    path: str, names: Sequence[str] | None = None
) -> tuple[Dataset, tuple[str, ...]]:
    """Load a vote file into a dataset plus the label name mapping.

    Pass `names` to force an existing mapping (for example a model's labels);
    otherwise labels are assigned indices in first-seen order.
    """
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
    task_ids: dict[str, int] = {}
    worker_ids: dict[str, int] = {}
    label_ids = {n: i for i, n in enumerate(names or ())}

    def task_code(text: str) -> int:
        if not text:
            raise _BadField("empty task_id")
        return task_ids.setdefault(text, len(task_ids))

    def path_code(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 2**63
        if value >= 2**63:  # no integer, or one too large to index with
            raise _BadField(f"bad path_id {text!r}")
        if value < 0:
            raise _BadField(f"negative path_id {value}")
        return value

    def label_code(text: str) -> int:  # -1 for an empty field
        if text and text not in label_ids:
            if names is not None:
                raise _BadField(f"label {text!r} not in the model's label set")
            label_ids[text] = len(label_ids)
        return label_ids[text] if text else -1

    tasks, paths, labels = _Codes(task_code), _Codes(path_code), _Codes(label_code)
    workers = _Codes(lambda text: worker_ids.setdefault(text, len(worker_ids)))
    truths: dict[int, int] = {}
    codes: list[int] = []  # task, path, worker and vote of each vote in turn
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != VOTES_HEADER:
            raise InputError(f"votes file must start with header {','.join(VOTES_HEADER)}")
        for line, row in enumerate(reader, start=2):
            if len(row) != 5:
                if row and (len(row) > 1 or row[0].strip()):  # blank rows are skipped
                    raise _BadField(f"expected 5 fields, got {len(row)}")
                continue
            task_raw, path_raw, worker_raw, vote_raw, truth_raw = row
            task = tasks[task_raw]
            codes += (task, paths[path_raw], workers[worker_raw], labels[vote_raw])
            if codes[-1] < 0:
                raise _BadField("empty vote")
            truth = labels[truth_raw]
            if truth >= 0 and truths.setdefault(task, truth) != truth:
                raise _BadField(f"task {task_raw.strip()} has conflicting truths")
    except _BadField as exc:
        raise InputError(f"line {line}: {exc}") from None
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    label_names = tuple(label_ids) if names is None else tuple(names)
    if len(label_names) < 2:
        raise InputError("votes file mentions fewer than 2 distinct labels")
    first_truth = np.full(len(task_ids), -1, dtype=np.int64)
    first_truth[list(truths)] = list(truths.values())
    columns = np.array(codes, dtype=np.int64).reshape(-1, 4).T
    worker_names = [w or None for w in worker_ids]
    data = Dataset.tabulate(list(task_ids), first_truth, *columns, worker_names, len(label_names))
    return data, label_names


def write_votes_csv(data: Dataset, path: str, names: Sequence[str] | None = None) -> None:
    """Write a dataset in stored order; labels use `names` or their indices as strings.

    A path that cannot be written is an InputError.
    """
    c = data.stored_columns()
    label = list(names) if names is not None else [str(i) for i in range(data.num_labels)]
    truth = [label[y] if y >= 0 else "" for y in c["truth"].tolist()]
    worker = [w if w is not None else "" for w in c["worker_ids"]]
    task = c["task"].tolist()
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(VOTES_HEADER)
            writer.writerows(
                zip(
                    map(c["task_ids"].__getitem__, task),
                    c["path"].tolist(),
                    map(worker.__getitem__, c["worker"].tolist()),
                    map(label.__getitem__, c["label"].tolist()),
                    map(truth.__getitem__, task),
                )
            )
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


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
