"""Reading and writing vote files.

The on-disk vote format is CSV with header task_id,path_id,worker_id,vote,truth.
Labels in files are strings; they map to dense indices in order of first
appearance (scanning rows top to bottom, vote column before truth column), and
that mapping travels with any model learned from the file.

`read_votes_csv` codes the rows straight into the columns of one `Dataset`
and checks whole columns at once; an error still names the first bad line,
as a row-by-row reader would. Tasks are stored in first-seen order and each
(task, path)'s votes in file order, the order `write_votes_csv` writes back.
"""

from __future__ import annotations

import csv
import io
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import InputError
from .model import Dataset

VOTES_HEADER = ("task_id", "path_id", "worker_id", "vote", "truth")


def _coded(entries: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Each entry's code and the distinct stripped values, numbered in first-seen order."""
    values: dict[str, int] = {}
    code = {raw: values.setdefault(raw.strip(), len(values)) for raw in dict.fromkeys(entries)}
    return np.fromiter(map(code.__getitem__, entries), np.int64, len(entries)), list(values)


def _five_fields(rows: list[list[str]], stop: InputError | None):
    """The five-field rows after the header, their lines, and the error that ends reading.

    Blank rows are skipped; any other row ends reading with its error, which
    comes before `stop`, the CSV error that cut the file short.
    """
    if not set(map(len, rows)) - {5}:
        return rows, np.arange(2, len(rows) + 2), stop
    good, lines = [], []
    for at, row in enumerate(rows, start=2):
        if len(row) == 5:
            good.append(row)
            lines.append(at)
        elif row and not (len(row) == 1 and not row[0].strip()):
            stop = InputError(f"line {at}: expected 5 fields, got {len(row)}")
            break
    return good, np.array(lines, dtype=np.int64), stop


def _path_id(text: str) -> int | None:
    """The field's integer, None when it holds none or one too large to index with."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value < 2**63 else None


def _table(columns: list[tuple[np.ndarray, list[str]]], lines: np.ndarray, names, stop):
    """Check the coded columns, then tabulate them and name the labels.

    The error raised is the one a row-by-row reader meets first: the earliest
    line, within a line the fields from left to right, and `stop`, the error
    that ended reading, after every bad row before it.
    """
    (task, path, worker, both), (task_ids, path_texts, worker_ids, label_texts) = zip(*columns)
    path_ids = [_path_id(p) for p in path_texts]
    bad_path = np.array([p is None for p in path_ids], dtype=bool)[path]
    path_id = np.array([max(p or 0, -1) for p in path_ids], dtype=np.int64)[path]
    names = [t for t in label_texts if t] if names is None else names
    index = {n: i for i, n in enumerate(names)}
    # -1 marks an empty field, -2 a label outside `names`
    labels = np.array([index.get(t, -2) if t else -1 for t in label_texts], dtype=np.int64)
    vote, truth = labels[both].reshape(-1, 2).T
    has_truth = truth != -1
    first_truth = np.full(len(task_ids), -1, dtype=np.int64)
    with_truth, first = np.unique(task[has_truth], return_index=True)
    first_truth[with_truth] = truth[has_truth][first]
    unknown = "label {!r} not in the model's label set"
    checks = (  # (bad rows, message for row j), in the order a row's fields are read
        (task == (task_ids.index("") if "" in task_ids else -1), lambda j: "empty task_id"),
        (bad_path, lambda j: f"bad path_id {path_texts[path[j]]!r}"),
        (path_id < 0, lambda j: f"negative path_id {path_ids[path[j]]}"),
        (vote == -1, lambda j: "empty vote"),
        (vote == -2, lambda j: unknown.format(label_texts[both[2 * j]])),
        (truth == -2, lambda j: unknown.format(label_texts[both[2 * j + 1]])),
        (
            has_truth & (truth != first_truth[task]),
            lambda j: f"task {task_ids[task[j]]} has conflicting truths",
        ),
    )
    found = [(int(np.argmax(bad)), i) for i, (bad, _) in enumerate(checks) if bad.any()]
    if found:
        j, i = min(found)
        raise InputError(f"line {lines[j]}: {checks[i][1](j)}")
    if stop is not None:
        raise stop
    if len(names) < 2:
        raise InputError("votes file mentions fewer than 2 distinct labels")
    workers = [w or None for w in worker_ids]
    return (
        Dataset.tabulate(task_ids, first_truth, task, path_id, worker, vote, workers, len(names)),
        tuple(names),
    )


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
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, stop = [], None
    try:
        for row in reader:
            rows.append(row)
    except csv.Error as exc:
        stop = InputError(f"{path}: line {reader.line_num}: {exc}")
    if stop is not None and not rows:
        raise stop
    if not rows or tuple(h.strip() for h in rows[0]) != VOTES_HEADER:
        raise InputError(f"votes file must start with header {','.join(VOTES_HEADER)}")
    good, lines, stop = _five_fields(rows[1:], stop)
    tasks, paths, workers, votes, truths = zip(*good) if good else ((),) * 5
    labels = list(chain.from_iterable(zip(votes, truths)))  # vote and truth by turns
    return _table([_coded(c) for c in (tasks, paths, workers, labels)], lines, names, stop)


def write_votes_csv(data: Dataset, path: str, names: Sequence[str] | None = None) -> None:
    """Write a dataset in stored order; labels use `names` or their indices as strings."""
    c = data.stored_columns()
    label = list(names) if names is not None else [str(i) for i in range(data.num_labels)]
    truth = [label[y] if y >= 0 else "" for y in c["truth"].tolist()]
    worker = [w if w is not None else "" for w in c["worker_ids"]]
    task = c["task"].tolist()
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
