"""Reading and writing vote files.

The on-disk vote format is CSV with header task_id,path_id,worker_id,vote,truth.
Labels in files are strings; they map to dense indices in order of first
appearance (scanning rows top to bottom, vote column before truth column), and
that mapping travels with any model learned from the file.

`read_votes_csv` splits the decoded file into records where `csv.reader`
over a stream opened with `newline=""` ends them: at `\r\n`, `\r` or `\n`,
never at the other breaks `str.splitlines` knows. A UTF-8 error is placed on
its line by the same count. A file with no `"` cannot quote, so `str.split`
tokenises it, and a field longer than `csv.field_size_limit()` fails there as
`csv` fails it; any other file goes through `csv.reader`. Both tokenisers hand
one coding step blocks of `_BLOCK_ROWS` records, each cut at its first comma
into two columns: task ids and the rest of the rows (path, worker, vote and
truth). Each distinct raw value of a column is stripped, checked and coded
once, in first-seen order, so labels are numbered by first sight, vote before
truth; one pass gathers the column's codes. Blank rows are skipped. Every
check runs over a whole block, and the error is that of the smallest failing
line, worded by that row's checks in their fixed order (field count, task id,
path id, vote label, empty vote, truth label, conflicting truth); a tokenising
error comes after every row before it. Tasks are stored in first-seen order
and each (task, path)'s votes in file order, the order `write_votes_csv`
writes back.
"""

from __future__ import annotations

import csv
import io
from itertools import chain, count, islice, repeat
from operator import itemgetter, methodcaller
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InputError
from .model import Dataset

VOTES_HEADER = ("task_id", "path_id", "worker_id", "vote", "truth")
# Records coded at once: on 1.8M rows, blocks of 4,096 read faster than blocks of
# 65,536 or the whole file as one block.
_BLOCK_ROWS = 4096

# A block's records as three columns, each record cut as `str.partition(",")`
# cuts a line: its first field, "," (or "" for a record of one field or none)
# and the rest of the row.
_Block = tuple[list, list, list]


class _BadField(Exception):
    """A row's first failed check; the reader adds the line."""


def _columns(records) -> _Block:
    records = list(records)
    return tuple(list(map(itemgetter(i), records)) for i in range(3))


def _split_blocks(text: str, path: str) -> Iterator[_Block]:
    """A quote-free file's blocks; the rest of a row is a string."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    limit = csv.field_size_limit()
    long = len(text) > limit
    # A tuple of strings leaves the garbage collector's tracking at its first
    # collection; a list of 10^6 lines would be walked by every full collection
    # while the file is coded. A final break leaves a blank row, which is skipped.
    lines = tuple(text.split("\n"))
    del text
    for start in range(0, len(lines), _BLOCK_ROWS):
        block = lines[start : start + _BLOCK_ROWS]
        if long and max(map(len, block)) > limit:
            big = next(
                (i for i, line in enumerate(block) if max(map(len, line.split(","))) > limit), None
            )
            if big is not None:
                if big:
                    yield _columns(map(str.partition, block[:big], repeat(",")))
                raise InputError(
                    f"{path}: line {start + big + 1}: field larger than field limit ({limit})"
                )
        yield _columns(map(str.partition, block, repeat(",")))


def _csv_blocks(text: str, path: str) -> Iterator[_Block]:
    """The blocks of the rows `csv.reader` reads; the rest of a row is a tuple of fields."""
    reader = csv.reader(io.StringIO(text, newline=""))
    while True:
        rows = []
        try:
            for row in islice(reader, _BLOCK_ROWS):
                rows.append(row)
        except csv.Error as exc:
            message = f"{path}: line {reader.line_num}: {exc}"
            if rows:
                yield _columns(map(_record, rows))
            raise InputError(message) from None
        if not rows:
            return
        yield _columns(map(_record, rows))


def _record(row: list[str]) -> tuple[str, str, tuple]:
    return (row[0], ",", tuple(row[1:])) if len(row) > 1 else ("".join(row), "", ())


def _coded(column: Sequence, codes: Callable[[list], list]) -> np.ndarray:
    """Each raw field's code; `codes` takes the distinct fields once, in first-seen order."""
    first: dict = {}
    at = np.fromiter(map(first.setdefault, column, count()), np.int64, len(column))
    coded = np.array(codes(list(first)), dtype=np.int64)
    table = np.empty((len(column),) + coded.shape[1:], dtype=np.int64)
    table[list(first.values())] = coded
    return table[at]


class _Coder:
    """A votes file's codes, block by block, with the ids and labels they number."""

    def __init__(self, names: Sequence[str] | None, fields: Callable):
        self.forced = names is not None
        self.fields = fields  # the fields in the rest of a row
        self.tasks: dict[str, int] = {}
        self.workers: dict[str, int] = {}
        self.labels = {n: i for i, n in enumerate(names or ())}
        self.truth = np.full(0, -1, dtype=np.int64)  # each task's first truth, -1 for none
        self.codes: list[np.ndarray] = []  # (4, rows) task, path, worker and vote per block

    def row(self, block: _Block, i: int) -> list[str]:
        head, comma, rest = (column[i] for column in block)
        return [head, *self.fields(rest)] if comma else [head]

    @staticmethod
    def path(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 2**63
        if value >= 2**63:  # no integer, or one too large to index with
            raise _BadField(f"bad path_id {text!r}")
        if value < 0:
            raise _BadField(f"negative path_id {value}")
        return value

    def label(self, text: str) -> int:  # -1 for an empty field
        if text and text not in self.labels:
            if self.forced:
                raise _BadField(f"label {text!r} not in the model's label set")
            self.labels[text] = len(self.labels)
        return self.labels[text] if text else -1

    def task_codes(self, raws: list[str]) -> list[int]:  # -1 for an empty task id
        tasks = self.tasks
        return [tasks.setdefault(text, len(tasks)) if text else -1 for text in map(str.strip, raws)]

    def rest_codes(self, raws: list) -> list[tuple[int, int, int, int]]:
        """Path, worker, vote and truth codes of each rest of a row; a path of -1 if one fails."""
        out = []
        for raw in raws:
            try:
                fields = self.fields(raw)
                if len(fields) != 4:
                    raise _BadField
                path, worker, vote, truth = (f.strip() for f in fields)
                path = self.path(path)
                worker = self.workers.setdefault(worker, len(self.workers))
                out.append((path, worker, self.label(vote), self.label(truth)))
            except _BadField:
                out.append((-1, -1, -1, -1))
        return out

    def error(self, row: list[str]) -> str:
        """The message of the row's first failing check, the truth conflict last."""
        try:
            if len(row) != 5:
                raise _BadField(f"expected 5 fields, got {len(row)}")
            task, path, _, vote, truth = (f.strip() for f in row)
            if not task:
                raise _BadField("empty task_id")
            self.path(path)
            if self.label(vote) < 0:
                raise _BadField("empty vote")
            self.label(truth)
        except _BadField as exc:
            return str(exc)
        return f"task {task} has conflicting truths"

    def add(self, block: _Block, line: int) -> None:
        """Code a block, its first row on `line`; raise at its first failing line."""
        heads, commas, rests = block
        end, kept = len(heads), None
        if "" in commas:  # blank rows are skipped; the first other row of one field fails
            end = next((i for i, c in enumerate(commas) if not c and heads[i].strip()), end)
            kept = [i for i in range(end) if commas[i]]
            heads, rests = [heads[i] for i in kept], [rests[i] for i in kept]
        t = _coded(heads, self.task_codes)
        p, w, v, y = _coded(rests, self.rest_codes).reshape(-1, 4).T
        if len(self.tasks) > len(self.truth):
            grow = max(len(self.tasks), len(self.truth))
            self.truth = np.concatenate([self.truth, np.full(grow, -1, dtype=np.int64)])
        fails = (t < 0) | (p < 0) | (v < 0)
        has = (t >= 0) & (y >= 0)
        if has.any():  # a truth after the task's first differs: conflicting truths
            tasks, first = np.unique(t[has], return_index=True)
            fresh = self.truth[tasks] < 0
            self.truth[tasks[fresh]] = y[has][first[fresh]]
            fails[has] |= y[has] != self.truth[t[has]]
        if fails.any():
            k = int(np.argmax(fails))
            end = kept[k] if kept is not None else k
        if end < len(commas):
            raise InputError(f"line {line + end}: {self.error(self.row(block, end))}")
        self.codes.append(np.stack([t, p, w, v]))


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
        head = raw[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise InputError(f"{path}: line {line}: not valid UTF-8 ({exc.reason})") from None
    del raw
    if '"' in text:
        blocks, coder = _csv_blocks(text, path), _Coder(names, tuple)
    else:
        blocks, coder = _split_blocks(text, path), _Coder(names, methodcaller("split", ","))
    del text
    first = next(blocks, ((), (), ()))
    if not first[0] or tuple(h.strip() for h in coder.row(first, 0)) != VOTES_HEADER:
        raise InputError(f"votes file must start with header {','.join(VOTES_HEADER)}")
    line = 2
    for block in chain([tuple(column[1:] for column in first)], blocks):
        coder.add(block, line)
        line += len(block[0])
    label_names = tuple(coder.labels) if names is None else tuple(names)
    if len(label_names) < 2:
        raise InputError("votes file mentions fewer than 2 distinct labels")
    task, path_, worker, vote = np.concatenate(coder.codes, axis=1)
    worker_names = [w or None for w in coder.workers]
    data = Dataset.tabulate(
        list(coder.tasks), coder.truth[: len(coder.tasks)], task, path_, worker, vote,
        worker_names, len(label_names),
    )
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
