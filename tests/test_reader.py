"""The one-pass votes reader against the per-task reader it replaced.

`reference_read_votes_csv` is the reader as it stood before votes were coded
into a dataset's columns, kept here verbatim except that it returns plain
per-task data instead of building a dataset. Generated files mix padded and
quoted fields, blank lines, empty worker ids, interleaved tasks, truth on some
rows only, conflicting truths, bad and negative path ids, empty votes and
wrong field counts. `read_votes_csv` must store the same votes per task, in
the same order, with the same label names and layout, or fail with the same
message.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from crowdplan.errors import InputError
from crowdplan.io import read_votes_csv

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


def reference_read_votes_csv(path: str, names: Sequence[str] | None = None):
    mapper = _LabelMapper(names)
    tasks: dict = {}
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
    stored = [
        (tid, {p: tuple(vs) for p, vs in tasks[tid].items()}, truths.get(tid))
        for tid in order
    ]
    return stored, tuple(mapper.names), max_path + 1, len(mapper.names)


def _padded(values):
    return st.tuples(
        st.sampled_from(["", "", " ", "  "]), st.sampled_from(values), st.sampled_from(["", " "])
    ).map("".join)


GOOD_ROW = st.tuples(
    _padded(["t1", "t2", "t3", "b t", "c,d"]),
    _padded(["0", "1", "2", "07", "+1", "1_0"]),
    _padded(["", "w1", "w2", "w3", "w,4"]),
    _padded(["yes", "no", "maybe"]),
    _padded(["", "", "", "yes", "no"]),
)
# (field, value) that breaks a good row
BREAK = st.sampled_from(
    [(0, ""), (1, "-2"), (1, "x"), (1, "1.5"), (1, " "), (3, ""), (3, "perhaps"), (4, "perhaps")]
)
BAD_ROW = st.tuples(GOOD_ROW, BREAK).map(
    lambda rb: [rb[1][1] if i == rb[1][0] else f for i, f in enumerate(rb[0])]
)
LINES = {
    "good": GOOD_ROW.map(list),
    "bad": BAD_ROW,
    "short": GOOD_ROW.map(lambda r: list(r)[:4]),
    "long": GOOD_ROW.map(lambda r: list(r) + ["extra"]),
    "blank": st.sampled_from([[], [""], ["   "]]),
}
# Mostly good rows, so that files often get far before their first error.
LINE = st.sampled_from(["good"] * 12 + ["bad"] * 2 + ["short", "long", "blank"]).flatmap(
    LINES.__getitem__
)


@st.composite
def votes_files(draw):
    out = io.StringIO()
    header = ["task_id,path_id,worker_id,vote,truth", " task_id , path_id,worker_id,vote,truth "]
    out.write(draw(st.sampled_from(header)) + "\n")
    for fields in draw(st.lists(LINE, max_size=25)):
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        if fields in ([], [""]):
            out.write("\n")
        else:
            csv.writer(out, quoting=quoting, lineterminator="\n").writerow(fields)
    return out.getvalue()


def _stored(data):
    return [(s.task_id, s.votes, s.truth) for s in data.samples]


def _outcome(read, path, names):
    try:
        return read(path, names)
    except InputError as exc:
        return ("error", str(exc))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(votes_files(), st.sampled_from([None, ("no", "yes"), ("yes", "no", "maybe")]))
def test_reader_matches_row_by_row_reference(text, names):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        want = _outcome(reference_read_votes_csv, path, names)
        got = _outcome(read_votes_csv, path, names)
    if want[0] == "error":
        assert got == want
        return
    assert got[0] != "error", got
    data, got_names = got
    assert (_stored(data), got_names, data.num_paths, data.num_labels) == want


def test_reader_parity_reaches_both_outcomes():
    """The generated files above do not all fail on the same check."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(votes_files(), st.sampled_from([None, ("no", "yes")]))
    def collect(text, names):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "v.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            got = _outcome(reference_read_votes_csv, path, names)
        seen.add(got[1].split(": ", 1)[-1].split(" ")[0] if got[0] == "error" else "ok")

    collect()
    assert {"ok", "expected", "empty", "bad", "negative", "label", "task"} <= seen
