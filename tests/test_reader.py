"""The columnar votes reader against two row-by-row references.

`reference_read_votes_csv` is the reader as it stood before votes were coded
into a dataset's columns, kept here verbatim except that it returns plain
per-task data instead of building a dataset; `_oracles.row_read_votes_csv` is
the reader as it stood before it coded whole columns, verbatim. Generated
files mix padded and quoted fields, blank and whitespace-only rows, empty
worker ids, interleaved tasks, truth on some rows only, conflicting truths,
bad, huge and negative path ids, empty votes and wrong field counts, under
every line ending. `read_votes_csv` must store the same votes per task, in
the same order, with the same label names and layout, or fail with the same
message.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from contextlib import contextmanager
from dataclasses import fields
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdplan.io
from crowdplan.errors import InputError
from crowdplan.io import read_votes_csv

from _oracles import records_of, row_read_votes_csv

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
    for fields_ in draw(st.lists(LINE, max_size=25)):
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        if fields_ in ([], [""]):
            out.write("\n")
        else:
            csv.writer(out, quoting=quoting, lineterminator="\n").writerow(fields_)
    return out.getvalue()


def _stored(data):
    return [(s.task_id, s.votes, s.truth) for s in records_of(data)]


def _outcome(read, path, names):
    try:
        return read(path, names)
    except InputError as exc:
        return ("error", str(exc))


def _write(tmp: str, text: str) -> str:
    path = os.path.join(tmp, "v.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(votes_files(), st.sampled_from([None, ("no", "yes"), ("yes", "no", "maybe")]))
def test_reader_matches_row_by_row_reference(text, names):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, text)
        want = _outcome(reference_read_votes_csv, path, names)
        got = _outcome(read_votes_csv, path, names)
    if want[0] == "error":
        assert got == want
        return
    assert got[0] != "error", got
    data, got_names = got
    assert (_stored(data), got_names, data.num_paths, data.num_labels) == want


# The wider files: every line ending, quote-free and quoted files, ids the
# csv module and str.strip treat specially, and fields over a small field limit.
LIMIT = 24
HUGE_PATHS = ("9223372036854775808", str(10**30))
PLAIN = {
    "task": [
        "t1", "t2", "t3", "b t", "τ1", "t\x001", "t\x0c1", "t\u20281", "t\x1c1", "t\x851",
    ],
    "path": ["0", "1", "2", "07", "+1", "1_0", "٣", "9223372036854775807"],
    "worker": ["", "w1", "w2", "wé", "w\u2028"],
    "vote": ["yes", "no", "maybe"],
    "truth": ["", "", "", "yes", "no"],
}
QUOTED = {"task": ["c,d", 'q"t', "e\nf", "g\rh"], "worker": ["w,4", "w\r\n5"]}
WIDE_BREAK = [
    (0, ""), (1, "-2"), (1, "x"), (1, "1.5"), (1, " "), (1, ""), (1, HUGE_PATHS[0]),
    (1, HUGE_PATHS[1]), (3, ""), (3, "perhaps"), (4, "perhaps"), (0, "y" * (LIMIT + 1)),
    (2, "y" * LIMIT), (3, " " * (LIMIT + 1)),
]
ENDINGS = ("\n", "\r\n", "\r")


@st.composite
def wide_votes_files(draw):
    """A votes file's text; half the files may quote."""
    quoted = draw(st.booleans())
    pools = {k: v + QUOTED.get(k, []) if quoted else v for k, v in PLAIN.items()}
    good = st.tuples(*(_padded(pools[k]) for k in ("task", "path", "worker", "vote", "truth")))
    bad = st.tuples(good, st.sampled_from(WIDE_BREAK)).map(
        lambda rb: [rb[1][1] if i == rb[1][0] else f for i, f in enumerate(rb[0])]
    )
    kinds = {
        "good": good.map(list),
        "bad": bad,
        "short": good.map(lambda r: list(r)[:4]),
        "long": good.map(lambda r: list(r) + ["extra"]),
        "blank": st.sampled_from([[], [""], ["   "], ["\t"], ["\x0c"], [" " * (LIMIT + 1)]]),
    }
    line = st.sampled_from(["good"] * 12 + ["bad"] * 2 + ["short", "long", "blank"])
    rows = draw(st.lists(line.flatmap(kinds.__getitem__), max_size=30))
    ending = draw(st.sampled_from(ENDINGS + ("mixed",)))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])) if quoted else None
    header = draw(st.sampled_from(
        ["task_id,path_id,worker_id,vote,truth", " task_id , path_id,worker_id,vote,truth "]
    ))
    out = [header]
    for row in rows:
        if quoting is None or len(row) < 2:
            out.append(",".join(row))
        else:
            buf = io.StringIO()
            csv.writer(buf, quoting=quoting, lineterminator="").writerow(row)
            out.append(buf.getvalue())
    ends = [draw(st.sampled_from(ENDINGS)) if ending == "mixed" else ending for _ in out]
    text = "".join(map("".join, zip(out, ends)))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no final line break
    return text


@contextmanager
def _field_limit(limit: int):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


def _table(data):
    return {f.name: getattr(data, f.name) for f in fields(data)}


def _same_read(got, want):
    """The same InputError message, or the same table field for field and the same names."""
    if want[0] == "error" or got[0] == "error":
        assert got == want
        return
    (data, names), (want_data, want_names) = got, want
    assert names == want_names
    for name, value in _table(want_data).items():
        assert np.array_equal(_table(data)[name], value), name


class _Tokenisers:
    """Which tokeniser each read went through: `csv.reader`, or `str.split` alone."""

    def __init__(self):
        self.seen: set[str] = set()

    def read(self, path, names):
        calls = []
        real = csv.reader

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        with mock.patch.object(crowdplan.io.csv, "reader", counted):
            out = _outcome(read_votes_csv, path, names)
        self.seen.add("csv" if calls else "split")
        return out


NAMES = st.sampled_from([None, ("no", "yes"), ("yes", "no", "maybe"), ("maybe", "no", "yes")])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(wide_votes_files(), NAMES, st.sampled_from([1, 2, 3, 5, 4096]))
def test_wide_files_read_as_both_references_read_them(text, names, block):
    with tempfile.TemporaryDirectory() as tmp, _field_limit(LIMIT):
        path = _write(tmp, text)
        head = _outcome(row_read_votes_csv, path, names)
        per_task = _outcome(reference_read_votes_csv, path, names)
        with mock.patch.object(crowdplan.io, "_BLOCK_ROWS", block):
            got = _outcome(read_votes_csv, path, names)
    _same_read(got, head)
    if any(huge in text for huge in HUGE_PATHS):
        return  # the per-task reader took any integer as a path id
    if per_task[0] == "error":
        assert got == per_task
    else:
        data, got_names = got
        assert (_stored(data), got_names, data.num_paths, data.num_labels) == per_task


def test_reader_parity_reaches_both_outcomes():
    """The generated files do not all fail on the same check, and use both tokenisers."""
    seen = set()
    tokenisers = _Tokenisers()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(votes_files(), wide_votes_files()), st.sampled_from([None, ("no", "yes")]))
    def collect(text, names):
        with tempfile.TemporaryDirectory() as tmp, _field_limit(LIMIT):
            path = _write(tmp, text)
            got = _outcome(reference_read_votes_csv, path, names)
            tokenisers.read(path, names)
        seen.add(got[1].split(": ", 1)[-1].split(" ")[0] if got[0] == "error" else "ok")

    collect()
    # "line" stands for csv's "<file>: line N: field larger than field limit"
    assert {"ok", "expected", "empty", "bad", "negative", "label", "task", "line"} <= seen
    assert tokenisers.seen == {"csv", "split"}


@pytest.mark.parametrize("ending", ENDINGS + ("mixed",))
def test_quote_free_files_never_call_csv_reader(tmp_path, ending):
    lines = [
        "task_id,path_id,worker_id,vote,truth", "t2,1,w1,yes,", "", "t1,0,,no,no", "  ",
        "t2,0,w2, no ,yes", "t1,1,w1,yes,",
    ]
    ends = ["\n", "\r\n", "\r"] * 3 if ending == "mixed" else [ending] * len(lines)
    path = tmp_path / "v.csv"
    path.write_bytes("".join(map("".join, zip(lines, ends))).encode())
    want = row_read_votes_csv(str(path))

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called on a quote-free file")

    with mock.patch.object(crowdplan.io.csv, "reader", refuse):
        got = read_votes_csv(str(path))
    _same_read(got, want)
    assert got[1] == ("yes", "no")


def _blocks_of(monkeypatch, tmp_path, rows, block=2, names=None):
    path = tmp_path / "v.csv"
    path.write_text("task_id,path_id,worker_id,vote,truth\n" + "\n".join(rows) + "\n")
    want = _outcome(row_read_votes_csv, str(path), names)
    monkeypatch.setattr(crowdplan.io, "_BLOCK_ROWS", block)
    got = _outcome(read_votes_csv, str(path), names)
    _same_read(got, want)
    return got


def test_a_label_first_seen_in_a_later_block_is_numbered_after(monkeypatch, tmp_path):
    rows = ["t1,0,,yes,", "t2,0,,yes,", "t3,0,,maybe,no", "t1,1,,no,"]
    _, names = _blocks_of(monkeypatch, tmp_path, rows)
    assert names == ("yes", "maybe", "no")


@pytest.mark.parametrize(
    "row, error",
    [
        ("t3,x,,no,", "line 5: bad path_id 'x'"),
        ("t1,0,,no,no", "line 5: task t1 has conflicting truths"),
        ("t3,0,,no", "line 5: expected 5 fields, got 4"),
        ("t3", "line 5: expected 5 fields, got 1"),
    ],
)
def test_an_error_on_the_first_row_of_a_later_block(monkeypatch, tmp_path, row, error):
    """Blocks of two rows hold lines 1-2, 3-4 and 5-6: line 5 opens the third."""
    rows = ["t1,0,,yes,yes", "t2,0,,no,", "t5,0,,no,", row, "t4,-1,,no,"]
    assert _blocks_of(monkeypatch, tmp_path, rows) == ("error", error)


def test_a_blank_block_before_a_failing_one(monkeypatch, tmp_path):
    got = _blocks_of(monkeypatch, tmp_path, ["t1,0,,yes,", "", "  ", "t2,0,,,"])
    assert got == ("error", "line 5: empty vote")


def test_a_field_over_the_limit_in_a_quote_free_file(tmp_path):
    limit = csv.field_size_limit()
    rows = ["t1,0,,no,", "t2,0,," + "y" * limit + ",", "t3,0,,no,no,", "t4,0,," + "y" * (limit + 1)]
    path = tmp_path / "v.csv"
    path.write_text("task_id,path_id,worker_id,vote,truth\r" + "\r".join(rows))
    want = _outcome(row_read_votes_csv, str(path), None)
    got = _outcome(read_votes_csv, str(path), None)
    assert got == want == ("error", "line 4: expected 5 fields, got 6")
    rows[2] = "t3,0,,no,no"
    path.write_text("task_id,path_id,worker_id,vote,truth\r" + "\r".join(rows))
    got = _outcome(read_votes_csv, str(path), None)
    assert got == _outcome(row_read_votes_csv, str(path), None)
    assert got == ("error", f"{path}: line 5: field larger than field limit ({limit})")
