"""Byte ledger of the benchmark requests: what each one returned and wrote, hashed.

Run from anywhere:

    python3 tools/ledger.py --seeds 1,5,33 --out ledger.json
    python3 tools/ledger.py --compare parent.json change.json

For each workload and seed it builds the requests and their inputs with
`perfbench/workloads.py` (imported, never changed), runs the requests once, in
order, as in-process calls to `crowdplan.cli.main`, and records one entry per
request: the exit code and the sha256 of its stdout, its stderr and its output
file (null when it writes none). A `plan` request's entry also keeps its
parsed result under `plan` (counts, cost, ig, stderr, mode, bound; null when
the request failed). A `sweep` request's entry also keeps `rows`, the sha256
of its CSV without the `accuracy` and `neg_log_likelihood` columns (null
when it writes none). A `learn` request's entry also keeps its parsed report
without `final_log_likelihood` under `fit` (iterations, converged, restart
index, sparse lists; null when the request failed), and an `infer`
request's entry the sha256 of its CSV's `task_id,prediction` columns under
`predictions` (null when it writes none). Each (workload, seed) also gets an
`inputs` entry, the workload's digest of its input files. The work
directory's path is written as `<work>` in stdout and stderr, so ledgers
made in different directories compare equal. To compare two trees, run this
same file in each (it reads the package from the tree it sits in).

`--compare A B` prints each entry that differs, or is in one ledger only,
with the fields that differ, and exits 1 if there is any; 0 means every byte
recorded is the same. A plan entry whose result differs in `ig` or `stderr`
alone is reported as "ig digits only" with |ig A - ig B| (and
|stderr A - stderr B| where `stderr` moved), one whose counts or mode differ
as "plan changed", and the largest |ig A - ig B| of the first kind is printed
last. A sweep entry whose output differs with the same `rows` is
reported as "sweep metrics only", one whose `rows` differ as "sweep rows
changed". Likewise a learn entry whose output or stdout differs with the
same `fit` is "fit digits only", one whose `fit` differs "fit changed"; an
infer entry whose output differs with the same `predictions` is "posterior
digits only", one whose `predictions` differ "predictions changed".
"""

from __future__ import annotations

import os

# The benchmark's environment: one BLAS thread, no thread override.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
os.environ.pop("CROWDPLAN_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import crowdplan.cli  # noqa: E402
import numpy  # noqa: E402
import workloads  # noqa: E402


def _sha(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def _columns(output: bytes, keep) -> str:
    """The sha256 of the columns of a CSV whose header names pass `keep`."""
    table = list(csv.reader(io.StringIO(output.decode())))
    cols = [j for j, name in enumerate(table[0]) if keep(name)]
    return _sha("\n".join(",".join(row[j] for j in cols) for row in table))


def _rows(output: bytes) -> str:
    """The sha256 of a sweep CSV without its metric columns."""
    return _columns(output, lambda name: name not in ("accuracy", "neg_log_likelihood"))


def _predictions(output: bytes) -> str:
    """The sha256 of a posteriors CSV's task ids and predictions."""
    return _columns(output, lambda name: name in ("task_id", "prediction"))


def _fit(stdout: str) -> dict:
    """A learn report without its final log-likelihood."""
    report = json.loads(stdout.splitlines()[-1])
    del report["final_log_likelihood"]
    return report


def record(names: list[str], seeds: list[int]) -> dict[str, dict]:
    """The ledger entries of every request of the named workloads, seed by seed."""
    entries: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="ledger-") as tmp:
        for name in names:
            for seed in seeds:
                work = Path(tmp) / f"{name}-{seed}"
                workload = workloads.build(name, seed, work)
                entries[f"{name}/{seed}/inputs"] = {"sha256": workload.input_digest}
                for req in workload.requests:
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = crowdplan.cli.main(list(req.argv))
                    output = req.output if req.output is not None and req.output.exists() else None
                    entry = entries[f"{name}/{seed}/{req.name}"] = {
                        "rc": rc,
                        "stdout": _sha(out.getvalue().replace(str(work), "<work>")),
                        "stderr": _sha(err.getvalue().replace(str(work), "<work>")),
                        "output": None if output is None else _sha(output.read_bytes()),
                    }
                    if req.argv[0] == "sweep":
                        entry["rows"] = None if output is None else _rows(output.read_bytes())
                    if req.argv[0] == "infer":
                        entry["predictions"] = (
                            None if output is None else _predictions(output.read_bytes())
                        )
                    if req.argv[0] == "plan":
                        entry["plan"] = json.loads(out.getvalue().splitlines()[-1]) if rc == 0 else None
                    if req.argv[0] == "learn":
                        entry["fit"] = _fit(out.getvalue()) if rc == 0 else None
    return entries


def _digits_apart(plan: dict) -> dict:
    """A plan result without the two fields whose last digits an estimate moves."""
    return {**plan, "ig": 0, "stderr": 0}


def compare(a: dict[str, dict], b: dict[str, dict]) -> list[str]:
    """One line per entry that differs between two ledgers' entries, sorted by name."""
    lines = []
    deltas = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'B' if key not in a else 'A'}")
            continue
        if a[key] == b[key]:
            continue
        fields = sorted(f for f in a[key].keys() | b[key].keys() if a[key].get(f) != b[key].get(f))
        pa, pb = a[key].get("plan"), b[key].get("plan")
        if pa and pb and (pa["counts"], pa["mode"]) != (pb["counts"], pb["mode"]):
            lines.append(f"{key}: plan changed: {pa['mode']} {pa['counts']} -> {pb['mode']} {pb['counts']}")
        elif pa and pb and fields == ["plan", "stdout"] and _digits_apart(pa) == _digits_apart(pb):
            deltas.append(abs(pa["ig"] - pb["ig"]))
            stderr = abs(pa["stderr"] - pb["stderr"])
            also = f", |d stderr| {stderr:.2g}" if stderr else ""
            lines.append(f"{key}: ig digits only (|d ig| {deltas[-1]:.2g}{also})")
        elif a[key].get("rows") and b[key].get("rows") and fields == ["output"]:
            lines.append(f"{key}: sweep metrics only")
        elif a[key].get("rows") and b[key].get("rows") and "rows" in fields:
            lines.append(f"{key}: sweep rows changed: {', '.join(fields)}")
        elif a[key].get("fit") and b[key].get("fit") and set(fields) <= {"output", "stdout"}:
            lines.append(f"{key}: fit digits only")
        elif a[key].get("fit") and b[key].get("fit") and "fit" in fields:
            lines.append(f"{key}: fit changed: {', '.join(fields)}")
        elif a[key].get("predictions") and b[key].get("predictions") and fields == ["output"]:
            lines.append(f"{key}: posterior digits only")
        elif a[key].get("predictions") and b[key].get("predictions") and "predictions" in fields:
            lines.append(f"{key}: predictions changed: {', '.join(fields)}")
        else:
            lines.append(f"{key}: {', '.join(fields)}")
    if deltas:
        lines.append(f"largest |d ig| of the ig-digit entries: {max(deltas):.2g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,5,33", help="comma-separated seeds")
    parser.add_argument(
        "--workloads", default=",".join(workloads.WORKLOADS), help="comma-separated workloads"
    )
    parser.add_argument("--out", help="write the ledger here (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two ledgers")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text())["entries"] for p in args.compare)
        lines = compare(a, b)
        print("\n".join(lines) if lines else f"same: {len(a)} entries")
        return 1 if lines else 0
    if not args.out:
        parser.error("--out is required unless --compare is given")
    names = args.workloads.split(",")
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {list(workloads.WORKLOADS)}")
    seeds = [int(s) for s in args.seeds.split(",")]
    ledger = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "workloads": names,
        "seeds": seeds,
        "entries": record(names, seeds),
    }
    Path(args.out).write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ledger['entries'])} entries to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
