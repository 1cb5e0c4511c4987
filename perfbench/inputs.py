"""Seeded input files for the workloads.

Everything crowdplan reads in a benchmark run is written here from the
`--seed`; the same seed gives byte-identical files. The generators are
vectorised numpy draws over the benchmark's own streams, independent of the
program's simulator, so the votes files do not depend on the code under test.

Model variation across seeds is deliberately small (a few hundredths on each
table entry): the plan a greedy search picks, and so the work a request does,
should not swing from one seed to the next, or the spread between runs would
measure the inputs rather than the program.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

CROWD_WORKERS_PER_PATH = 12
MAX_VOTES_PER_PATH = 5


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def load_bundled(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sym_rows(acc: float) -> list[list[float]]:
    return [[acc, 1.0 - acc], [1.0 - acc, acc]]


def crowd_model(seed: int, bundled: dict) -> dict:
    """Per-worker model: the bundled K=2 paths with one table per worker.

    Each worker's accuracy is the bundled shared table's diagonal plus a
    seeded offset in [-0.08, 0.08].
    """
    rng = _rng(seed, "crowd-model")
    paths = []
    for i, entry in enumerate(bundled["paths"]):
        base = float(entry["shared_cpt"][0][0])
        offsets = rng.uniform(-0.08, 0.08, size=CROWD_WORKERS_PER_PATH)
        workers = {
            f"p{i}w{j:02d}": _sym_rows(float(np.clip(base + offsets[j], 0.55, 0.97)))
            for j in range(CROWD_WORKERS_PER_PATH)
        }
        paths.append(
            {
                "id": i,
                "name": entry.get("name", f"path {i}"),
                "cost": str(entry["cost"]),
                "path_cpt": entry["path_cpt"],
                "worker_cpts": workers,
            }
        )
    return {
        "kind": "apm",
        "labels": bundled["labels"],
        "prior": bundled["prior"],
        "paths": paths,
    }


def _draw_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One categorical draw per row of `probs`."""
    edges = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0]) * edges[:, -1]
    return np.minimum((edges < u[:, None]).sum(axis=1), probs.shape[1] - 1)


def ragged_votes(seed: int, tag: str, model: dict, num_tasks: int, labeled: bool):
    """Draw tasks from a per-worker model with 0..5 votes per path.

    Votes on a path come from distinct workers. Returns (rows, tasks) where
    rows are CSV rows in file order and tasks maps task id to
    (truth index, {path: [(worker, label index), ...]}). Tasks that draw no
    vote on any path have no row and are left out of `tasks`.
    """
    rng = _rng(seed, tag)
    names = model["labels"]["names"]
    prior = np.asarray(model["prior"], dtype=np.float64)
    y = _draw_rows(rng, np.tile(prior, (num_tasks, 1)))
    per_path = []
    for entry in model["paths"]:
        workers = sorted(entry["worker_cpts"])
        tables = np.asarray([entry["worker_cpts"][w] for w in workers], dtype=np.float64)
        z = _draw_rows(rng, np.asarray(entry["path_cpt"], dtype=np.float64)[y])
        m = rng.integers(0, MAX_VOTES_PER_PATH + 1, size=num_tasks)
        chosen = np.argsort(rng.random((num_tasks, len(workers))), axis=1)[:, :MAX_VOTES_PER_PATH]
        probs = tables[chosen, z[:, None], :]                      # (n, 5, K)
        labels = _draw_rows(rng, probs.reshape(-1, probs.shape[-1])).reshape(chosen.shape)
        per_path.append((workers, m, chosen, labels))

    rows: list[list[str]] = []
    tasks: dict[str, tuple[int, dict[int, list[tuple[str, int]]]]] = {}
    for t in range(num_tasks):
        task_id = f"t{t:06d}"
        truth = names[int(y[t])] if labeled else ""
        votes: dict[int, list[tuple[str, int]]] = {}
        for path, (workers, m, chosen, labels) in enumerate(per_path):
            for j in range(int(m[t])):
                worker = workers[int(chosen[t, j])]
                label = int(labels[t, j])
                votes.setdefault(path, []).append((worker, label))
                rows.append([task_id, str(path), worker, names[label], truth])
        if votes:
            tasks[task_id] = (int(y[t]), votes)
    return rows, tasks


def write_votes(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("task_id,path_id,worker_id,vote,truth\n")
        fh.writelines(",".join(r) + "\n" for r in rows)


def _peaked_rows(diag: np.ndarray) -> list[list[float]]:
    """K x K rows with the given diagonal and the rest split by fixed shares."""
    k = len(diag)
    shares = np.arange(1, k, dtype=np.float64)
    out = []
    for r in range(k):
        rest = np.roll(shares, r) / shares.sum() * (1.0 - diag[r])
        out.append(np.insert(rest, r, diag[r]).tolist())
    return out


WIDE_COSTS = ("1", "2", "2", "3", "4")
_WIDE_PATH_DIAG = (0.62, 0.70, 0.74, 0.80, 0.86)
_WIDE_WORKER_DIAG = (0.60, 0.68, 0.72, 0.78, 0.84)


def wide_model(seed: int) -> dict:
    """K=4 planning model: 5 shared-table paths with costs 1,2,2,3,4.

    Diagonals are fixed per path and nudged by at most 0.002 per seed.
    """
    rng = _rng(seed, "wide-model")
    k = 4
    prior = np.full(k, 0.25) + rng.uniform(-0.002, 0.002, size=k)
    prior = prior / prior.sum()
    paths = []
    for i, cost in enumerate(WIDE_COSTS):
        path_diag = np.full(k, _WIDE_PATH_DIAG[i]) + rng.uniform(-0.002, 0.002, size=k)
        worker_diag = np.full(k, _WIDE_WORKER_DIAG[i]) + rng.uniform(-0.002, 0.002, size=k)
        paths.append(
            {
                "id": i,
                "cost": cost,
                "path_cpt": _peaked_rows(path_diag),
                "shared_cpt": _peaked_rows(worker_diag),
            }
        )
    return {
        "kind": "apm",
        "labels": {"cardinality": k, "names": ["a", "b", "c", "d"]},
        "prior": prior.tolist(),
        "paths": paths,
    }


def write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
