"""Output checks. Each returns None when the output is right, else a reason.

Posteriors are compared with the brute-force references in
`tests/_oracles.py`, which the benchmark imports read-only; plan gains on
the small bundled model are compared with full enumeration of vote
assignments. Nothing here calls the package's inference or
information-gain code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import _oracles
from crowdplan.model import TaskSample, load_model, nbi_model_from_dict

POSTERIOR_TOL = 1e-9
IG_TOL = 1e-9


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _prior_entropy(prior) -> float:
    return -math.fsum(float(p) * math.log(float(p)) for p in prior if p > 0)


def model_names(doc: dict) -> list[str]:
    return list(doc["labels"]["names"])


def remap(tasks: dict, names: list[str], file_names: list[str]) -> dict:
    """Re-index generated labels from the generator's names to a model's."""
    to_model = [file_names.index(n) for n in names]
    return {
        tid: (to_model[truth], {p: [(w, to_model[v]) for w, v in vs] for p, vs in votes.items()})
        for tid, (truth, votes) in tasks.items()
    }


def learn(stdout: str, out: Path, kind: str) -> str | None:
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        return "learn stdout is not a JSON report"
    if not isinstance(report.get("final_log_likelihood"), float) or not math.isfinite(
        report["final_log_likelihood"]
    ):
        return f"final_log_likelihood is not finite: {report.get('final_log_likelihood')!r}"
    try:
        if kind == "nbi":
            with open(out, "r", encoding="utf-8") as fh:
                nbi_model_from_dict(json.load(fh))
        else:
            load_model(str(out))
    except Exception as exc:  # any loader failure means the output is unusable
        return f"learned model does not load: {exc}"
    return None


def em_iterations(stdout: str) -> int:
    return int(json.loads(stdout.strip().splitlines()[-1])["iterations"])


def _reference(kind: str, model_path: Path, num_labels: int):
    """Brute-force posterior for `kind`, as a function of a task's votes."""
    with open(model_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if kind == "nbi":
        rows = {w: np.asarray(r, dtype=np.float64) for w, r in doc["workers"].items()}
        return lambda votes: _oracles.naive_worker_posterior(
            doc["prior"], rows, [wv for p in sorted(votes) for wv in votes[p]]
        )
    if kind == "mv":
        def shares(votes):
            counts = [0] * num_labels
            for vs in votes.values():
                for _, v in vs:
                    counts[v] += 1
            return [c / sum(counts) for c in counts]
        return shares
    model = load_model(str(model_path))
    oracle = _oracles.enum_posterior if kind == "apm" else _oracles.naive_path_posterior
    return lambda votes: oracle(model, TaskSample("t", {p: tuple(vs) for p, vs in votes.items()}))


def infer(
    out: Path, kind: str, model_path: Path, tasks: dict, file_names: list[str], subset: list[str]
) -> str | None:
    """Row count, then the posterior columns of `subset` against the reference.

    mv probabilities must equal the vote shares exactly; the others must
    agree with the brute-force posterior within POSTERIOR_TOL.
    """
    with open(model_path, "r", encoding="utf-8") as fh:
        names = model_names(json.load(fh))
    rows = _read_csv(out)
    header = rows[0]
    want_header = ["task_id", "prediction", "confidence"] + [f"p_{n}" for n in names]
    if header[: len(want_header)] != want_header:
        return f"unexpected header {header}"
    body = {r[0]: r for r in rows[1:]}
    if len(body) != len(tasks) or len(rows) - 1 != len(tasks):
        return f"{len(rows) - 1} posterior rows for {len(tasks)} tasks"
    reference = _reference(kind, model_path, len(names))
    local = remap({t: tasks[t] for t in subset}, names, file_names)
    for tid in subset:
        got = [float(x) for x in body[tid][3 : 3 + len(names)]]
        want = [float(w) for w in reference(local[tid][1])]
        if kind == "mv":
            if got != want:
                return f"task {tid}: mv probabilities {got} are not the vote shares {want}"
        elif max(abs(g - w) for g, w in zip(got, want)) > POSTERIOR_TOL:
            return f"task {tid}: {kind} posterior {got} differs from reference {want}"
    return None


def simulate(out: Path, num_tasks: int, votes_per_path: list[int], labels: list[str]) -> str | None:
    rows = _read_csv(out)
    if rows[0] != ["task_id", "path_id", "worker_id", "vote", "truth"]:
        return f"unexpected header {rows[0]}"
    per_task: dict[str, list[int]] = {}
    for r in rows[1:]:
        if r[3] not in labels or r[4] not in labels:
            return f"row {r}: label outside {labels}"
        per_task.setdefault(r[0], [0] * len(votes_per_path))[int(r[1])] += 1
    if len(per_task) != num_tasks:
        return f"{len(per_task)} simulated tasks, expected {num_tasks}"
    bad = [t for t, c in per_task.items() if c != votes_per_path]
    if bad:
        return f"task {bad[0]} has votes per path {per_task[bad[0]]}, expected {votes_per_path}"
    return None


def parse_plan(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def plan_affordable(stdout: str, costs: list[Fraction], budget: Fraction) -> str | None:
    try:
        result = parse_plan(stdout)
    except (json.JSONDecodeError, IndexError):
        return "plan stdout is not a JSON result"
    counts = result["counts"]
    if len(counts) != len(costs) or any(c < 0 for c in counts):
        return f"plan {counts} does not fit {len(costs)} paths"
    spent = sum((c * cost for c, cost in zip(counts, costs)), Fraction(0))
    if spent > budget:
        return f"plan {counts} costs {spent}, over budget {budget}"
    if Fraction(result["cost"]) != spent:
        return f"plan {counts} reports cost {result['cost']}, actual {spent}"
    return None


def plan_exact_ig(stdout: str, model_path: Path) -> str | None:
    """The reported gain equals H(Y) - H(Y | X_S) by enumerating every vote assignment."""
    result = parse_plan(stdout)
    model = load_model(str(model_path))
    want = _prior_entropy(model.prior) - _oracles.enum_conditional_entropy(model, result["counts"])
    if abs(result["ig"] - want) > IG_TOL:
        return f"plan {result['counts']}: ig {result['ig']} differs from enumeration {want}"
    return None


def greedy_bound(greedy_stdout: str, opt_stdout: str, costs: list[Fraction], budget: Fraction) -> str | None:
    """Greedy gain is at least 1 - e^-(1 - max cost / B) of the optimum."""
    greedy, opt = parse_plan(greedy_stdout), parse_plan(opt_stdout)
    bound = 1.0 - math.exp(-(1.0 - float(max(costs) / budget)))
    if greedy["ig"] < bound * opt["ig"] - IG_TOL:
        return f"greedy ig {greedy['ig']} below {bound:.4f} x optimum {opt['ig']}"
    return None


def sweep(out: Path, num_tasks: int, cells: int, folds: int) -> str | None:
    """One row per (model, strategy, budget, fold); tasks + skipped = fold size."""
    rows = _read_csv(out)
    header = rows[0]
    body = [dict(zip(header, r)) for r in rows[1:]]
    if len(body) != cells * folds:
        return f"{len(body)} sweep rows, expected {cells * folds}"
    keys = {(r["model"], r["strategy"], r["budget"], r["fold"]) for r in body}
    if len(keys) != len(body):
        return "duplicate (model, strategy, budget, fold) rows"
    for r in body:
        fold = int(r["fold"])
        size = len(range(fold, num_tasks, folds))
        if int(r["tasks"]) + int(r["skipped"]) != size:
            return f"row {r}: tasks + skipped != fold size {size}"
        if not 0.0 <= float(r["accuracy"]) <= 1.0:
            return f"row {r}: accuracy outside [0, 1]"
    return None


def digest(stdout: str, out: Path | None) -> str:
    """Hash of what must be byte-identical between passes: stdout and the output file."""
    h = hashlib.sha256(stdout.encode("utf-8"))
    if out is not None:
        h.update(b"\0")
        h.update(out.read_bytes())
    return h.hexdigest()
