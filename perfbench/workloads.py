"""The three workloads: seeded inputs, a fixed request mix, and output checks.

A workload is a list of CLI requests that one client sends in a closed loop,
each request after the previous one returns, all at the default --threads 1.
One pass sends the whole list in order; every pass sends the same list, so
every pass must produce byte-identical outputs.

crowd  The data path on a ragged per-worker votes file: simulate (write),
       learn three ways, infer five ways. Per-task Python loops in inference
       and the final log-likelihood of learning dominate it.
plan   Many small planning calls on the bundled 3-path model plus one exact
       and one sampled greedy search on a wide K=4 model. The only workload
       where planner and infogain do most of the work; a long-lived caller,
       so in-process caches stay warm.
sweep  One cross-validated budget sweep on a labeled ragged file. The only
       workload that runs evaluation: inference on many tiny executed vote
       subsets, so per-call overhead decides its time.

Sizes are chosen so one pass takes a few seconds on a 2-core machine and
several passes fit in one measured run.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from importlib.resources import files
from pathlib import Path
from typing import Callable

import checks
import inputs

CROWD_TASKS = 600
CROWD_PLAN = "3,3,3"
CROWD_INJECT_P = "0.2"
ORACLE_SUBSET = 200

PLAN_ROUNDS = 3
PLAN_SMALL = (
    ("greedy", 9), ("greedy", 30), ("greedy", 60), ("opt", 9), ("opt", 30),
    ("equal", 30), ("best", 30), ("rnd", 30),
)
WIDE_EXACT_BUDGET = 26
WIDE_SAMPLED_BUDGET = 40
WIDE_SAMPLES = 2000
# One estimator seed for every run: in sampled mode, sampling noise decides
# the greedy path, and with it how much work a request does. Only `rnd` plans
# take the run's seed.
ESTIMATOR_SEED = "0"
ENUM_MAX_BUDGET = 30

# EM runs a fixed number of iterations per restart (the tolerance is never
# met first), so every seed does the same fitting work.
EM_ARGS = ("--max-iters", "20", "--tol", "1e-12")

SWEEP_TASKS = 400
SWEEP_MODELS = "apm,nbap,mv,nbi"
SWEEP_STRATEGIES = "greedy,equal"
SWEEP_BUDGETS = "6,18,30"
SWEEP_FOLDS = 5
SWEEP_COSTS = "2,3,4"


@dataclass(frozen=True)
class Result:
    rc: int
    stdout: str
    seconds: float
    digest: str
    slowdown: float = 1.0  # machine speed near the request, relative to calibrate.REF_SLICE_S

    @property
    def normalised(self) -> float:
        return self.seconds / self.slowdown


Check = Callable[[Result, dict], "str | None"]


@dataclass(frozen=True)
class Request:
    name: str
    group: str
    argv: tuple[str, ...]
    output: Path | None
    check: Check


@dataclass
class Workload:
    name: str
    requests: list[Request]
    input_digest: str
    # (metric, argv at a given thread count) for the thread-speedup probes
    probes: list[tuple[str, Callable[[int], list[str]]]] = field(default_factory=list)
    rows_of: dict[str, int] = field(default_factory=dict)


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _bundled() -> dict:
    return inputs.load_bundled(Path(str(files("crowdplan") / "data" / "example_model.json")))


def crowd(seed: int, work: Path) -> Workload:
    model = inputs.crowd_model(seed, _bundled())
    names = checks.model_names(model)
    model_path = work / "crowd_model.json"
    votes_path = work / "votes.csv"
    inputs.write_json(model_path, model)
    rows, tasks = inputs.ragged_votes(seed, "crowd-votes", model, CROWD_TASKS, labeled=False)
    inputs.write_votes(votes_path, rows)
    ids = sorted(tasks)
    subset = ids[:: max(1, len(ids) // ORACLE_SUBSET)][:ORACLE_SUBSET]
    s = str(seed)

    sim_out = work / "simulated.csv"
    reqs = [
        Request(
            "simulate", "simulate",
            ("simulate", "--model", str(model_path), "--plan", CROWD_PLAN,
             "--tasks", str(CROWD_TASKS), "--inject-p", CROWD_INJECT_P, "--seed", s,
             "--out", str(sim_out)),
            sim_out,
            lambda r, _: checks.simulate(
                sim_out, CROWD_TASKS, [int(c) for c in CROWD_PLAN.split(",")], names
            ),
        )
    ]
    fits = {"apm": work / "fit_apm.json", "pw": work / "fit_per_worker.json", "nbi": work / "fit_nbi.json"}
    extra = {"apm": (), "pw": ("--no-share-workers",), "nbi": ("--model-kind", "nbi")}
    for fit, out in fits.items():
        kind = "nbi" if fit == "nbi" else "apm"
        reqs.append(
            Request(
                f"learn.{fit}", "learn",
                ("learn", "--votes", str(votes_path), *extra[fit], *EM_ARGS, "--seed", s,
                 "--out", str(out)),
                out,
                lambda r, _, out=out, kind=kind: checks.learn(r.stdout, out, kind),
            )
        )
    for kind, fit in (("apm", "apm"), ("nbap", "apm"), ("mv", "apm"), ("nbi", "nbi"), ("apm", "pw")):
        out = work / f"posteriors_{kind}_{fit}.csv"
        reqs.append(
            Request(
                f"infer.{kind}.{fit}", "infer",
                ("infer", "--model", str(fits[fit]), "--votes", str(votes_path),
                 "--model-kind", kind, "--out", str(out)),
                out,
                lambda r, _, out=out, kind=kind, fit=fits[fit]: checks.infer(
                    out, kind, fit, tasks, names, subset
                ),
            )
        )
    probe_out = work / "probe_generate.csv"
    probes = [
        (
            "parallel.generate_speedup_2t",
            lambda t: ["simulate", "--model", str(model_path), "--plan", CROWD_PLAN,
                       "--tasks", str(CROWD_TASKS), "--seed", s, "--threads", str(t),
                       "--out", str(probe_out)],
        )
    ]
    return Workload(
        "crowd", reqs, _digest_files([model_path, votes_path]), probes,
        rows_of={str(votes_path): len(rows)},
    )


def plan(seed: int, work: Path) -> Workload:
    bundled_path = work / "bundled_model.json"
    wide_path = work / "wide_model.json"
    bundled = _bundled()
    inputs.write_json(bundled_path, bundled)
    inputs.write_json(wide_path, inputs.wide_model(seed))
    bundled_costs = [Fraction(p["cost"]) for p in bundled["paths"]]
    wide_costs = [Fraction(c) for c in inputs.WIDE_COSTS]
    s = str(seed)

    def small_check(strategy: str, budget: int, rnd: int) -> Check:
        def check(r: Result, done: dict) -> str | None:
            b = Fraction(budget)
            return (
                checks.plan_affordable(r.stdout, bundled_costs, b)
                or (checks.plan_exact_ig(r.stdout, bundled_path) if budget <= ENUM_MAX_BUDGET else None)
                or (
                    checks.greedy_bound(done[f"a{rnd}.greedy.{budget}"].stdout, r.stdout, bundled_costs, b)
                    if strategy == "opt" else None
                )
            )
        return check

    reqs = []
    for rnd in range(PLAN_ROUNDS):
        for strategy, budget in PLAN_SMALL:
            reqs.append(
                Request(
                    f"a{rnd}.{strategy}.{budget}", "plan_small",
                    ("plan", "--model", str(bundled_path), "--budget", str(budget),
                     "--strategy", strategy, "--seed", s if strategy == "rnd" else ESTIMATOR_SEED),
                    None,
                    small_check(strategy, budget, rnd),
                )
            )
    reqs.append(
        Request(
            "b.exact", "plan_exact",
            ("plan", "--model", str(wide_path), "--budget", str(WIDE_EXACT_BUDGET),
             "--ig", "exact", "--seed", s),
            None,
            lambda r, _: checks.plan_affordable(r.stdout, wide_costs, Fraction(WIDE_EXACT_BUDGET)),
        )
    )
    reqs.append(
        Request(
            "b.sampled", "plan_sampled",
            ("plan", "--model", str(wide_path), "--budget", str(WIDE_SAMPLED_BUDGET),
             "--samples", str(WIDE_SAMPLES), "--seed", ESTIMATOR_SEED),
            None,
            lambda r, _: checks.plan_affordable(r.stdout, wide_costs, Fraction(WIDE_SAMPLED_BUDGET)),
        )
    )
    probes = [
        (
            "parallel.sampled_ig_speedup_2t",
            lambda t: ["plan", "--model", str(wide_path), "--budget", str(WIDE_SAMPLED_BUDGET),
                       "--strategy", "equal", "--ig", "sampled", "--samples", "32768",
                       "--seed", s, "--threads", str(t)],
        )
    ]
    return Workload("plan", reqs, _digest_files([bundled_path, wide_path]), probes)


def sweep(seed: int, work: Path) -> Workload:
    model = inputs.crowd_model(seed, _bundled())
    votes_path = work / "labeled_votes.csv"
    rows, tasks = inputs.ragged_votes(seed, "sweep-votes", model, SWEEP_TASKS, labeled=True)
    inputs.write_votes(votes_path, rows)
    out = work / "sweep.csv"
    cells = len(SWEEP_MODELS.split(",")) * len(SWEEP_STRATEGIES.split(",")) * len(SWEEP_BUDGETS.split(","))
    req = Request(
        "sweep", "sweep",
        ("sweep", "--votes", str(votes_path), "--models", SWEEP_MODELS,
         "--strategies", SWEEP_STRATEGIES, "--budgets", SWEEP_BUDGETS,
         "--folds", str(SWEEP_FOLDS), "--costs", SWEEP_COSTS, *EM_ARGS, "--seed", str(seed),
         "--out", str(out)),
        out,
        lambda r, _: checks.sweep(out, len(tasks), cells, SWEEP_FOLDS),
    )
    return Workload("sweep", [req], _digest_files([votes_path]), rows_of={str(votes_path): len(rows)})


WORKLOADS = {"crowd": crowd, "plan": plan, "sweep": sweep}


def build(name: str, seed: int, work: Path) -> Workload:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return WORKLOADS[name](seed, work)
