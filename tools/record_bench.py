"""Record the benchmark's metrics for one tree as BENCH_<N>.json at the repository root.

    python3 tools/record_bench.py N

It runs `perfbench/run.py --workload all` in a subprocess, untraced and then
traced, always at seed `SEED` for `SECONDS` per workload, so every BENCH file
measures the same runs; nothing under `perfbench/` is changed. A workload's
run clears only its own `perfbench/out/<workload>/`, so every workload's
`report_trace<0|1>.json` is read after each `--workload all` run ends, before
the traced run clears it. The file written holds, per workload, the
end-to-end metrics of the untraced run, the per-layer metrics of the traced
one, each run's request and failure counts, and the environment each run
recorded; and, once, the seed, the seconds, the command and a sha256 of the
package source measured.

It also runs the ladder: for each of `LADDER_TASKS`, `simulate` writes the
votes of that many tasks from the bundled model at plan `LADDER_PLAN` and
seed `SEED`. On that file one fresh interpreter reads the votes with
`read_votes_csv` `LADDER_RUNS` times (the read rung), and another reads
them once and fits them with `fit_em` at the benchmark's EM arguments,
`LEARN_ARGS` (the learn rung), and a third one runs the CLI's `infer` on it
in process, apm posteriors under the bundled model written to a CSV (the
infer rung). Up to `SWEEP_MAX_TASKS`, a fourth one reads them and runs
`budget_sweep` at the benchmark's sweep arguments, `SWEEP_ARGS` with
`LEARN_ARGS` as EM's (the sweep rung). The benchmark's
`nbi` model is left out, since it needs a worker id on every vote and the
ladder's file has none. The sweep rung stops at 20k tasks, so the ladder
stays short: a 20k-task sweep already takes about 3 s. The file's `"ladder"` holds, per size, the rows
read, the best read's seconds and microseconds per row, and that
interpreter's peak RSS; under `"learn"` and `"sweep"` the fit's or the
sweep's seconds, its microseconds per task and its interpreter's peak RSS;
and under `"infer"` the command's seconds, of which `read_s` in
`read_votes_csv` and `posteriors_s` in `table_posteriors` (the rest loads the
model and formats and writes the CSV), its microseconds per task and its
interpreter's peak RSS.
Exits 1 if a run failed or a report is missing, and then writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OUT = ROOT / "perfbench" / "out"
SEED = 1
SECONDS = 25
MODEL = ROOT / "src" / "crowdplan" / "data" / "example_model.json"
LADDER_TASKS = (2_000, 20_000, 200_000)
LADDER_PLAN = "3,3,3"
LADDER_RUNS = 3
# The ladder's reader: a fresh interpreter per size, so each size has its own peak RSS.
READ = """
import json, resource, sys, time
from crowdplan.io import read_votes_csv
best = float("inf")
for _ in range(int(sys.argv[2])):
    start = time.perf_counter()
    data, _ = read_votes_csv(sys.argv[1])
    best = min(best, time.perf_counter() - start)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"rows": len(data.label), "best_s": best, "peak_rss_mb": peak}))
"""
# perfbench's EM arguments: 20 iterations that the tolerance never cuts short, 3 restarts.
LEARN_ARGS = {"max_iters": 20, "rel_tol": 1e-12, "restarts": 3, "seed": SEED}
# The ladder's learner: one fit, in its own interpreter.
LEARN = """
import json, resource, sys, time
from crowdplan.io import read_votes_csv
from crowdplan.learning import EmConfig, fit_em
data, _ = read_votes_csv(sys.argv[1])
start = time.perf_counter()
fit_em(data, cfg=EmConfig(**json.loads(sys.argv[2])))
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"tasks": len(data), "fit_s": seconds, "peak_rss_mb": peak}))
"""
# The ladder's inferrer: one `infer --model-kind apm` command, in process in its
# own interpreter, with its read and its posteriors timed apart.
INFER = """
import contextlib, io, json, resource, sys, time
import crowdplan.cli as cli
spent = {"read_s": 0.0, "posteriors_s": 0.0}
def timed(name, fn):
    def call(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - start
    return call
cli.read_votes_csv = timed("read_s", cli.read_votes_csv)
cli.table_posteriors = timed("posteriors_s", cli.table_posteriors)
argv = ["infer", "--model", sys.argv[1], "--votes", sys.argv[2], "--model-kind", "apm",
        "--out", sys.argv[3]]
said = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(said):
    code = cli.main(argv)
seconds = time.perf_counter() - start
if code != 0:
    sys.exit(code)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
tasks = int(said.getvalue().split()[1])  # "wrote N posteriors to ..."
print(json.dumps({"tasks": tasks, "infer_s": seconds, **spent, "peak_rss_mb": peak}))
"""

# perfbench's sweep request, less its nbi model; EM runs at LEARN_ARGS.
SWEEP_ARGS = {"model_kinds": ["apm", "nbap", "mv"], "strategies": ["greedy", "equal"],
              "budgets": [6, 18, 30], "folds": 5, "costs": [2, 3, 4], "seed": SEED}
SWEEP_MAX_TASKS = 20_000
# The ladder's sweeper: one sweep, in its own interpreter, IG as the CLI's defaults.
SWEEP = """
import json, resource, sys, time
from crowdplan.evaluation import budget_sweep
from crowdplan.infogain import IgConfig
from crowdplan.io import read_votes_csv
from crowdplan.learning import EmConfig
data, _ = read_votes_csv(sys.argv[1])
args, em = json.loads(sys.argv[2]), EmConfig(**json.loads(sys.argv[3]))
start = time.perf_counter()
budget_sweep(data, ig_cfg=IgConfig(seed=args["seed"]), em_cfg=em, **args)
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"tasks": len(data), "sweep_s": seconds, "peak_rss_mb": peak}))
"""


def source_digest() -> str:
    """sha256 over the package's Python files, name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crowdplan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_all(trace: int) -> dict[str, dict]:
    """One `--workload all` run; each workload's report, by name."""
    argv = [sys.executable, str(RUN), "--workload", "all", "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    reports = {}
    for line in proc.stdout.splitlines():
        if line.startswith("# perfbench "):
            name = line.split()[2]
            reports[name] = json.loads((OUT / name / f"report_trace{trace}.json").read_text())
    if proc.returncode != 0:
        raise SystemExit(f"record_bench: perfbench/run.py --trace {trace} exited {proc.returncode}")
    return reports


def _run(what: str, argv: list[str]) -> str:
    """The stdout of a ladder step run on this tree's package."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"record_bench: ladder {what} exited {proc.returncode}")
    return proc.stdout


def ladder(sizes: tuple[int, ...] = LADDER_TASKS) -> dict[str, dict]:
    """The ladder's entry per number of tasks: the read rung, with the learn rung
    under `"learn"`, the infer rung under `"infer"` and, up to `SWEEP_MAX_TASKS`,
    the sweep rung under `"sweep"`."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for tasks in sizes:
            votes = Path(tmp) / f"votes_{tasks}.csv"
            _run("simulate", ["-m", "crowdplan.cli", "simulate", "--model", str(MODEL),
                              "--plan", LADDER_PLAN, "--tasks", str(tasks), "--seed", str(SEED),
                              "--out", str(votes)])
            read = json.loads(_run("read", ["-c", READ, str(votes), str(LADDER_RUNS)]))
            learn = json.loads(_run("learn", ["-c", LEARN, str(votes), json.dumps(LEARN_ARGS)]))
            learn["us_per_task"] = learn["fit_s"] / learn["tasks"] * 1e6
            infer = json.loads(_run("infer", ["-c", INFER, str(MODEL), str(votes),
                                              str(Path(tmp) / "posteriors.csv")]))
            infer["us_per_task"] = infer["infer_s"] / infer["tasks"] * 1e6
            out[str(tasks)] = {**read, "us_per_row": read["best_s"] / read["rows"] * 1e6,
                               "learn": learn, "infer": infer}
            if tasks <= SWEEP_MAX_TASKS:
                sweep = json.loads(_run("sweep", ["-c", SWEEP, str(votes), json.dumps(SWEEP_ARGS),
                                                  json.dumps(LEARN_ARGS)]))
                sweep["us_per_task"] = sweep["sweep_s"] / sweep["tasks"] * 1e6
                out[str(tasks)]["sweep"] = sweep
            votes.unlink()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    args = parser.parse_args(argv)
    untraced = run_all(0)
    traced = run_all(1)
    workloads = {}
    for name in sorted(untraced.keys() | traced.keys()):
        if name not in untraced or name not in traced:
            print(f"record_bench: no {'un' if name not in untraced else ''}traced report "
                  f"for {name}", file=sys.stderr)
            return 1
        runs = {"untraced": untraced[name], "traced": traced[name]}
        workloads[name] = {
            "end_to_end": runs["untraced"]["metrics"],
            "per_layer": runs["traced"]["metrics"],
            **{f"{kind}_run": {"attempted": r["attempted"], "failed": len(r["failures"]),
                               "passes": r.get("passes"), "env": r["env"]}
               for kind, r in runs.items()},
        }
        if any(r["failures"] for r in runs.values()):
            failures = [r["failures"] for r in runs.values()]
            print(f"record_bench: {name} had failures: {failures}", file=sys.stderr)
            return 1
    bench = {
        "bench": args.n,
        "seed": SEED,
        "seconds": SECONDS,
        "command": f"python3 perfbench/run.py --workload all --seed {SEED} "
                   f"--seconds {SECONDS} --trace 0|1",
        "source_sha256": source_digest(),
        "workloads": workloads,
        "ladder": {
            "simulate": f"simulate --model {MODEL.relative_to(ROOT)} --plan {LADDER_PLAN} "
                        f"--seed {SEED}",
            "runs": LADDER_RUNS,
            "learn": LEARN_ARGS,
            "infer": f"infer --model {MODEL.relative_to(ROOT)} --model-kind apm",
            "sweep": SWEEP_ARGS,
            "tasks": ladder(),
        },
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}: {', '.join(workloads)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
