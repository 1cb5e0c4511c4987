"""Measurement loop: set-up, warm-up, measured passes, traced passes, report."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import checks
import calibrate
import crowdplan.cli
import metrics as metric_table
import tracing
import workloads

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
PROBE_REPEATS = 3
# Calibration slices before the first request and around each set-up.
LEAD_SLICES = 40


def quantiles(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


class Runner:
    """Sends a workload's requests and counts failures.

    The warm-up pass runs every output check; later passes must reproduce its
    outputs byte for byte. A calibration slice follows every request, and each
    request's slowdown is taken from the slices on either side of it.
    """

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.reference: dict[str, tuple[str, str | None]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.last_cal = calibrate_lead()

    @staticmethod
    def call(argv) -> tuple[workloads.Result, str]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = crowdplan.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing request is a failed request; keep measuring
            rc = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        return workloads.Result(rc=rc, stdout=out.getvalue(), seconds=seconds, digest=""), err.getvalue()

    def _judge(self, req: workloads.Request, result: workloads.Result, done: dict) -> str | None:
        if req.name not in self.reference:
            try:
                reason = req.check(result, done)
            except Exception as exc:  # malformed output fails its check
                reason = f"check raised {exc!r}"
            self.reference[req.name] = (result.digest, reason)
            return reason
        digest, reason = self.reference[req.name]
        return "output differs from the warm-up pass" if result.digest != digest else reason

    def run_pass(self) -> dict[str, workloads.Result]:
        done: dict[str, workloads.Result] = {}
        for req in self.workload.requests:
            result, stderr = self.call(req.argv)
            if result.rc != 0:
                reason = f"exit code {result.rc}: {stderr.strip()[-300:]}"
            else:
                result = dataclasses.replace(result, digest=checks.digest(result.stdout, req.output))
                reason = self._judge(req, result, done)
            self.attempted += 1
            if reason is not None:
                self.failures.append(f"{req.name}: {reason}")
            cal = calibrate.after(result.seconds)
            result = dataclasses.replace(result, slowdown=calibrate.slowdown(self.last_cal, cal))
            self.last_cal = cal
            done[req.name] = result
        return done


def calibrate_lead() -> tuple[float, int]:
    return calibrate.run(LEAD_SLICES)


def pass_seconds(done: dict) -> float:
    return sum(r.seconds for r in done.values())


def environment(blas_env) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in blas_env},
        "measurement": "own processes only; no system-wide tracing, no cache dropping",
    }


def setup(name: str, seed: int, work: Path, src: Path):
    """Set up SETUP_REPEATS times: a fresh interpreter importing the CLI, then the inputs."""
    times, digests, wl = [], set(), None
    env = dict(os.environ, PYTHONPATH=str(src))
    before = calibrate_lead()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import crowdplan.cli"], env=env, check=True)
        wl = workloads.build(name, seed, work)
        seconds = time.perf_counter() - start
        after = calibrate_lead()
        times.append(seconds / calibrate.slowdown(before, after))
        before = after
        digests.add(wl.input_digest)
    problems = [] if len(digests) == 1 else ["input generation is not deterministic"]
    return wl, statistics.median(times), problems


def _repeat(seconds: float, at_least: int, step) -> None:
    """Step at least `at_least` times, then while another step of the last one's length fits in `seconds`.

    Not starting a step that would overrun keeps a run's length near `seconds`
    even when one step takes several seconds.
    """
    start = time.perf_counter()
    count, last = 0, 0.0
    while count < at_least or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        step()
        last = time.perf_counter() - began
        count += 1


def typical(runner: Runner, passes: list[dict]) -> dict[str, float]:
    """Each request's median normalised time over the passes.

    Raw times of identical requests drift with the machine's speed (see
    calibrate.py); each time is first scaled to the reference speed using the
    calibration slices on either side of it.
    """
    return {
        req.name: statistics.median(p[req.name].normalised for p in passes)
        for req in runner.workload.requests
    }


def end_to_end(runner: Runner, seconds: float, setup_s: float, report: dict) -> dict:
    passes: list[dict] = []
    _repeat(seconds, MIN_PASSES, lambda: passes.append(runner.run_pass()))
    times = typical(runner, passes)
    latencies_ms = [s * 1e3 for s in times.values()]
    report["passes"] = len(passes)
    report["jobs"] = job_metrics(runner, passes, times)
    report["pass_seconds"] = [pass_seconds(p) for p in passes]
    report["slowdowns"] = [statistics.median(r.slowdown for r in p.values()) for p in passes]
    report["raw_pass_s"] = {"min": min(report["pass_seconds"]), "median": statistics.median(report["pass_seconds"])}
    return {
        "pass_s": sum(times.values()),
        "req_ms_gmean": statistics.geometric_mean(latencies_ms),
        "req_ms_p90": quantiles(latencies_ms)[1],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def job_metrics(runner: Runner, passes: list[dict], times: dict[str, float]) -> dict[str, tuple[float, int]]:
    """Per-job figures for the report: each request group's total of median normalised times.

    Planning latency percentiles pool every small planning call of the run.
    """
    jobs: dict[str, tuple[float, int]] = {}
    for req in runner.workload.requests:
        total, _ = jobs.get(f"{req.group}_s", (0.0, 0))
        jobs[f"{req.group}_s"] = (total + times[req.name], len(passes))
    small = [
        p[req.name].normalised * 1e3
        for p in passes
        for req in runner.workload.requests
        if req.group == "plan_small"
    ]
    if small:
        p50, p90 = quantiles(small)
        jobs["plan_ms_p50"] = (p50, len(small))
        jobs["plan_ms_p90"] = (p90, len(small))
    return jobs


def traced(runner: Runner, seconds: float, spans_path: Path, report: dict) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes; per-layer figures from the traced ones."""
    untraced_s: list[float] = []
    traced_s: list[float] = []
    per_pass: list[dict] = []
    problems: list[str] = []
    spans: list[list[tuple]] = []

    def pair():
        untraced_s.append(pass_seconds(runner.run_pass()))
        tracer = tracing.Tracer()
        with tracer.installed():
            done = runner.run_pass()
        traced_s.append(pass_seconds(done))
        layer = tracing.layer_metrics(tracer.spans, lambda path: runner.workload.rows_of.get(path, 0))
        total = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
        if abs(total - layer["trace.wall_s"]) > 1e-9 * max(layer["trace.wall_s"], 1.0):
            problems.append(f"layer self times sum to {total}, traced wall time is {layer['trace.wall_s']}")
        layer["learning.em_iterations"] = sum(
            checks.em_iterations(done[req.name].stdout)
            for req in runner.workload.requests
            if req.group == "learn" and done[req.name].rc == 0
        )
        spans.append(tracer.spans)
        per_pass.append(layer)

    _repeat(seconds, MIN_TRACED_PAIRS, pair)
    tracing.write_spans(spans_path, spans)
    values = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    values["trace.overhead_frac"] = min(traced_s) / min(untraced_s) - 1.0
    values.update(speedups(runner.workload))
    report["passes"] = len(per_pass)
    report["spans"] = spans_path.name
    return values, problems


def speedups(workload: workloads.Workload) -> dict[str, float]:
    """Decision data for the thread layer: fastest time at 1 thread over fastest at 2.

    0 means the workload has no such probe, or the CLI rejected --threads.
    """
    out = {"parallel.generate_speedup_2t": 0.0, "parallel.sampled_ig_speedup_2t": 0.0}
    for metric, argv in workload.probes:
        times: dict[int, list[float]] = {1: [], 2: []}
        for _ in range(PROBE_REPEATS):
            for threads in (1, 2):
                result, _ = Runner.call(argv(threads))
                if result.rc == 0:
                    times[threads].append(result.seconds)
        if len(times[1]) == len(times[2]) == PROBE_REPEATS:
            out[metric] = min(times[1]) / min(times[2])
    return out


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, src: Path, blas_env) -> dict:
    """One measured run; prints the report and returns the result object."""
    workload, setup_s, problems = setup(name, seed, work, src)
    runner = Runner(workload)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(blas_env)}
    runner.run_pass()  # warm-up: every output is checked here, then the timings are dropped
    if trace:
        values, trace_problems = traced(runner, seconds, work / "spans.jsonl", report)
        problems += trace_problems
        table = metric_table.PER_LAYER
    else:
        values = end_to_end(runner, seconds, setup_s, report)
        table = metric_table.END_TO_END
    metrics = {m: {"value": float(values[m]), "unit": unit} for m, (unit, _) in table.items()}
    failures = runner.failures + problems
    report["failures"] = failures[:20]
    report["attempted"] = runner.attempted
    report["metrics"] = metrics
    (work / f"report_trace{int(trace)}.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(report, metrics, len(runner.failures))
    return {
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }


def print_report(report: dict, metrics: dict, failed: int) -> None:
    print(f"# perfbench {report['workload']} seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']} passes={report['passes']} (+1 warm-up, discarded)")
    print(f"# env {json.dumps(report['env'])}")
    if "raw_pass_s" in report:
        print(f"# raw pass_s {json.dumps(report['raw_pass_s'])} slowdown median "
              f"{statistics.median(report['slowdowns']):.4f}")
    n = report["passes"]
    for name, m in metrics.items():
        samples = {"peak_rss_mb": 1, "setup_s": SETUP_REPEATS}.get(name, n)
        print(f"# {name:34s} {m['value']:14.6g} {m['unit']:6s} n={samples}")
    for name, (value, count) in report.get("jobs", {}).items():
        unit = "ms" if "_ms_" in name else "s"
        print(f"# {name:34s} {value:14.6g} {unit:6s} n={count}")
    attempted = report["attempted"]
    print(f"# failed_ops {failed}/{attempted} = {failed / attempted:.4g}")
    for line in report["failures"]:
        print(f"# FAILED {line}")

