"""crowdplan benchmark: closed-loop CLI workloads, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # crowd, plan and sweep in turn

Each run builds its inputs from --seed, sets up several times (setup_s is the
median), runs one discarded warm-up pass whose outputs are checked in full,
then repeats passes while another one fits in --seconds. Every later pass must
reproduce the warm-up outputs byte for byte. Requests are in-process calls to
`crowdplan.cli.main(argv)` from one client in a closed loop, at the default
--threads 1. Each request time is scaled to a reference machine speed by
calibration slices timed around it (calibrate.py).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics (see perfbench/README.md).
Report lines start with '#'; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. Inputs, outputs, spans and a
JSON report are left in perfbench/out/<workload>/.

Only the benchmark's own processes are measured: no system-wide tracing, no
cache dropping, no machine settings changed.
"""

import os

# Pin BLAS threads for this process and the processes it starts, before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
os.environ.pop("CROWDPLAN_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def _missing_program() -> str | None:
    for need in (SRC / "crowdplan" / "cli.py", TESTS / "_oracles.py"):
        if not need.is_file():
            return f"perfbench: {need} not found; run from the root of a crowdplan checkout"
    return None


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    problem = _missing_program()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    import harness

    if not Path(harness.crowdplan.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: crowdplan was imported from outside {SRC}", file=sys.stderr)
        return 2
    result = harness.run(name, seed, seconds, trace, HERE / "out" / name, SRC, BLAS_ENV)
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    code = 0
    for name in metrics.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:]
        if proc.returncode != 0 or not last or not json.loads(last[0]).get("correct"):
            code = 1
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crowdplan benchmark")
    parser.add_argument("--workload", required=True, choices=[*metrics.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
