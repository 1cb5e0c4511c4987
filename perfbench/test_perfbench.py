"""Tests of the benchmark itself: its checks catch bad outputs, its tracer adds up.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import csv
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import pytest  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import crowdplan.cli  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "CROWD_TASKS", 120)
    monkeypatch.setattr(workloads, "SWEEP_TASKS", 60)


def _swap_posterior_columns(path: Path) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for r in rows[1:]:
        r[3], r[4] = r[4], r[3]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _corrupting_main(monkeypatch, corrupt):
    real = crowdplan.cli.main

    def main(argv):
        rc = real(argv)
        corrupt(argv)
        return rc

    monkeypatch.setattr(crowdplan.cli, "main", main)


def test_clean_pass_has_no_failures(small, tmp_path):
    for name in metrics.WORKLOADS:
        runner = harness.Runner(workloads.build(name, 3, tmp_path / name))
        runner.run_pass()
        runner.run_pass()
        assert runner.failures == []
        assert runner.attempted == 2 * len(runner.workload.requests)


def test_swapped_posterior_columns_count_as_failures(small, tmp_path, monkeypatch):
    def corrupt(argv):
        if argv[0] == "infer":
            _swap_posterior_columns(Path(argv[argv.index("--out") + 1]))

    _corrupting_main(monkeypatch, corrupt)
    runner = harness.Runner(workloads.build("crowd", 3, tmp_path))
    runner.run_pass()
    failed = sorted(f.split(":")[0] for f in runner.failures)
    assert failed == ["infer.apm.apm", "infer.apm.pw", "infer.mv.apm", "infer.nbap.apm", "infer.nbi.nbi"]


def test_output_changed_after_warm_up_counts_as_failure(small, tmp_path, monkeypatch):
    runner = harness.Runner(workloads.build("sweep", 3, tmp_path))
    runner.run_pass()
    assert runner.failures == []

    def corrupt(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(out.read_text().replace(",0\n", ",1\n", 1))

    _corrupting_main(monkeypatch, corrupt)
    runner.run_pass()
    assert runner.failures == ["sweep: output differs from the warm-up pass"]


def test_crash_and_bad_exit_count_as_failures(small, tmp_path, monkeypatch):
    runner = harness.Runner(workloads.build("plan", 3, tmp_path))

    def main(argv):
        if "opt" in argv:
            raise RuntimeError("boom")
        return 4 if "best" in argv else 0

    monkeypatch.setattr(crowdplan.cli, "main", main)
    runner.run_pass()
    reasons = {f.split(":")[0]: f for f in runner.failures}
    assert "exit code -1" in reasons["a0.opt.9"]
    assert "exit code 4" in reasons["a0.best.30"]
    # every other request printed nothing, which its check rejects
    assert len(runner.failures) == runner.attempted


def test_plan_checks_reject_bad_plans(tmp_path):
    costs = [2, 3, 4]
    over = json.dumps({"counts": [5, 0, 0], "cost": "10", "ig": 0.3})
    assert "over budget" in checks.plan_affordable(over, costs, 9)
    wrong_cost = json.dumps({"counts": [1, 1, 0], "cost": "4", "ig": 0.3})
    assert "reports cost" in checks.plan_affordable(wrong_cost, costs, 9)
    greedy = json.dumps({"counts": [1, 0, 0], "ig": 0.01})
    opt = json.dumps({"counts": [1, 1, 1], "ig": 0.3})
    assert "below" in checks.greedy_bound(greedy, opt, costs, 9)
    model = tmp_path / "m.json"
    inputs.write_json(model, workloads._bundled())
    off = json.dumps({"counts": [1, 1, 1], "ig": 0.2857566987949229 + 1e-6})
    assert "differs from enumeration" in checks.plan_exact_ig(off, model)


def test_inputs_depend_only_on_seed(tmp_path):
    a = workloads.build("plan", 5, tmp_path / "a").input_digest
    b = workloads.build("plan", 5, tmp_path / "b").input_digest
    c = workloads.build("plan", 6, tmp_path / "c").input_digest
    assert a == b != c


def test_ragged_votes_leave_paths_empty():
    model = inputs.crowd_model(1, workloads._bundled())
    rows, tasks = inputs.ragged_votes(1, "t", model, 300, labeled=True)
    per_task = [len(votes) for _, votes in tasks.values()]
    assert min(per_task) < 3 and max(per_task) == 3
    assert len(rows) == sum(len(v) for _, votes in tasks.values() for v in votes.values())
    assert all(len(v) <= inputs.MAX_VOTES_PER_PATH for _, votes in tasks.values() for v in votes.values())


def test_layer_self_times_add_up_to_wall_time():
    # main(0..10) -> predict(1..6) -> apm_log_joint(2..5); main -> read(7..9)
    spans = [
        (3, 2, "inference", "apm_log_joint", 2.0, 5.0, None),
        (2, 1, "inference", "predict", 1.0, 6.0, "apm"),
        (4, 1, "io", "read_votes", 7.0, 9.0, "v.csv"),
        (1, 0, "cli", "main", 0.0, 10.0, None),
    ]
    self_s, wall = tracing.self_times(spans)
    assert wall == 10.0
    assert self_s["cli"] == 3.0 and self_s["inference"] == 5.0 and self_s["io"] == 2.0
    assert math.isclose(sum(self_s.values()), wall)
    layer = tracing.layer_metrics(spans, lambda path: 40)
    assert layer["inference.apm_us_per_task"] == 5e6
    assert layer["io.read_rows_per_s"] == 20.0


def test_tracer_restores_originals_and_sums(small, tmp_path):
    runner = harness.Runner(workloads.build("crowd", 3, tmp_path))
    original = crowdplan.cli.read_votes_csv
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.run_pass()
    assert crowdplan.cli.read_votes_csv is original
    assert runner.failures == []
    layer = tracing.layer_metrics(tracer.spans, lambda path: runner.workload.rows_of.get(path, 0))
    total = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
    assert math.isclose(total, layer["trace.wall_s"], rel_tol=1e-9)
    assert layer["inference.calls"] > 0 and layer["inference.calls"] % 5 == 0
    assert layer["io.read_rows_per_s"] > 0


def test_benchmark_json_matches_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_calibrated_pass_scales_every_request(small, tmp_path):
    runner = harness.Runner(workloads.build("sweep", 3, tmp_path))
    done = runner.run_pass()
    assert runner.failures == []
    for result in done.values():
        assert result.slowdown > 0
        assert math.isclose(result.normalised * result.slowdown, result.seconds)


def test_slowdown_is_time_per_slice_over_reference():
    ref = calibrate.REF_SLICE_S
    assert math.isclose(calibrate.slowdown((2 * ref, 2), (6 * ref, 2)), 2.0)
