"""`tools/ledger.py`: a rerun records the same bytes, a changed output is named, and
a plan, sweep, learn or infer entry that moved is told apart by its parsed result,
its rows, its fit report or its predictions."""

import importlib.util
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import crowdplan.cli

ROOT = Path(__file__).resolve().parent.parent


def _load_ledger():
    """The ledger module, loaded without keeping its sys.path and environment edits."""
    spec = importlib.util.spec_from_file_location("ledger", ROOT / "tools" / "ledger.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "path", list(sys.path)), mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_ledger_reruns_the_same_and_names_an_edited_output(tmp_path, capsys):
    ledger = _load_ledger()
    first, second, planted = (tmp_path / f"{name}.json" for name in ("first", "second", "planted"))
    run = ["--seeds", "1", "--workloads", "sweep", "--out"]
    assert ledger.main(run + [str(first)]) == 0
    assert ledger.main(run + [str(second)]) == 0
    entries = json.loads(first.read_text())["entries"]
    assert sorted(entries) == ["sweep/1/inputs", "sweep/1/sweep"]
    assert entries["sweep/1/sweep"]["rc"] == 0
    capsys.readouterr()
    assert ledger.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "same: 2 entries\n"

    sweep = crowdplan.cli.budget_sweep

    def edited(**change):
        def run_edited(*args, **kwargs):
            result = sweep(*args, **kwargs)
            row = replace(result.fold_rows[0], **change)
            return replace(result, fold_rows=(row,) + result.fold_rows[1:])
        return run_edited

    # A sweep entry keeps the digest of its CSV without the accuracy and NLL
    # columns, so an edit to those alone is told apart from one to any other.
    for change, says in (({"accuracy": -1.0}, "sweep metrics only"),
                         ({"tasks_skipped": -1}, "sweep rows changed: output, rows")):
        with mock.patch.object(crowdplan.cli, "budget_sweep", edited(**change)):
            assert ledger.main(run + [str(planted)]) == 0
        capsys.readouterr()
        assert ledger.main(["--compare", str(first), str(planted)]) == 1
        assert capsys.readouterr().out == f"sweep/1/sweep: {says}\n"


def test_plan_entries_keep_their_result_and_compare_by_it():
    """A `plan` entry keeps the parsed result; `--compare` calls a difference in
    `ig` or `stderr` alone "ig digits only" and one in counts or mode "plan changed"."""
    ledger = _load_ledger()
    before = ledger.record(["plan"], [1])
    greedy = before["plan/1/a0.greedy.9"]["plan"]
    assert (greedy["counts"], greedy["mode"]) == ([1, 1, 1], "exact")
    assert all("plan" in entry for key, entry in before.items() if not key.endswith("inputs"))

    after = json.loads(json.dumps(before))
    nudged = after["plan/1/a0.greedy.9"]
    nudged["plan"]["ig"] += 1e-15
    nudged["stdout"] = "changed"
    moved = after["plan/1/a0.opt.30"]
    moved["plan"]["counts"] = [0, 0, 10]
    moved["stdout"] = "changed"
    also_stderr = after["plan/1/a0.equal.30"]
    also_stderr["plan"]["ig"] += 1e-15
    also_stderr["stdout"] = also_stderr["stderr"] = "changed"
    sampled = after["plan/1/b.sampled"]
    assert sampled["plan"]["mode"] == "sampled"
    sampled["plan"]["stderr"] *= 1 + 2**-40  # a sampled estimate's standard error alone
    sampled["stdout"] = "changed"
    d_stderr = sampled["plan"]["stderr"] - before["plan/1/b.sampled"]["plan"]["stderr"]
    opt = before["plan/1/a0.opt.30"]["plan"]
    assert ledger.compare(before, after) == [
        "plan/1/a0.equal.30: plan, stderr, stdout",
        "plan/1/a0.greedy.9: ig digits only (|d ig| 1e-15)",
        f"plan/1/a0.opt.30: plan changed: exact {opt['counts']} -> exact [0, 0, 10]",
        f"plan/1/b.sampled: ig digits only (|d ig| 0, |d stderr| {d_stderr:.2g})",
        "largest |d ig| of the ig-digit entries: 1e-15",
    ]


def test_learn_and_infer_entries_keep_their_fit_and_predictions():
    """A `learn` entry keeps its report without the final log-likelihood under
    `fit`, an `infer` entry the digest of its task ids and predictions; a change
    that keeps them is told apart from one that moves them."""
    ledger = _load_ledger()
    before = ledger.record(["crowd"], [1])
    assert set(before["crowd/1/learn.apm"]["fit"]) == {
        "iterations", "converged", "restart_index", "sparse_paths", "sparse_workers"
    }
    infers = sorted(key for key in before if "/infer." in key)
    assert len(infers) == 5 and all(before[key]["predictions"] for key in infers)
    assert ledger._predictions(b"task_id,prediction,confidence\r\nt1,a,0.5\r\n") == ledger._sha(
        "task_id,prediction\nt1,a"
    )

    fit_em, posteriors = crowdplan.cli.fit_em, crowdplan.cli.table_posteriors

    def refit(**change):
        def run(*args, **kwargs):
            model, report = fit_em(*args, **kwargs)
            return model, replace(report, **{k: f(getattr(report, k)) for k, f in change.items()})
        return run

    def rescore(nudge, flip):
        def run(*args, **kwargs):
            probs, pred, degenerate = posteriors(*args, **kwargs)
            return probs * nudge, (pred + flip) % probs.shape[1], degenerate
        return run

    learns = ("crowd/1/learn.apm", "crowd/1/learn.pw")  # the two fit by EM
    for name, target, keys, says in (
        ("fit_em", refit(final_log_likelihood=lambda v: v - 1.0), learns, "fit digits only"),
        ("fit_em", refit(iterations=lambda v: v + 1), learns, "fit changed: fit, stdout"),
        ("table_posteriors", rescore(1 - 2**-40, 0), infers, "posterior digits only"),
        ("table_posteriors", rescore(1.0, 1), infers, "predictions changed: output, predictions"),
    ):
        with mock.patch.object(crowdplan.cli, name, target):
            after = ledger.record(["crowd"], [1])
        assert ledger.compare(before, after) == [f"{key}: {says}" for key in keys]
