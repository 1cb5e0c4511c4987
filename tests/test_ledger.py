"""`tools/ledger.py`: a rerun records the same bytes, a changed output is named, and
a plan or sweep entry that moved is told apart by its parsed result or its rows."""

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
    `ig` alone "ig digits only" and one in counts or mode "plan changed"."""
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
    opt = before["plan/1/a0.opt.30"]["plan"]
    assert ledger.compare(before, after) == [
        "plan/1/a0.equal.30: plan, stderr, stdout",
        "plan/1/a0.greedy.9: ig digits only (|d ig| 1e-15)",
        f"plan/1/a0.opt.30: plan changed: exact {opt['counts']} -> exact [0, 0, 10]",
        "largest |d ig| of the ig-digit entries: 1e-15",
    ]
