"""`tools/record_bench.py`'s ladder, read, learn, infer and sweep rungs, runs end to end at a
tiny size."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_read_ladder_times_each_size_in_its_own_interpreter():
    path = ROOT / "tools" / "record_bench.py"
    spec = importlib.util.spec_from_file_location("record_bench", path)
    record_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record_bench)
    record_bench.SWEEP_MAX_TASKS = 5  # the sweep's 5 folds need 5 tasks
    entries = record_bench.ladder((5, 7))
    assert sorted(entries) == ["5", "7"]
    # plan 3,3,3 puts 9 votes on every task
    assert [entries[n]["rows"] for n in ("5", "7")] == [45, 63]
    for entry in entries.values():
        assert entry["best_s"] > 0 and entry["peak_rss_mb"] > 0
        assert entry["us_per_row"] == entry["best_s"] / entry["rows"] * 1e6
        learn = entry["learn"]
        assert learn["fit_s"] > 0 and learn["peak_rss_mb"] > 0
        assert learn["us_per_task"] == learn["fit_s"] / learn["tasks"] * 1e6
    assert [entries[n]["learn"]["tasks"] for n in ("5", "7")] == [5, 7]
    for n in ("5", "7"):
        infer = entries[n]["infer"]
        assert infer["tasks"] == int(n) and infer["peak_rss_mb"] > 0
        assert 0 < infer["read_s"] and 0 < infer["posteriors_s"]
        assert infer["read_s"] + infer["posteriors_s"] < infer["infer_s"]
        assert infer["us_per_task"] == infer["infer_s"] / infer["tasks"] * 1e6
    sweep = entries["5"]["sweep"]
    assert sweep["tasks"] == 5 and sweep["sweep_s"] > 0 and sweep["peak_rss_mb"] > 0
    assert sweep["us_per_task"] == sweep["sweep_s"] / sweep["tasks"] * 1e6
    assert "sweep" not in entries["7"]  # the rung stops above SWEEP_MAX_TASKS
