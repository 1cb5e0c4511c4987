"""Spans around crowdplan's cross-module calls, recorded from outside the package.

Each wrapper replaces a function under the name its caller looks it up by
(`crowdplan.cli.read_votes_csv`, `crowdplan.evaluation.predict`, ...), so the
package itself is not edited. A span is (id, parent id, layer, name, start,
end, detail); spans nest through an explicit stack, which is exact because
every measured request runs on one thread. A layer's self time is the time
its spans cover minus the time their child spans cover, so the self times of
all layers add up to the time spent inside `crowdplan.cli.main`.

Wrappers are installed only for a traced pass and removed after it. Names
that a later version of the package no longer has are skipped, so the same
benchmark can measure old and new code.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

LAYERS = (
    "cli", "io", "model", "simulator", "inference", "learning",
    "evaluation", "planner", "infogain", "rng",
)


def _path_arg(args, kwargs):
    return str(args[0] if args else kwargs["path"])


def _kind_arg(args, kwargs):
    kind = args[0] if args else kwargs["kind"]
    return str(getattr(kind, "value", kind))


def _exact_arg(args, kwargs):
    model, plan = args[0], args[1] if len(args) > 1 else kwargs["plan"]
    return model.num_labels, tuple(int(c) for c in getattr(plan, "counts", plan))


def _sampled_arg(args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return int(cfg.num_samples)


# (module, attribute, layer, span name, detail extractor)
TARGETS: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("crowdplan.cli", "main", "cli", "main", None),
    ("crowdplan.cli", "read_votes_csv", "io", "read_votes", _path_arg),
    ("crowdplan.cli", "write_votes_csv", "io", "write_votes", None),
    ("crowdplan.cli", "load_model", "model", "load", None),
    ("crowdplan.cli", "model_from_dict", "model", "load", None),
    ("crowdplan.cli", "nbi_model_from_dict", "model", "load", None),
    ("crowdplan.cli", "save_model", "model", "save", None),
    ("crowdplan.cli", "nbi_model_to_dict", "model", "save", None),
    ("crowdplan.cli", "with_labels", "model", "edit", None),
    ("crowdplan.cli", "with_costs", "model", "edit", None),
    ("crowdplan.evaluation", "with_costs", "model", "edit", None),
    ("crowdplan.cli", "generate", "simulator", "generate", None),
    ("crowdplan.cli", "inject_correlation", "simulator", "inject", None),
    ("crowdplan.cli", "predict", "inference", "predict", _kind_arg),
    ("crowdplan.evaluation", "predict", "inference", "predict", _kind_arg),
    ("crowdplan.inference", "apm_log_joint", "inference", "apm_log_joint", None),
    ("crowdplan.cli", "fit_em", "learning", "fit_em", None),
    ("crowdplan.evaluation", "fit_em", "learning", "fit_em", None),
    ("crowdplan.cli", "fit_nbi", "learning", "fit_nbi", None),
    ("crowdplan.evaluation", "fit_nbi", "learning", "fit_nbi", None),
    ("crowdplan.learning", "log_likelihood", "learning", "log_likelihood", None),
    ("crowdplan.cli", "budget_sweep", "evaluation", "budget_sweep", None),
    ("crowdplan.evaluation", "execute_plan_on_sample", "evaluation", "execute", None),
    ("crowdplan.cli", "build_plan", "planner", "build_plan", None),
    ("crowdplan.evaluation", "build_plan", "planner", "build_plan", None),
    ("crowdplan.cli", "approximation_bound", "planner", "bound", None),
    ("crowdplan.planner", "greedy_plan", "planner", "greedy", None),
    ("crowdplan.planner", "exhaustive_opt", "planner", "opt", None),
    ("crowdplan.planner", "baseline_plan", "planner", "baseline", None),
    ("crowdplan.planner", "information_gain", "infogain", "information_gain", None),
    ("crowdplan.infogain", "exact_conditional_entropy", "infogain", "exact", _exact_arg),
    ("crowdplan.infogain", "sampled_conditional_entropy", "infogain", "sampled", _sampled_arg),
    ("crowdplan.simulator", "substream", "rng", "substream", None),
    ("crowdplan.evaluation", "substream", "rng", "substream", None),
    ("crowdplan.planner", "substream", "rng", "substream", None),
    ("crowdplan.infogain", "substream", "rng", "substream", None),
    ("crowdplan.learning", "substream", "rng", "substream", None),
)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1

    def wrap(self, layer: str, name: str, fn: Callable, detail: Callable | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            info = None
            if detail is not None:
                try:
                    info = detail(args, kwargs)
                except (IndexError, KeyError, AttributeError, TypeError, ValueError):
                    info = None
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, layer, name, start, end, info))

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target that exists; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, layer, name, detail in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, name, original, detail))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


FIELDS = ("pass", "id", "parent", "layer", "name", "start", "end", "detail")


def write_spans(path: Path, passes: list[list[tuple]]) -> None:
    """Write every traced pass's spans as JSON lines: a header, then one array per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": FIELDS, "clock": "time.perf_counter, seconds"}) + "\n")
        for index, spans in enumerate(passes):
            for span in sorted(spans):
                fh.write(json.dumps([index, *span]) + "\n")


def self_times(spans) -> tuple[dict[str, float], float]:
    """Per-layer self time and the wall time covered by root spans."""
    child = defaultdict(float)
    for _, parent, _, _, start, end, _ in spans:
        child[parent] += end - start
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for sid, _, layer, _, start, end, _ in spans:
        per_layer[layer] = per_layer.get(layer, 0.0) + (end - start) - child[sid]
    return per_layer, child[0]


def _exact_count_vectors(k: int, counts) -> int:
    total = 1
    for c in counts:
        total *= math.comb(c + k - 1, k - 1)
    return total


def layer_metrics(spans, rows_of: Callable[[str], int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `rows_of(path)` gives the number of vote rows in a file the pass read.
    """
    dur = defaultdict(float)
    calls = defaultdict(int)
    predict_s = defaultdict(float)
    predict_n = defaultdict(int)
    rows_read = 0
    exact_vectors = 0
    sampled_draws = 0
    for _, _, layer, name, start, end, info in spans:
        key = f"{layer}.{name}"
        dur[key] += end - start
        calls[key] += 1
        if key == "inference.predict" and info is not None:
            predict_s[info] += end - start
            predict_n[info] += 1
        elif key == "io.read_votes" and info is not None:
            rows_read += rows_of(info)
        elif key == "infogain.exact" and info is not None:
            exact_vectors += _exact_count_vectors(*info)
        elif key == "infogain.sampled" and info is not None:
            sampled_draws += info

    def per_call(key: str, scale: float) -> float:
        return dur[key] / calls[key] * scale if calls[key] else 0.0

    self_s, wall = self_times(spans)
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update(
        {
            "io.read_votes_s": dur["io.read_votes"],
            "io.read_rows_per_s": rows_read / dur["io.read_votes"] if dur["io.read_votes"] else 0.0,
            "io.write_votes_s": dur["io.write_votes"],
            "model.load_s": dur["model.load"],
            "simulator.generate_s": dur["simulator.generate"],
            "simulator.inject_s": dur["simulator.inject"],
            "inference.calls": calls["inference.predict"],
            "learning.fit_em_s": dur["learning.fit_em"],
            "learning.fit_nbi_s": dur["learning.fit_nbi"],
            "learning.log_likelihood_s": dur["learning.log_likelihood"],
            "evaluation.execute_us_per_task": per_call("evaluation.execute", 1e6),
            "planner.greedy_s": dur["planner.greedy"],
            "planner.opt_s": dur["planner.opt"],
            "planner.ig_calls": calls["infogain.information_gain"],
            "infogain.exact_calls": calls["infogain.exact"],
            "infogain.exact_ms_per_call": per_call("infogain.exact", 1e3),
            "infogain.exact_count_vectors": exact_vectors,
            "infogain.sampled_calls": calls["infogain.sampled"],
            "infogain.sampled_ms_per_call": per_call("infogain.sampled", 1e3),
            "infogain.sampled_draws": sampled_draws,
            "rng.substream_calls": calls["rng.substream"],
            "rng.substream_s": dur["rng.substream"],
            "trace.wall_s": wall,
        }
    )
    for kind in ("apm", "nbap", "mv", "nbi"):
        n = predict_n[kind]
        out[f"inference.{kind}_us_per_task"] = predict_s[kind] / n * 1e6 if n else 0.0
    return out
