"""Metric names, units and directions; BENCHMARK.json lists the same names.

End-to-end metrics are measured with tracing off and are the same for every
workload. A "pass" is one run of the workload's fixed request mix; each
request's time is its median over the measured passes of one run, after each
time is scaled to the reference machine speed (calibrate.py).

Per-layer metrics come from the traced run. A layer is a crowdplan module
(`_rng` and `_parallel` appear as `rng` and `parallel`). `<layer>.self_s` is
the time inside the layer's calls minus the time of the calls it makes into
other traced functions; the self times of all layers add up to
`trace.wall_s`, the traced time inside `crowdplan.cli.main`. Counts and
times are per traced pass; a layer the workload does not reach reports 0.
"""

WORKLOADS = ("crowd", "plan", "sweep")

# name: (unit, better)
END_TO_END = {
    "pass_s": ("s", "lower"),          # one pass of the request mix
    "req_ms_gmean": ("ms", "lower"),   # geometric mean of the request latencies in a pass
    "req_ms_p90": ("ms", "lower"),     # 90th-percentile request latency within a pass
    "setup_s": ("s", "lower"),         # fresh-interpreter import plus input generation
    "peak_rss_mb": ("MB", "lower"),    # peak resident memory of the benchmark process
}

PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "io.self_s": ("s", "lower"),
    "io.read_votes_s": ("s", "lower"),
    "io.read_rows_per_s": ("1/s", "higher"),
    "io.write_votes_s": ("s", "lower"),
    "model.self_s": ("s", "lower"),
    "model.load_s": ("s", "lower"),
    "simulator.self_s": ("s", "lower"),
    "simulator.generate_s": ("s", "lower"),
    "simulator.inject_s": ("s", "lower"),
    "inference.self_s": ("s", "lower"),
    "inference.calls": ("count", "lower"),
    "inference.apm_us_per_task": ("us", "lower"),
    "inference.nbap_us_per_task": ("us", "lower"),
    "inference.mv_us_per_task": ("us", "lower"),
    "inference.nbi_us_per_task": ("us", "lower"),
    "learning.self_s": ("s", "lower"),
    "learning.fit_em_s": ("s", "lower"),
    "learning.fit_nbi_s": ("s", "lower"),
    "learning.log_likelihood_s": ("s", "lower"),
    "learning.em_iterations": ("count", "lower"),
    "evaluation.self_s": ("s", "lower"),
    "evaluation.execute_us_per_task": ("us", "lower"),
    "planner.self_s": ("s", "lower"),
    "planner.greedy_s": ("s", "lower"),
    "planner.opt_s": ("s", "lower"),
    "planner.ig_calls": ("count", "lower"),
    "infogain.self_s": ("s", "lower"),
    "infogain.exact_calls": ("count", "lower"),
    "infogain.exact_ms_per_call": ("ms", "lower"),
    "infogain.exact_count_vectors": ("count", "lower"),
    "infogain.sampled_calls": ("count", "lower"),
    "infogain.sampled_ms_per_call": ("ms", "lower"),
    "infogain.sampled_draws": ("count", "lower"),
    "rng.self_s": ("s", "lower"),
    "rng.substream_calls": ("count", "lower"),
    "rng.substream_s": ("s", "lower"),
    "parallel.generate_speedup_2t": ("ratio", "higher"),
    "parallel.sampled_ig_speedup_2t": ("ratio", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
