"""End-to-end acceptance checks for the library's headline guarantees.

Each test exercises one promise: exact inference against brute-force
enumeration, diminishing returns of the plan objective, the greedy
approximation bound, sampling accuracy, parameter recovery, the
overconfidence contrast between the exact and independence-assuming
models, plan diversity, and bitwise determinism. Every test prints a
single PASS/FAIL line; run with `pytest -s` to see them.
"""

import json
import math
import time

import numpy as np

from crowdplan.cli import main
from crowdplan.evaluation import budget_sweep
from crowdplan.infogain import (
    IgConfig,
    IgMode,
    check_submodularity,
    exact_conditional_entropy,
    sampled_conditional_entropies,
)
from crowdplan.learning import EmConfig, fit_em, fit_supervised
from crowdplan.model import Dataset
from crowdplan.planner import approximation_bound, exhaustive_opt, greedy_plan
from crowdplan.simulator import generate, inject_correlation

from _oracles import (
    aligned_worst_row_l1,
    enum_posterior,
    posteriors,
    random_model,
    random_sample,
    sym_model,
)

EXACT = IgConfig(mode=IgMode.EXACT)


def report(num: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_01_posterior_matches_full_joint_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 4))
        per_worker = bool(rng.integers(0, 2))
        model = random_model(rng, n, k=2, per_worker=per_worker)
        sample = random_sample(rng, model, max_votes=2)
        if sum(len(v) for v in sample.votes.values()) > 4:
            sample = random_sample(rng, model, max_votes=1)
        got = posteriors("apm", model, [sample])[0][0]
        want = enum_posterior(model, sample)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-10 and elapsed < 10.0,
        f"max posterior deviation {worst:.2e} over 1000 models in {elapsed:.1f}s",
    )


def test_02_information_gain_has_diminishing_returns():
    start = time.perf_counter()
    trials = violations = 0
    worst_margin = math.inf
    for mi in range(25):
        rng = np.random.default_rng(31000 + mi)
        model = random_model(rng, int(rng.integers(1, 4)), k=2)
        rep = check_submodularity(model, trials=20, seed=mi)
        trials += rep.trials
        violations += len(rep.violations) + len(rep.monotonicity_violations)
        worst_margin = min(worst_margin, rep.worst_margin)
    elapsed = time.perf_counter() - start
    report(
        2,
        trials == 500 and violations == 0 and elapsed < 60.0,
        f"{violations} violations in {trials} nested-plan triples "
        f"(worst margin {worst_margin:.2e}) in {elapsed:.1f}s",
    )


def test_03_greedy_meets_approximation_bound():
    start = time.perf_counter()
    min_ratio = math.inf
    failures = 0
    for trial in range(200):
        rng = np.random.default_rng(77000 + trial)
        n = int(rng.integers(1, 4))
        costs = [int(c) for c in rng.integers(1, 5, size=n)]
        model = random_model(rng, n, k=2, costs=costs)
        budget = int(rng.integers(max(costs), 9))
        greedy = greedy_plan(model, budget, EXACT)
        opt = exhaustive_opt(model, budget)
        bound = approximation_bound(model, budget)
        if greedy.ig.value < bound * opt.ig.value - 1e-9:
            failures += 1
        ratio = 1.0 if opt.ig.value < 1e-12 else greedy.ig.value / opt.ig.value
        min_ratio = min(min_ratio, ratio)
    elapsed = time.perf_counter() - start
    report(
        3,
        failures == 0,
        f"bound held in 200/200 instances, min greedy/opt ratio "
        f"{min_ratio:.4f}, in {elapsed:.1f}s",
    )


def test_04_bound_constants():
    half = sym_model([0.5, 0.5], [0.9], [0.8], costs=[1])
    at_half = approximation_bound(half, 2)
    at_tenth = approximation_bound(half, 10)
    ok = abs(at_half - 0.39) <= 0.005 and abs(at_tenth - 0.59) <= 0.005
    report(
        4,
        ok,
        f"bound({chr(0x3b3)}=0.5) = {at_half:.4f}, bound({chr(0x3b3)}=0.1) = {at_tenth:.4f}",
    )


def test_05_sampled_gain_tracks_exact():
    start = time.perf_counter()
    hits = runs = 0
    worst = 0.0
    for mi in range(20):
        rng = np.random.default_rng(88000 + mi)
        model = random_model(rng, 2, k=2)
        plan = [int(rng.integers(1, 4)), int(rng.integers(1, 4))]
        exact = exact_conditional_entropy(model, plan)
        for seed in range(5):
            cfg = IgConfig(mode=IgMode.SAMPLED, num_samples=50_000, seed=seed)
            [(h, _)] = sampled_conditional_entropies(model, [plan], cfg)
            err = abs(h - exact)
            worst = max(worst, err)
            runs += 1
            hits += err <= 0.02
    elapsed = time.perf_counter() - start
    report(
        5,
        hits >= 95 and runs == 100 and elapsed < 300.0,
        f"{hits}/100 runs within 0.02 nats (worst error {worst:.4f}) "
        f"at 50000 samples in {elapsed:.1f}s",
    )


def test_06_em_recovers_generating_parameters():
    start = time.perf_counter()
    truth = sym_model([0.5, 0.5], [0.8, 0.8], [0.9, 0.75])
    cfg = EmConfig(max_iters=500, restarts=3, seed=0)
    data = generate(truth, [4, 4], 5000, seed=2)
    supervised_model, _ = fit_supervised(data, cfg=cfg)
    supervised_l1 = aligned_worst_row_l1(supervised_model, truth)
    hidden = Dataset.tabulate(**{**data.stored_columns(), "truth": np.full(len(data), -1)})
    hidden_model, _ = fit_em(hidden, cfg=cfg)
    hidden_l1 = aligned_worst_row_l1(hidden_model, truth)
    elapsed = time.perf_counter() - start
    report(
        6,
        supervised_l1 <= 0.05 and hidden_l1 <= 0.08 and elapsed < 120.0,
        f"worst aligned row L1: supervised {supervised_l1:.4f} (limit 0.05), "
        f"hidden {hidden_l1:.4f} (limit 0.08), in {elapsed:.1f}s",
    )


def test_07_exact_model_stays_calibrated_under_correlation():
    start = time.perf_counter()
    truth = sym_model([0.5, 0.5], [0.85, 0.75, 0.7], [0.9, 0.8, 0.75])
    budgets = [3, 12, 21, 30]
    wins = 0
    gaps = {b: [] for b in budgets}
    for run in range(20):
        data = generate(truth, [10, 10, 10], 240, seed=1000 + run)
        bent = inject_correlation(data, 0.5, seed=2000 + run)
        res = budget_sweep(
            bent, ["nbap", "apm"], ["equal"], budgets, folds=2, seed=run
        )
        nll = {(r.model, int(r.budget)): r.neg_log_likelihood for r in res.rows}
        acc = {(r.model, int(r.budget)): r.accuracy for r in res.rows}
        wins += nll[("apm", 30)] <= nll[("nbap", 30)]
        for b in budgets:
            gaps[b].append(abs(acc[("apm", b)] - acc[("nbap", b)]))
    mean_gap = max(float(np.mean(gaps[b])) for b in budgets)
    elapsed = time.perf_counter() - start
    report(
        7,
        wins >= 18 and mean_gap <= 0.05,
        f"exact model beat the per-path baseline on likelihood at budget 30 "
        f"in {wins}/20 runs; largest mean accuracy gap {mean_gap:.4f}; "
        f"{elapsed:.1f}s",
    )


def test_08_greedy_diversifies_across_paths():
    start = time.perf_counter()
    single_path = 0
    for trial in range(20):
        rng = np.random.default_rng(9000 + trial)
        while True:
            accs = rng.uniform(0.70, 0.85, size=3)
            spread = all(
                abs(a - b) >= 0.03
                for i, a in enumerate(accs)
                for b in accs[i + 1 :]
            )
            if spread:
                break
        workers = rng.uniform(0.72, 0.88, size=3)
        model = sym_model([0.5, 0.5], accs, workers)
        for budget in range(4, 9):
            counts = greedy_plan(model, budget, EXACT).plan.counts
            if sum(1 for c in counts if c > 0) < 2:
                single_path += 1
    elapsed = time.perf_counter() - start
    report(
        8,
        single_path == 0,
        f"plans used two or more paths in all 100 (model, budget) cells; "
        f"{elapsed:.1f}s",
    )


def test_09_outputs_are_bitwise_deterministic(tmp_path, capsys):
    example = str(
        __import__("importlib.resources", fromlist=["files"]).files("crowdplan")
        / "data"
        / "example_model.json"
    )

    def simulate(name):
        out = tmp_path / name
        rc = main(
            [
                "simulate", "--model", example, "--plan", "4,3,3",
                "--tasks", "120", "--seed", "11", "--inject-p", "0.4",
                "--out", str(out),
            ]
        )
        assert rc == 0
        return out.read_bytes()

    def plan():
        capsys.readouterr()
        rc = main(
            [
                "plan", "--model", example, "--budget", "12", "--ig", "sampled",
                "--samples", "20000", "--seed", "3",
            ]
        )
        assert rc == 0
        return capsys.readouterr().out

    def sweep(name):
        votes = tmp_path / "votes.csv"
        if not votes.exists():
            assert (
                main(
                    [
                        "simulate", "--model", example, "--plan", "6,6,6",
                        "--tasks", "90", "--seed", "8", "--out", str(votes),
                    ]
                )
                == 0
            )
        out = tmp_path / name
        rc = main(
            [
                "sweep", "--votes", str(votes), "--budgets", "3,9",
                "--models", "mv,apm", "--strategies", "equal", "--folds", "2",
                "--seed", "2", "--out", str(out),
            ]
        )
        assert rc == 0
        return out.read_bytes()

    checks = {
        "simulate rerun": simulate("s1.csv") == simulate("s2.csv"),
        "plan rerun": plan() == plan(),
        "sweep rerun": sweep("w1.csv") == sweep("w2.csv"),
    }
    bad = [k for k, v in checks.items() if not v]
    report(
        9,
        not bad,
        "byte-identical across reruns"
        if not bad
        else f"differences in: {', '.join(bad)}",
    )
