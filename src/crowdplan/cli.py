"""Command line interface.

Subcommands: learn, plan, infer, simulate, sweep. Every command taking a
--seed is bit-reproducible: rerunning with the same arguments produces
byte-identical files and stdout, regardless of --threads.

Exit codes: 0 success, 2 bad input, 3 resource limit exceeded, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

from .errors import CrowdPlanError, InputError, NumericError, ResourceLimitError
from .evaluation import budget_sweep
from .infogain import IgConfig, IgMode
from .inference import ModelKind, infer
from .io import (
    parse_budgets,
    parse_int_list,
    parse_list,
    read_votes_csv,
    write_votes_csv,
)
from .learning import EmConfig, fit_em, fit_nbi
from .model import (
    ApmModel,
    LabelSpace,
    NbiModel,
    load_model,
    save_model,
    with_costs,
    with_labels,
)
from .planner import Strategy, approximation_bound, build_plan
from .simulator import generate, inject_correlation

THREADS_ENV = "CROWDPLAN_THREADS"


def _threads(value: int | None) -> int:
    """The thread count to use: --threads, else $CROWDPLAN_THREADS, else 1, within 1..cpu_count."""
    if value is None:
        env = os.environ.get(THREADS_ENV, "").strip()
        try:
            value = int(env) if env else 1
        except ValueError:
            raise InputError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
    return max(1, min(value, os.cpu_count() or 1))


def _parse_costs(text: str, num_paths: int) -> list[Fraction]:
    parts = parse_list(text)
    if len(parts) != num_paths:
        raise InputError(f"{len(parts)} costs for {num_paths} paths")
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad costs {text!r}: {exc}") from None


def _names(model: ApmModel | NbiModel) -> tuple[str, ...]:
    if model.labels.names is not None:
        return model.labels.names
    return tuple(str(i) for i in range(model.num_labels))


def _cmd_learn(args) -> int:
    data, names = read_votes_csv(args.votes)
    cfg = EmConfig(
        max_iters=args.max_iters,
        rel_tol=args.tol,
        smoothing_alpha=args.alpha,
        seed=args.seed,
        restarts=args.restarts,
    )
    kind = ModelKind(args.model_kind)
    labels = LabelSpace(cardinality=data.num_labels, names=names)
    if kind is ModelKind.MV:
        raise InputError("mv has no parameters to learn")
    if kind is ModelKind.NBI:
        model, report = fit_nbi(data, cfg=cfg)
        model = replace(model, labels=labels)
    else:
        if kind is ModelKind.NBAP and not args.share_workers:
            raise InputError("nbap requires shared worker tables")
        model, report = fit_em(data, share_workers=args.share_workers, cfg=cfg)
        model = with_labels(model, labels)
        if args.costs:
            model = with_costs(model, _parse_costs(args.costs, model.num_paths))
    save_model(model, args.out)
    print(
        json.dumps(
            {
                "final_log_likelihood": report.final_log_likelihood,
                "iterations": report.iterations,
                "converged": report.converged,
                "restart_index": report.restart_index,
                "sparse_paths": list(report.sparse_paths),
                "sparse_workers": list(report.sparse_workers),
            }
        )
    )
    return 0


def _cmd_plan(args) -> int:
    model = load_model(args.model)
    cfg = IgConfig(mode=IgMode(args.ig), num_samples=args.samples, seed=args.seed)
    result = build_plan(
        args.strategy,
        model,
        args.budget,
        seed=args.seed,
        ig_cfg=cfg,
        threads=_threads(args.threads),
    )
    try:
        bound = approximation_bound(model, args.budget)
    except InputError:
        bound = None
    print(
        json.dumps(
            {
                "counts": list(result.plan.counts),
                "cost": str(result.cost),
                "ig": result.ig.value,
                "stderr": result.ig.stderr,
                "mode": result.ig.mode.value,
                "bound": bound,
            }
        )
    )
    return 0


def _cmd_infer(args) -> int:
    model = load_model(args.model, kinds=("apm", "nbi"))
    names = _names(model)
    data, _ = read_votes_csv(args.votes, names=names)
    samples = sorted(data.samples, key=lambda s: s.task_id)
    rows = [
        [sample.task_id, names[post.prediction], repr(post.confidence)]
        + [repr(float(p)) for p in post.probs]
        + ["1" if post.degenerate_evidence else "0"]
        for sample, post in zip(samples, infer(args.model_kind, model, samples))
    ]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["task_id", "prediction", "confidence"]
            + [f"p_{n}" for n in names]
            + ["degenerate"]
        )
        writer.writerows(rows)
    print(f"wrote {len(rows)} posteriors to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    counts = parse_int_list(args.plan, "plan")
    if len(counts) != model.num_paths:
        raise InputError(f"plan has {len(counts)} entries for {model.num_paths} paths")
    if not 0.0 <= args.inject_p <= 1.0:
        raise InputError(f"--inject-p must be in [0, 1], got {args.inject_p}")
    threads = _threads(args.threads)
    data = generate(model, counts, args.tasks, seed=args.seed, threads=threads)
    if args.inject_p > 0:
        data = inject_correlation(data, args.inject_p, seed=args.seed, threads=threads)
    write_votes_csv(data, args.out, names=_names(model))
    print(f"wrote {len(data.samples)} tasks to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    data, _ = read_votes_csv(args.votes)
    cfg = IgConfig(mode=IgMode(args.ig), num_samples=args.samples, seed=args.seed)
    em_cfg = EmConfig(
        max_iters=args.max_iters,
        rel_tol=args.tol,
        smoothing_alpha=args.alpha,
        seed=args.seed,
        restarts=args.restarts,
    )
    costs = _parse_costs(args.costs, data.num_paths) if args.costs else None
    result = budget_sweep(
        data,
        model_kinds=parse_list(args.models),
        strategies=parse_list(args.strategies),
        budgets=[Fraction(b) for b in parse_budgets(args.budgets)],
        folds=args.folds,
        ig_cfg=cfg,
        seed=args.seed,
        em_cfg=em_cfg,
        costs=costs,
        threads=_threads(args.threads),
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["model", "strategy", "budget", "fold", "accuracy", "neg_log_likelihood", "tasks", "skipped"]
        )
        for r in result.fold_rows:
            writer.writerow(
                [
                    r.model,
                    r.strategy,
                    str(r.budget),
                    r.fold,
                    repr(r.accuracy),
                    repr(r.neg_log_likelihood),
                    r.tasks_evaluated,
                    r.tasks_skipped,
                ]
            )
    print(f"wrote {len(result.fold_rows)} rows to {args.out}")
    return 0


def _add_em_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--restarts", type=int, default=3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdplan",
        description="Crowd vote aggregation and budgeted plan selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="fit model parameters from a votes file")
    p.add_argument("--votes", required=True)
    p.add_argument("--model-kind", default="apm", choices=["apm", "nbap", "nbi", "mv"])
    p.add_argument("--share-workers", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--costs", default=None, help="comma-separated per-path costs")
    _add_em_args(p)
    p.set_defaults(fn=_cmd_learn)

    p = sub.add_parser("plan", help="choose a vote plan under a budget")
    p.add_argument("--model", required=True)
    p.add_argument("--budget", required=True)
    p.add_argument(
        "--strategy", default="greedy", choices=[s.value for s in Strategy]
    )
    p.add_argument("--ig", default="auto", choices=[m.value for m in IgMode])
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("infer", help="posteriors for every task in a votes file")
    p.add_argument("--model", required=True)
    p.add_argument("--votes", required=True)
    p.add_argument("--model-kind", default="apm", choices=[k.value for k in ModelKind])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("simulate", help="sample synthetic votes from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True, help="votes per path, e.g. 2,2,2")
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--inject-p", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="cross-validated metrics across budgets")
    p.add_argument("--votes", required=True)
    p.add_argument("--budgets", required=True, help="e.g. 3,5,8 or 3..30 or 3..30..3")
    p.add_argument("--strategies", default="greedy,equal")
    p.add_argument("--models", default="apm,nbap,mv")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--costs", default=None)
    p.add_argument("--ig", default="auto", choices=[m.value for m in IgMode])
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_em_args(p)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CrowdPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
