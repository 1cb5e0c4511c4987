"""Command line interface.

Subcommands: learn, plan, infer, simulate, sweep. Every command taking a
--seed is bit-reproducible: rerunning with the same arguments produces
byte-identical files and stdout.

Exit codes: 0 success, 2 bad input, 3 resource limit exceeded, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from functools import cache

from .errors import CrowdPlanError, InputError, NumericError, ResourceLimitError
from .evaluation import budget_sweep
from .infogain import IgConfig, IgMode
from .inference import ModelKind, table_posteriors
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
    path_costs,
    save_model,
    with_costs,
    with_labels,
)
from .planner import Strategy, approximation_bound, build_plan
from .simulator import generate, inject_correlation


def _names(model: ApmModel | NbiModel) -> tuple[str, ...]:
    if model.labels.names is not None:
        return model.labels.names
    return tuple(str(i) for i in range(model.num_labels))


def _em_config(args) -> EmConfig:
    return EmConfig(
        max_iters=args.max_iters,
        rel_tol=args.tol,
        smoothing_alpha=args.alpha,
        seed=args.seed,
        restarts=args.restarts,
    )


def _cmd_learn(args) -> int:
    data, names = read_votes_csv(args.votes)
    cfg = _em_config(args)
    kind = ModelKind(args.model_kind)
    labels = LabelSpace(cardinality=data.num_labels, names=names)
    if kind is ModelKind.MV:
        raise InputError("mv has no parameters to learn")
    if kind is ModelKind.NBI:
        model, report = fit_nbi(data, cfg=cfg)
    else:
        if kind is ModelKind.NBAP and not args.share_workers:
            raise InputError("nbap requires shared worker tables")
        costs = path_costs(parse_list(args.costs), data.num_paths) if args.costs else None
        model, report = fit_em(data, share_workers=args.share_workers, cfg=cfg)
        if costs:
            model = with_costs(model, costs)
    model = with_labels(model, labels)
    save_model(model, args.out)
    summary = asdict(report)
    del summary["history"]
    print(json.dumps(summary))
    return 0


def _cmd_plan(args) -> int:
    model = load_model(args.model)
    cfg = IgConfig(mode=args.ig, num_samples=args.samples, seed=args.seed)
    result = build_plan(args.strategy, model, args.budget, seed=args.seed, ig_cfg=cfg)
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
    probs, pred, degenerate = table_posteriors(args.model_kind, model, data)
    # Column by column: one repr per probability, the confidence among them.
    k = probs.shape[1]
    cells = list(map(repr, probs.ravel().tolist()))
    pred = pred.tolist()
    rows = list(zip(
        data.task_ids,
        [names[y] for y in pred],
        [cells[t * k + y] for t, y in enumerate(pred)],
        *(cells[j::k] for j in range(k)),
        ["1" if d else "0" for d in degenerate.tolist()],
    ))
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
    if not 0.0 <= args.inject_p <= 1.0:
        raise InputError(f"--inject-p must be in [0, 1], got {args.inject_p}")
    data = generate(model, counts, args.tasks, seed=args.seed)
    if args.inject_p > 0:
        data = inject_correlation(data, args.inject_p, seed=args.seed)
    write_votes_csv(data, args.out, names=_names(model))
    print(f"wrote {len(data)} tasks to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    data, _ = read_votes_csv(args.votes)
    cfg = IgConfig(mode=args.ig, num_samples=args.samples, seed=args.seed)
    result = budget_sweep(
        data,
        model_kinds=parse_list(args.models),
        strategies=parse_list(args.strategies),
        budgets=parse_budgets(args.budgets),
        folds=args.folds,
        ig_cfg=cfg,
        seed=args.seed,
        em_cfg=_em_config(args),
        costs=parse_list(args.costs) if args.costs else None,
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "strategy", "budget", "fold", "accuracy", "neg_log_likelihood",
                         "tasks", "skipped", "short_filled"])
        writer.writerows(
            [r.model, r.strategy, str(r.budget), r.fold, repr(r.accuracy),
             repr(r.neg_log_likelihood), r.tasks_evaluated, r.tasks_skipped, r.tasks_short_filled]
            for r in result.fold_rows
        )
    print(f"wrote {len(result.fold_rows)} rows to {args.out}")
    return 0


def _add_em_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--restarts", type=int, default=3)


@cache
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
    p.add_argument("--out", required=True)
    _add_em_args(p)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CrowdPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ResourceLimitError):
            return 3
        return 4 if isinstance(exc, NumericError) else 2
    except OSError as exc:
        # Inputs are opened under InputError, so what reaches here is an output.
        where = exc.filename or "output"
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
