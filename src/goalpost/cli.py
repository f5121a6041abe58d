"""Command-line front end.

Reads a JSON instance (or distribution) file, dispatches one solver, and
writes a machine-readable result to stdout or ``--out``.  Output is
deterministic: keys sorted, rationals canonical, so byte-identical runs are
byte-identical.  Domain errors exit 1 with ``{"error": code, "detail": ...}``;
usage errors exit 2.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import fairness, fptas, learning, oracle, pareto, welfare
from .errors import GoalpostError
from .io import load_distribution, load_instance
from .model import TargetSet, rational, rational_str

CSV_COMMANDS = ("pareto", "sweep")


def _rational_flag(text: str) -> Fraction:
    try:
        return rational(text)
    except (ValueError, TypeError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goalpost",
        description="Solvers for placing improvement targets on a skill line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, **flags) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--instance", required=True, help="path to the JSON input file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="csv is available for pareto and sweep",
        )
        if flags.get("k"):
            p.add_argument("--k", type=_int_at_least(flags.get("k_min", 0)),
                           required=True)
        if flags.get("n_lb"):
            p.add_argument("--n-lb", dest="n_lb", type=_int_at_least(0),
                           required=True)
        if flags.get("epsilon"):
            p.add_argument("--epsilon", type=_rational_flag, required=True)
        if flags.get("delta"):
            p.add_argument("--delta", type=_rational_flag, required=True)
        if flags.get("trials"):
            p.add_argument("--trials", type=int, required=True)
        if flags.get("seed"):
            p.add_argument("--seed", type=int, required=True)
        if flags.get("budget"):
            p.add_argument("--budget", type=_int_at_least(0), default=None)
        return p

    add("solve", "maximum total improvement with at most k targets", k=True)
    add("solve-lb", "like solve, but at least n-lb agents must improve",
        k=True, n_lb=True)
    add("sweep", "solve for every budget 0..k and report the curve", k=True)
    add("pareto", "exact frontier of per-group welfare", k=True)
    add("maxmin", "frontier point maximizing the worst group", k=True)
    add("fptas", "near-optimal max-min with per-group capacities",
        k=True, k_min=1, epsilon=True)
    add("fair-approx", "simultaneously near-optimal placement per group", k=True)
    p = add("factor", "best simultaneity factor on the frontier",
            k=True, budget=True)
    p.description = "frontier built at --k; factors use --budget (default --k)"
    o = add("oracle", "brute-force reference solver", k=True)
    o.add_argument(
        "--objective", choices=("welfare", "pareto", "maxmin"), default="welfare"
    )
    add("learn-bound", "sample size sufficient for the deviation guarantee",
        k=True, epsilon=True, delta=True)
    add("learn-experiment", "seeded empirical deviation measurement",
        k=True, epsilon=True, delta=True, trials=True, seed=True)
    return parser


def _frontier_jsonable(frontier: pareto.ParetoFrontier) -> list[dict]:
    return [
        {
            "welfare": [rational_str(w) for w in point.welfare],
            "targets": point.targets.as_strings(),
        }
        for point in frontier.points
    ]


def _trace_jsonable(trace: fairness.ApproxTrace) -> dict:
    def per_group(sets: Sequence[TargetSet]) -> list[list[str]]:
        return [ts.as_strings() for ts in sets]

    return {
        "split_budget": trace.split_budget,
        "step1_isolated": per_group(trace.step1_isolated),
        "step1_spaced": per_group(trace.step1_spaced),
        "step2_sparse": per_group(trace.step2_sparse),
        "step3_localized": per_group(trace.step3_localized),
        "step3_survivors": [
            [rational_str(a.position) for a in agents]
            for agents in trace.survivors
        ],
        "step4_parts": [
            {
                "window_starts": [rational_str(s) for s in part.points],
                "target": rational_str(part.placed),
            }
            for part in trace.step4_parts
        ],
        "targets": trace.targets.as_strings(),
    }


def _report_jsonable(report) -> dict:
    return {
        "group_totals": [rational_str(v) for v in report.group_totals],
        "group_averages": [rational_str(v) for v in report.group_averages],
        "total": rational_str(report.total),
    }


def _run_command(args: argparse.Namespace) -> tuple[dict, Optional[list[list[str]]]]:
    """Returns the JSON payload and, when supported, CSV rows."""
    cmd = args.command
    if cmd in ("learn-bound", "learn-experiment"):
        dist = load_distribution(args.instance)
        if cmd == "learn-bound":
            if isinstance(dist, learning.GroupMixture):
                n = learning.required_samples_groups(
                    args.epsilon, args.delta, args.k,
                    dist.delta_max, dist.num_groups, dist.alpha_min,
                )
            else:
                n = learning.required_samples_single(
                    args.epsilon, args.delta, args.k, dist.capacity
                )
            return {
                "command": cmd,
                "k": args.k,
                "epsilon": rational_str(args.epsilon),
                "delta": rational_str(args.delta),
                "n": n,
            }, None
        report = learning.deviation_experiment(
            dist, args.k, args.epsilon, args.delta, args.trials, args.seed
        )
        payload = {"command": cmd, "k": args.k}
        payload.update(report.to_jsonable())
        return payload, None

    instance = load_instance(args.instance)
    if cmd == "solve":
        solution = welfare.max_total_improvement(instance, args.k)
        return {
            "command": cmd,
            "k": args.k,
            "targets": solution.targets.as_strings(),
            "value": rational_str(solution.value),
        }, None
    if cmd == "solve-lb":
        solution = welfare.max_total_with_min_improvers(instance, args.k, args.n_lb)
        payload = {"command": cmd, "k": args.k, "n_lb": args.n_lb}
        if solution is None:
            payload.update(feasible=False, targets=None, value=None)
        else:
            payload.update(
                feasible=True,
                targets=solution.targets.as_strings(),
                value=rational_str(solution.value),
            )
        return payload, None
    if cmd == "sweep":
        curve = welfare.optimal_target_count_sweep(instance, args.k)
        rows = [["k", "value", "targets"]] + [
            [str(e.k), rational_str(e.value), " ".join(e.targets.as_strings())]
            for e in curve.entries
        ]
        return {
            "command": cmd,
            "k": args.k,
            "curve": [
                {
                    "k": e.k,
                    "value": rational_str(e.value),
                    "targets": e.targets.as_strings(),
                }
                for e in curve.entries
            ],
            "min_k_for_max": curve.min_k_for_max,
        }, rows
    if cmd == "pareto":
        frontier = pareto.pareto_frontier(instance, args.k)
        rows = [[f"group_{g}" for g in range(frontier.num_groups)] + ["targets"]] + [
            [rational_str(w) for w in point.welfare]
            + [" ".join(point.targets.as_strings())]
            for point in frontier.points
        ]
        return {
            "command": cmd,
            "k": args.k,
            "frontier": _frontier_jsonable(frontier),
        }, rows
    if cmd == "maxmin":
        value, point = pareto.max_min_solution(instance, args.k)
        return {
            "command": cmd,
            "k": args.k,
            "value": rational_str(value),
            "welfare": [rational_str(w) for w in point.welfare],
            "targets": point.targets.as_strings(),
        }, None
    if cmd == "fptas":
        result = fptas.fptas_max_min(instance, args.k, args.epsilon)
        return {
            "command": cmd,
            "k": args.k,
            "epsilon": rational_str(args.epsilon),
            "value": rational_str(result.value),
            "targets": result.targets.as_strings(),
        }, None
    if cmd == "fair-approx":
        trace = fairness.approx_solution(instance, args.k)
        return {
            "command": cmd,
            "k": args.k,
            "targets": trace.targets.as_strings(),
            "report": _report_jsonable(trace.report),
            "alpha_k": rational_str(trace.alpha_k),
            "alpha_ceil": rational_str(trace.alpha_ceil),
            "trace": _trace_jsonable(trace),
        }, None
    if cmd == "factor":
        alpha, point = fairness.best_simultaneous_on_frontier(instance, args.k)
        budget = args.budget if args.budget is not None else args.k
        if budget != args.k:
            alpha = fairness.simultaneity_factor(instance, point.targets, budget)
        return {
            "command": cmd,
            "k": args.k,
            "budget": budget,
            "alpha": rational_str(alpha),
            "welfare": [rational_str(w) for w in point.welfare],
            "targets": point.targets.as_strings(),
        }, None
    if cmd == "oracle":
        if args.objective == "welfare":
            solution = oracle.brute_force_optimum(instance, args.k)
            return {
                "command": cmd,
                "objective": "welfare",
                "k": args.k,
                "targets": solution.targets.as_strings(),
                "value": rational_str(solution.value),
            }, None
        if args.objective == "pareto":
            frontier = oracle.brute_force_pareto(instance, args.k)
            return {
                "command": cmd,
                "objective": "pareto",
                "k": args.k,
                "frontier": _frontier_jsonable(frontier),
            }, None
        value = oracle.brute_force_max_min(instance, args.k)
        return {
            "command": cmd,
            "objective": "maxmin",
            "k": args.k,
            "value": rational_str(value),
        }, None
    raise AssertionError(f"unhandled command {cmd}")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command not in CSV_COMMANDS:
        parser.error(f"--format csv is only supported for {', '.join(CSV_COMMANDS)}")
    try:
        payload, rows = _run_command(args)
    except GoalpostError as exc:
        envelope = {"error": exc.code, "detail": str(exc)}
        _emit(json.dumps(envelope, sort_keys=True, indent=2) + "\n", None)
        return 1
    if args.format == "csv":
        buffer = _io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(rows or [])
        _emit(buffer.getvalue(), args.out)
    else:
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
