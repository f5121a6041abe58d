"""Command-line front end.

Reads a JSON instance (or distribution) file, dispatches one solver, and
writes a machine-readable result to stdout or ``--out``.  Output is
deterministic: keys sorted, rationals canonical, so byte-identical runs are
byte-identical.  Domain errors exit 1 with ``{"error": code, "detail": ...}``,
and so does an allocation that fails anywhere from the load to the output
text (``SearchSpaceTooLarge``); usage errors, an unwritable ``--out`` among
them, exit 2.

Every subcommand is one row of ``COMMANDS``: its help text, least ``--k``,
extra flags, CSV support, input file kind and answer function.  An answer
returns only the fields of its own command (plus CSV rows where supported);
``main`` adds ``command`` and ``k``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as _io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from . import fairness, fptas, learning, oracle, pareto, welfare
from .errors import GoalpostError, _physical_memory, check_memory, refuses_exhaustion
from .io import load_distribution, load_instance
from .model import TargetSet, rational, rational_str, text_bytes

Rows = Optional[list[list[str]]]


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


# Flags beyond --instance/--out/--format/--k: (name, add_argument keywords).
N_LB = ("--n-lb", dict(type=_int_at_least(0), required=True))
EPSILON = ("--epsilon", dict(type=_rational_flag, required=True))
DELTA = ("--delta", dict(type=_rational_flag, required=True))
TRIALS = ("--trials", dict(type=int, required=True))
SEED = ("--seed", dict(type=int, required=True))
BUDGET = ("--budget", dict(type=_int_at_least(0), default=None))
OBJECTIVE = ("--objective",
             dict(choices=("welfare", "pareto", "maxmin"), default="welfare"))


def _solution(solution) -> dict:
    """The fields of anything with ``targets`` and a ``value``."""
    return {"targets": solution.targets.as_strings(),
            "value": rational_str(solution.value)}


def _point(point: pareto.FrontierPoint) -> dict:
    return {"welfare": [rational_str(w) for w in point.welfare],
            "targets": point.targets.as_strings()}


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


def _solve(args, instance) -> tuple[dict, Rows]:
    return _solution(welfare.max_total_improvement(instance, args.k)), None


def _solve_lb(args, instance) -> tuple[dict, Rows]:
    solution = welfare.max_total_with_min_improvers(instance, args.k, args.n_lb)
    feasible = solution is not None
    fields = _solution(solution) if feasible else {"targets": None, "value": None}
    return {"n_lb": args.n_lb, "feasible": feasible, **fields}, None


def _sweep(args, instance) -> tuple[dict, Rows]:
    curve = welfare.optimal_target_count_sweep(instance, args.k)
    entries = [{"k": e.k, **_solution(e)} for e in curve.entries]
    rows = [["k", "value", "targets"]] + [
        [str(e["k"]), e["value"], " ".join(e["targets"])] for e in entries
    ]
    return {"curve": entries, "min_k_for_max": curve.min_k_for_max}, rows


# A conservative size of a frontier point's payload dict, and of one
# coordinate or target besides its characters: its string and its line of
# JSON text.  Measured: 120 points of 10^5 one-character coordinates peaked at
# 1.96 GB as JSON, about 160 B a coordinate.
_POINT_TEXT, _VALUE_TEXT = 1024, 192


def _frontier_points(instance, frontier: pareto.ParetoFrontier) -> list[dict]:
    """The fields of each frontier point, refused before any is formed when
    their JSON text would not fit in physical memory."""
    values = sum(len(p.welfare) + len(p.targets.levels) for p in frontier.points)
    need = _POINT_TEXT * len(frontier.points) + (_VALUE_TEXT + text_bytes(instance)) * values
    check_memory(need, "the frontier's text", _physical_memory())
    return [_point(p) for p in frontier.points]


def _pareto(args, instance) -> tuple[dict, Rows]:
    points = _frontier_points(instance, pareto.pareto_frontier(instance, args.k))
    rows = [[f"group_{g}" for g in range(instance.num_groups)] + ["targets"]]
    rows += [p["welfare"] + [" ".join(p["targets"])] for p in points]
    return {"frontier": points}, rows


def _maxmin(args, instance) -> tuple[dict, Rows]:
    value, point = pareto.max_min_solution(instance, args.k)
    return {"value": rational_str(value), **_point(point)}, None


def _fptas(args, instance) -> tuple[dict, Rows]:
    result = fptas.fptas_max_min(instance, args.k, args.epsilon)
    return {"epsilon": rational_str(args.epsilon), **_solution(result)}, None


def _fair_approx(args, instance) -> tuple[dict, Rows]:
    trace = fairness.approx_solution(instance, args.k)
    report = trace.report
    return {
        "targets": trace.targets.as_strings(),
        "report": {
            "group_totals": [rational_str(v) for v in report.group_totals],
            "group_averages": [rational_str(v) for v in report.group_averages],
            "total": rational_str(report.total),
        },
        "alpha_k": rational_str(trace.alpha_k),
        "alpha_ceil": rational_str(trace.alpha_ceil),
        "trace": _trace_jsonable(trace),
    }, None


def _factor(args, instance) -> tuple[dict, Rows]:
    alpha, point = fairness.best_simultaneous_on_frontier(instance, args.k)
    budget = args.budget if args.budget is not None else args.k
    if budget != args.k:
        alpha = fairness.simultaneity_factor(instance, point.targets, budget)
    return {"budget": budget, "alpha": rational_str(alpha), **_point(point)}, None


def _oracle(args, instance) -> tuple[dict, Rows]:
    if args.objective == "welfare":
        fields = _solution(oracle.brute_force_optimum(instance, args.k))
    elif args.objective == "pareto":
        fields = {"frontier": _frontier_points(
            instance, oracle.brute_force_pareto(instance, args.k))}
    else:
        fields = {"value": rational_str(oracle.brute_force_max_min(instance, args.k))}
    return {"objective": args.objective, **fields}, None


def _learn_bound(args, dist) -> tuple[dict, Rows]:
    n = learning.required_samples(dist, args.epsilon, args.delta, args.k)
    return {"epsilon": rational_str(args.epsilon),
            "delta": rational_str(args.delta), "n": n}, None


def _learn_experiment(args, dist) -> tuple[dict, Rows]:
    report = learning.deviation_experiment(
        dist, args.k, args.epsilon, args.delta, args.trials, args.seed
    )
    return report.to_jsonable(), None


@dataclass(frozen=True)
class Command:
    help: str
    answer: Callable[[argparse.Namespace, Any], tuple[dict, Rows]]
    flags: tuple[tuple[str, dict], ...] = ()
    k_min: int = 0
    csv: bool = False
    # Reads a distribution file (load_distribution), not an instance.
    distribution: bool = False
    description: Optional[str] = None


COMMANDS = {
    "solve": Command("maximum total improvement with at most k targets", _solve),
    "solve-lb": Command("like solve, but at least n-lb agents must improve",
                        _solve_lb, (N_LB,)),
    "sweep": Command("solve for every budget 0..k and report the curve", _sweep,
                     csv=True),
    "pareto": Command("exact frontier of per-group welfare", _pareto, csv=True),
    "maxmin": Command("frontier point maximizing the worst group", _maxmin),
    "fptas": Command("near-optimal max-min with per-group capacities", _fptas,
                     (EPSILON,), k_min=1),
    "fair-approx": Command("simultaneously near-optimal placement per group",
                           _fair_approx),
    "factor": Command(
        "best simultaneity factor on the frontier", _factor, (BUDGET,),
        description="frontier built at --k; factors use --budget (default --k)"),
    "oracle": Command("brute-force reference solver", _oracle, (OBJECTIVE,)),
    "learn-bound": Command("sample size sufficient for the deviation guarantee",
                           _learn_bound, (EPSILON, DELTA), distribution=True),
    "learn-experiment": Command("seeded empirical deviation measurement",
                                _learn_experiment, (EPSILON, DELTA, TRIALS, SEED),
                                distribution=True),
}
CSV_NAMES = sorted(name for name, command in COMMANDS.items() if command.csv)


@functools.cache  # one parser per process: building it costs more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goalpost",
        description="Solvers for placing improvement targets on a skill line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.description)
        p.add_argument("--instance", required=True, help="path to the JSON input file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help=f"csv is available for {' and '.join(CSV_NAMES)}",
        )
        p.add_argument("--k", type=_int_at_least(command.k_min), required=True)
        for flag, options in command.flags:
            p.add_argument(flag, **options)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = COMMANDS[args.command]
    if args.format == "csv" and not command.csv:
        parser.error(f"--format csv is only supported for {', '.join(CSV_NAMES)}")
    # The loader is looked up here, per call, so that wrapping the module's
    # load_instance or load_distribution takes effect.
    load = load_distribution if command.distribution else load_instance

    # Any allocation that fails, from the load to the last character of the
    # text, is refused with the envelope rather than a traceback.
    @refuses_exhaustion(f"the {args.command} command")
    def answer() -> str:
        fields, rows = command.answer(args, load(args.instance))
        if args.format == "csv":
            buffer = _io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(rows)
            return buffer.getvalue()
        payload = {"command": args.command, "k": args.k, **fields}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    try:
        text = answer()
    except GoalpostError as exc:
        envelope = {"error": exc.code, "detail": str(exc)}
        sys.stdout.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
        return 1
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        parser.error(f"cannot write --out {args.out}: {exc.strerror}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
