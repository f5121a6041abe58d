"""Seeded inputs, command mixes and output checks for the benchmark workloads.

Every workload is a list of CLI commands, each reading one generated JSON
input.  The inputs depend only on the workload name, the seed and the size
("full" for measurement, "tiny" for the harness self-check).  This module
uses the standard library only, so inputs can be generated before
``goalpost`` is imported; the output checks import ``goalpost`` lazily.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("welfare_dense", "frontier_groups", "small_exact")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of the mix; ``metric`` names its end-to-end time."""

    metric: str
    input: str
    args: tuple[str, ...]

    def argv(self, work: Path, out: Path) -> list[str]:
        sub, *rest = self.args
        return [sub, "--instance", str(work / self.input), *rest, "--out", str(out)]


@dataclass
class Workload:
    name: str
    inputs: dict[str, dict]
    commands: list[Command]

    def write(self, work: Path) -> None:
        for file_name, payload in self.inputs.items():
            (work / file_name).write_text(json.dumps(payload), encoding="utf-8")


def _instance(agents, num_groups: int, model: str) -> dict:
    return {
        "agents": [
            {"position": p, "capacity": c, "group": g} for p, c, g in agents
        ],
        "num_groups": num_groups,
        "capacity_model": model,
    }


def welfare_dense(rng: random.Random, tiny: bool) -> Workload:
    # One group, individualized capacities: the dense m x m credit table and
    # the numpy DP rows do nearly all the work (m is about 2n).  solve at
    # k=2 is mostly the table build; the fractional instance (positions in
    # quarters, capacities in thirds) goes through the rational scaling.
    n = 60 if tiny else 600
    k = "5" if tiny else "20"
    agents = [(rng.randint(0, 10**6), rng.randint(1, 10**4), 0) for _ in range(n)]
    fractional = [(f"{rng.randint(0, 4 * 10**6)}/4", f"{rng.randint(3, 3 * 10**4)}/3", 0)
                  for _ in range(n)]
    return Workload(
        "welfare_dense",
        {
            "dense.json": _instance(agents, 1, "individualized"),
            "fractional.json": _instance(fractional, 1, "individualized"),
        },
        [
            Command("solve_s", "dense.json", ("solve", "--k", k)),
            Command("sweep_s", "dense.json", ("sweep", "--k", k)),
            Command("solve_k2_s", "dense.json", ("solve", "--k", "2")),
            Command("solve_fractional_s", "fractional.json", ("solve", "--k", k)),
        ],
    )


def _fixed_layout(base_seed, rng: random.Random, points):
    """A base layout fixed per input, translated by a seeded offset and
    shuffled.  The solvers' work depends on the relative layout only, and
    it differs up to threefold between random layouts of these sizes, so
    the seed moves the input without moving the work."""
    offset = rng.randint(0, 10**4)
    agents = [(p + offset, c, g) for p, c, g in points(random.Random(base_seed))]
    rng.shuffle(agents)
    return agents


# Capacities of the three frontier_groups groups; the layout is fixed by
# seed 20220301.
_FRONTIER_CAPS = (3, 5, 7)


def frontier_groups(rng: random.Random, tiny: bool) -> Workload:
    n, span = (12, 40) if tiny else (30, 110)
    agents = _fixed_layout(20220301, rng, lambda base: [
        (base.randint(0, span), _FRONTIER_CAPS[i % 3], i % 3) for i in range(n)])
    k_arg = ("--k", "3")
    return Workload(
        "frontier_groups",
        {"groups.json": _instance(agents, 3, "individualized")},
        [
            Command("pareto_s", "groups.json", ("pareto",) + k_arg),
            Command("maxmin_s", "groups.json", ("maxmin",) + k_arg),
            Command("fptas_s", "groups.json", ("fptas",) + k_arg + ("--epsilon", "1/2")),
            Command("factor_s", "groups.json", ("factor",) + k_arg),
        ],
    )


def small_exact(rng: random.Random, tiny: bool) -> Workload:
    # Four small commands, each on its own instance: per-call overhead, the
    # python table engine, the scalar DP accessors and repeated solo solves.
    fair_n, lb_n, lb_k, n_lb, oracle_n, trials = (
        (80, 40, 3, 8, 8, 10) if tiny else (600, 80, 4, 20, 9, 30)
    )
    fair = _fixed_layout("base:fair", rng, lambda base: [
        (base.randint(0, 20 * fair_n), 50, i % 4) for i in range(fair_n)])
    # Capacities of at least 50 on a span of 2n keep n_lb improvers reachable.
    lower = _fixed_layout("base:lower", rng, lambda base: [
        (base.randint(0, 2 * lb_n), base.randint(50, 100), 0) for _ in range(lb_n)])
    oracle = _fixed_layout("base:oracle", rng, lambda base: [
        (p, base.randint(1, 25), i % 2)
        for i, p in enumerate(base.sample(range(0, 120), oracle_n))])
    base = random.Random("base:dist")
    weights = [base.randint(1, 9) for _ in range(10)]
    positions = sorted(base.sample(range(0, 60), 10))
    offset = rng.randint(0, 10**4)
    total = sum(weights)
    support = [
        {"position": p + offset, "probability": str(Fraction(w, total))}
        for p, w in zip(positions, weights)
    ]
    learn_seed = base.randint(0, 10**6)
    return Workload(
        "small_exact",
        {
            "fair.json": _instance(fair, 4, "common"),
            "lower.json": _instance(lower, 1, "individualized"),
            "oracle.json": _instance(oracle, 2, "individualized"),
            "dist.json": {"capacity": 5, "support": support},
        },
        [
            Command("fair_approx_s", "fair.json", ("fair-approx", "--k", "8")),
            Command("solve_lb_s", "lower.json",
                    ("solve-lb", "--k", str(lb_k), "--n-lb", str(n_lb))),
            Command("oracle_s", "oracle.json",
                    ("oracle", "--k", "4", "--objective", "pareto")),
            Command("learn_s", "dist.json",
                    ("learn-experiment", "--k", "2", "--epsilon", "1/2",
                     "--delta", "1/10", "--trials", str(trials),
                     "--seed", str(learn_seed))),
        ],
    )


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    builders = {
        "welfare_dense": welfare_dense,
        "frontier_groups": frontier_groups,
        "small_exact": small_exact,
    }
    return builders[name](random.Random(f"{name}:{seed}"), tiny)


class OutputChecker:
    """Checks one workload's CLI outputs without reference files.

    Every emitted target set is re-evaluated with the behavior rule, and
    commands on one instance are checked against each other.  A repeated
    command must reproduce its first output byte for byte; only first
    outputs are parsed and checked in full.
    """

    def __init__(self, workload: Workload):
        from goalpost.io import parse_instance

        self.instances = {
            name: parse_instance(payload)
            for name, payload in workload.inputs.items()
            if "agents" in payload
        }
        self.first: dict[int, bytes] = {}
        # First outputs by (input file, subcommand, k).
        self.results: dict[tuple[str, str, int], dict] = {}

    def check(self, index: int, command: Command, raw: bytes) -> list[str]:
        if index in self.first:
            return [] if raw == self.first[index] else ["output differs from first run"]
        self.first[index] = raw
        payload = json.loads(raw)
        sub = command.args[0]
        self.results[(command.input, sub, payload.get("k"))] = payload
        method = getattr(self, "_check_" + sub.replace("-", "_"))
        return method(command, payload)

    # -- helpers -----------------------------------------------------------

    def _report(self, command: Command, targets):
        from goalpost.model import TargetSet, improvement_report, rational

        instance = self.instances[command.input]
        return improvement_report(instance, TargetSet(tuple(rational(t) for t in targets)))

    @staticmethod
    def _q(text) -> Fraction:
        return Fraction(text)

    def _earlier(self, command: Command, sub: str, k: int):
        return self.results.get((command.input, sub, k))

    def _welfare_matches(self, command: Command, targets, welfare) -> list[str]:
        totals = self._report(command, targets).group_totals
        if list(totals) != [self._q(w) for w in welfare]:
            return [f"{command.args[0]}: welfare {welfare} does not re-evaluate"]
        return []

    # -- per-command checks ------------------------------------------------

    def _check_solve(self, command, payload):
        errors = []
        if len(payload["targets"]) > payload["k"]:
            errors.append("solve: more than k targets")
        if self._report(command, payload["targets"]).total != self._q(payload["value"]):
            errors.append("solve: value does not re-evaluate")
        sweep = next((v for (i, sub, _), v in self.results.items()
                      if i == command.input and sub == "sweep"), None)
        if sweep is not None:
            entry = next((e for e in sweep["curve"] if e["k"] == payload["k"]), None)
            if entry is not None and entry["value"] != payload["value"]:
                errors.append(f"solve: differs from the sweep entry k={payload['k']}")
        return errors

    def _check_sweep(self, command, payload):
        errors = []
        values = []
        for entry in payload["curve"]:
            value = self._q(entry["value"])
            values.append(value)
            if len(entry["targets"]) > entry["k"]:
                errors.append(f"sweep: more than {entry['k']} targets")
            if self._report(command, entry["targets"]).total != value:
                errors.append(f"sweep: entry k={entry['k']} does not re-evaluate")
        if values != sorted(values):
            errors.append("sweep: values decrease with the budget")
        curve = {entry["k"]: entry["value"] for entry in payload["curve"]}
        for (i, sub, k), solve in self.results.items():
            if i == command.input and sub == "solve" and curve.get(k, solve["value"]) != solve["value"]:
                errors.append(f"sweep: entry k={k} differs from solve")
        return errors

    def _check_solve_lb(self, command, payload):
        if not payload["feasible"]:
            return ["solve-lb: reported infeasible"]
        errors = []
        report = self._report(command, payload["targets"])
        if report.total != self._q(payload["value"]):
            errors.append("solve-lb: value does not re-evaluate")
        improved = sum(1 for outcome in report.per_agent if outcome.improvement > 0)
        if improved < payload["n_lb"]:
            errors.append("solve-lb: fewer than n_lb agents improve")
        if len(payload["targets"]) > payload["k"]:
            errors.append("solve-lb: more than k targets")
        return errors

    def _check_pareto(self, command, payload):
        errors = []
        for point in payload["frontier"]:
            errors += self._welfare_matches(command, point["targets"], point["welfare"])
        return errors

    def _check_maxmin(self, command, payload):
        errors = self._welfare_matches(command, payload["targets"], payload["welfare"])
        value = self._q(payload["value"])
        if value != min(self._q(w) for w in payload["welfare"]):
            errors.append("maxmin: value is not the minimum group welfare")
        frontier = self._earlier(command, "pareto", payload["k"])
        if frontier is not None:
            best = max(min(self._q(w) for w in p["welfare"]) for p in frontier["frontier"])
            if value != best:
                errors.append("maxmin: differs from the best minimum on the frontier")
        return errors

    def _check_fptas(self, command, payload):
        errors = []
        report = self._report(command, payload["targets"])
        value = self._q(payload["value"])
        if min(report.group_totals) != value:
            errors.append("fptas: value does not re-evaluate")
        if len(payload["targets"]) > payload["k"]:
            errors.append("fptas: more than k targets")
        maxmin = self._earlier(command, "maxmin", payload["k"])
        if maxmin is not None:
            bound = (1 - self._q(payload["epsilon"])) * self._q(maxmin["value"])
            if value < bound:
                errors.append("fptas: below (1 - epsilon) times maxmin")
        return errors

    def _check_factor(self, command, payload):
        errors = self._welfare_matches(command, payload["targets"], payload["welfare"])
        if not 0 <= self._q(payload["alpha"]) <= 1:
            errors.append("factor: alpha outside [0, 1]")
        return errors

    def _check_fair_approx(self, command, payload):
        errors = []
        report = self._report(command, payload["targets"])
        emitted = payload["report"]
        if list(report.group_totals) != [self._q(v) for v in emitted["group_totals"]]:
            errors.append("fair-approx: group totals do not re-evaluate")
        if report.total != self._q(emitted["total"]):
            errors.append("fair-approx: total does not re-evaluate")
        if len(payload["targets"]) > payload["k"]:
            errors.append("fair-approx: more than k targets")
        g = self.instances[command.input].num_groups
        if self._q(payload["alpha_ceil"]) < Fraction(1, 16 * g * g):
            errors.append("fair-approx: alpha_ceil below 1/(16 g^2)")
        return errors

    def _check_oracle(self, command, payload):
        from goalpost.pareto import pareto_frontier

        errors = []
        for point in payload["frontier"]:
            errors += self._welfare_matches(command, point["targets"], point["welfare"])
        instance = self.instances[command.input]
        exact = pareto_frontier(instance, payload["k"])
        emitted = [[self._q(w) for w in p["welfare"]] for p in payload["frontier"]]
        if emitted != [list(p.welfare) for p in exact.points]:
            errors.append("oracle: frontier differs from pareto_frontier")
        return errors

    def _check_learn_experiment(self, command, payload):
        errors = []
        if payload["trials"] != int(command.args[command.args.index("--trials") + 1]):
            errors.append("learn-experiment: wrong trial count")
        if not 0 <= self._q(payload["success_fraction"]) <= 1:
            errors.append("learn-experiment: success fraction outside [0, 1]")
        if self._q(payload["worst_deviation"]) < 0 or payload["n"] < 1:
            errors.append("learn-experiment: negative deviation or empty sample")
        return errors
