"""Seeded benchmark of the goalpost command line, run from a source checkout.

    python3 perfbench/run.py --workload welfare_dense --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check

The benchmark generates the workload's JSON inputs from ``--seed``, then
drives ``goalpost.cli.main(argv)`` in this process: one client, a closed
loop, each command starting when the previous one has returned.  A round
runs every command of the workload's mix once; rounds repeat for
``--seconds`` after one untimed warm-up round.  Every output is checked (see
``workloads.OutputChecker``).

``--trace 0`` reports the end-to-end metrics from untraced rounds: the
mean time of each command of the mix, named by its place in the mix
(``cmd1_s`` ... ``cmd4_s``), the mean set-up time and the peak RSS (see
``end_to_end``).  ``--trace 1`` alternates untraced and traced rounds
(``tracing.Tracer``) for the per-layer metrics and the tracing overhead,
then runs a tracemalloc pass over the table builds alone.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 15

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

# Per-layer metrics written to the JSON line.  Every one exists on every
# workload; the times among them are nonzero on every workload.  The other
# per-layer times are printed only.
LAYER_UNITS = {
    "io.load_s": "s",
    "model.validate_s": "s",
    "model.grid_s": "s",
    "model.grid_size": "count",
    "model.report_s": "s",
    "model.report_calls": "count",
    "tables.build_s": "s",
    "tables.builds": "count",
    "tables.cells": "count",
    "tables.bytes": "B",
    "tables.peak_mb": "MB",
    "tables.numpy_share": "ratio",
    "welfare.dp_s": "s",
    "welfare.lb_s": "s",
    "welfare.calls": "count",
    "welfare.dp_cells": "count",
    "pareto.frontier_s": "s",
    "pareto.frontier_points": "count",
    "fptas.solve_s": "s",
    "fptas.table_peak": "count",
    "fairness.self_s": "s",
    "fairness.welfare_calls": "count",
    "fairness.simultaneity_s": "s",
    "oracle.solve_s": "s",
    "oracle.subsets": "count",
    "learning.experiment_s": "s",
    "learning.candidate_sets": "count",
    "learning.sample_n": "count",
    "cli.serialize_s": "s",
    "trace.overhead_s": "s",
}
PRINT_ONLY = {
    "model.report_s", "welfare.lb_s", "pareto.frontier_s", "fptas.solve_s",
    "fairness.self_s", "fairness.simultaneity_s", "oracle.solve_s",
    "learning.experiment_s",
}


class Runner:
    """Runs rounds of one workload's command mix and checks each output."""

    def __init__(self, workload: workloads.Workload, work: Path):
        self.workload = workload
        self.work = work
        self.checker = workloads.OutputChecker(workload)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def round(self) -> list[float]:
        import goalpost.cli

        times = []
        for index, command in enumerate(self.workload.commands):
            out = self.work / f"out{index}.json"
            out.unlink(missing_ok=True)
            argv = command.argv(self.work, out)
            start = time.perf_counter()
            try:
                code = goalpost.cli.main(argv)
            except (Exception, SystemExit) as exc:
                code = repr(exc)
            times.append(time.perf_counter() - start)
            self.attempted += 1
            errors = [f"exit {code}"] if code != 0 else self.checker.check(
                index, command, out.read_bytes())
            if errors:
                self.failed += 1
                self.errors += [f"{command.args[0]}: {e}" for e in errors]
        return times

    def rounds_for(self, seconds: float, between=None) -> dict[str, list[float]]:
        """Command times per metric, plus whole rounds under "round".

        ``between`` is called after every round, outside the timed commands.
        """
        samples: dict[str, list[float]] = {c.metric: [] for c in self.workload.commands}
        samples["round"] = []
        start = time.perf_counter()
        while not samples["round"] or time.perf_counter() - start < seconds:
            times = self.round()
            for command, elapsed in zip(self.workload.commands, times):
                samples[command.metric].append(elapsed)
            samples["round"].append(sum(times))
            if between is not None:
                between()
        return samples


def setup_probe(args) -> int:
    """One set-up sample: import goalpost and numpy, generate, write inputs."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
    try:
        start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import numpy  # noqa: F401
        import goalpost.cli  # noqa: F401

        workloads.make(args.workload, args.seed, args.tiny).write(work)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def run_self(*flags: str, tiny: bool) -> subprocess.CompletedProcess:
    """Runs this script in a fresh process, so its imports and RSS are its own."""
    command = [sys.executable, str(Path(__file__).resolve()), *flags]
    if tiny:
        command.append("--tiny")
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)


def setup_sample(args, samples: list[float]) -> None:
    """Adds one set-up time, from a fresh process, until there are enough."""
    if len(samples) >= SETUP_SAMPLES:
        return
    done = run_self("--setup-probe", "--workload", args.workload,
                    "--seed", str(args.seed), tiny=args.tiny)
    done.check_returncode()
    samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def p90(values: list[float]):
    """The 90th percentile when at least ten samples lie beyond it, else None."""
    if len(values) < 100:
        return None
    return sorted(values)[math.ceil(0.9 * len(values)) - 1]


def describe_inputs(workload: workloads.Workload, shapes: dict) -> list[str]:
    from math import lcm

    from goalpost.io import parse_distribution, parse_instance
    from goalpost.model import potential_targets

    lines = []
    for name, payload in workload.inputs.items():
        if "agents" in payload:
            instance = parse_instance(payload)
            denominators = [v.denominator for a in instance.agents
                            for v in (a.position, a.capacity)]
            scale = lcm(*denominators) if denominators else 1
            engines = ", ".join(
                f"{s['engine']} m={s['m']} g={s['g']}" for s in shapes.get(name, [])[:3])
            lines.append(
                f"input {name}: n={instance.size} g={instance.num_groups} "
                f"m={len(potential_targets(instance))} scale_bits={scale.bit_length()} "
                f"model={instance.capacity_model.value} tables=[{engines}]")
        else:
            dist = parse_distribution(payload)
            lines.append(f"input {name}: support={len(dist.support)} grid={len(dist.grid())}")
    return lines


def environment() -> str:
    import numpy

    return (f"environment: python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, {platform.machine()}")


def end_to_end(samples: dict[str, list[float]], setup: list[float],
               commands: list) -> tuple[dict, list[str]]:
    # On a shared machine, spells of contention slow every command up to
    # twofold for tens of seconds.  A run's median then jumps between the
    # fast and the slow level with the share of the run each spell covers,
    # while the mean moves in proportion to it; over runs the means spread
    # about half as much.  The gated times are therefore means: the mean
    # time of a command is also the inverse of its throughput in the loop.
    # Medians are printed beside them.
    rounds = len(samples["round"])
    metrics = {"setup_s": (statistics.fmean(setup), "s", len(setup))}
    for place, command in enumerate(commands, 1):
        metrics[f"cmd{place}_s"] = (statistics.fmean(samples[command.metric]), "s", rounds)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    lines = [f"{name} {value:.6g} {unit} n={count}"
             for name, (value, unit, count) in metrics.items()]
    total = sum(samples["round"])
    lines.append(f"ops_per_s {len(commands) * rounds / total:.6g} 1/s n={rounds}")
    for place, command in enumerate(commands, 1):
        values = samples[command.metric]
        line = (f"{command.metric} median={statistics.median(values):.6g} s"
                f" n={len(values)} (cmd{place}: {' '.join(command.args)})")
        high = p90(values)
        if high is not None:
            line += f" p90={high:.6g} s"
        lines.append(line)
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    import tracing

    tracer = tracing.Tracer()
    with tracer:
        tracer.capture = True
        runner.round()
        tracer.capture = False
    # Each traced round follows an untraced one; the overhead is the median
    # of the differences of these pairs, so both halves of a pair see the
    # same machine.
    differences = []
    start = time.perf_counter()
    while not differences or time.perf_counter() - start < seconds:
        untraced = sum(runner.round())
        with tracer:
            differences.append(sum(runner.round()) - untraced)
    rounds = 1 + len(differences)
    layers = tracing.layer_metrics(tracer.spans, rounds)
    layers["tables.peak_mb"] = tracing.table_peak_mb(tracer.table_args)
    layers["trace.overhead_s"] = statistics.median(differences)
    lines = [f"traced rounds {rounds}, untraced rounds {len(differences)}"]
    lines += [f"{name} {layers[name]:.6g} {unit}" for name, unit in LAYER_UNITS.items()]
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in LAYER_UNITS.items() if name not in PRINT_ONLY}
    return metrics, lines


def run(args, work: Path) -> dict:
    import tracing

    sys.path.insert(0, str(SRC))
    import goalpost.cli  # noqa: F401

    workload = workloads.make(args.workload, args.seed, args.tiny)
    workload.write(work)
    runner = Runner(workload, work)
    with tracing.Tracer() as warm:
        runner.round()
    shapes = tracing.table_shapes(warm.spans)
    del warm
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(environment())
    for line in describe_inputs(workload, shapes):
        print(line)
    gc.collect()  # every run starts timing from the same heap state
    if args.trace == 0:
        # Set-up samples are taken between rounds, so they see the machine
        # in the same spells as the commands.
        setup: list[float] = []
        samples = runner.rounds_for(args.seconds, lambda: setup_sample(args, setup))
        while len(setup) < SETUP_SAMPLES:
            setup_sample(args, setup)
        metrics, lines = end_to_end(samples, setup, workload.commands)
    else:
        metrics, lines = per_layer(runner, args.seconds)
    for line in lines:
        print(line)
    ratio = runner.failed / runner.attempted
    print(f"fail_ratio {ratio:.6g} ratio n={runner.attempted}")
    for error in runner.errors[:10]:
        print(f"error: {error}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def invoke(workload: str, seed: int, seconds: float, trace: int, tiny: bool):
    return run_self("--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace), tiny=tiny)


def run_all(args) -> int:
    """Every workload in turn; the JSON line merges them as workload.metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        done = invoke(workload, args.seed, args.seconds, args.trace, args.tiny)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        *lines, last = done.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{workload}.{name}": value for name, value in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def self_check() -> int:
    """Run every workload at tiny size in both modes; check the JSON line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            done = invoke(workload, 7, 1, trace, tiny=True)
            label = f"{workload} trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: outputs failed their checks")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ expected[trace])}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or (trace == 0 and value <= 0):
                    problems.append(f"{label}: {name} = {value!r}")
            print(f"{label}: {'ok' if not problems else 'checked'}")
    for problem in problems:
        print(problem)
    print("self-check " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-check of the harness")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny size and check the output")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "goalpost" / "__init__.py").is_file():
        print(f"error: no goalpost sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
