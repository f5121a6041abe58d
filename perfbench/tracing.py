"""Spans around calls into the goalpost modules, recorded from outside.

:class:`Tracer` replaces the public module-level functions listed in
``TRACED`` (and ``ContributionTable.__init__``) by wrappers that record a
span per call: name, start, end, parent span and a few facts about the call.
Every alias is replaced, e.g. ``goalpost.fairness.max_total_improvement`` as
well as ``goalpost.welfare.max_total_improvement``, and everything is put
back on exit.  Nothing in the package itself is edited.

:func:`layer_metrics` turns the spans into per-layer numbers.  A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Optional

# (module, function) pairs wrapped by the tracer; the layer is the module.
TRACED = (
    ("cli", "main"),
    ("io", "load_instance"),
    ("io", "load_distribution"),
    ("model", "validate_instance"),
    ("model", "potential_targets"),
    ("model", "improvement_report"),
    ("welfare", "max_total_improvement"),
    ("welfare", "optimal_target_count_sweep"),
    ("welfare", "max_total_with_min_improvers"),
    ("pareto", "pareto_frontier"),
    ("pareto", "max_min_solution"),
    ("fptas", "fptas_max_min"),
    ("fairness", "approx_solution"),
    ("fairness", "best_simultaneous_on_frontier"),
    ("fairness", "group_optima"),
    ("fairness", "simultaneity_factor"),
    ("fairness", "local_reopt"),
    ("oracle", "brute_force_optimum"),
    ("oracle", "brute_force_pareto"),
    ("oracle", "brute_force_max_min"),
    ("learning", "deviation_experiment"),
)
TABLE_SPAN = "tables.ContributionTable"
BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: Optional[dict] = None


def _array_bytes(table) -> int:
    """numpy bytes of the table's arrays, or 8 bytes per list slot."""
    total = 0
    for value in vars(table).values():
        if hasattr(value, "nbytes"):
            total += int(value.nbytes)
    if table.engine != "numpy":
        total += 8 * table.grid_size ** 2 * (table.instance.num_groups + 2)
    return total


def _table_info(args, kwargs, result) -> dict:
    table = args[0]
    return {
        "m": table.grid_size,
        "g": table.instance.num_groups,
        "engine": table.engine,
        "bytes": _array_bytes(table),
        "scale_bits": table.scale.bit_length(),
    }


def _welfare_info(args, kwargs, result) -> dict:
    table = kwargs.get("table")
    return {"k": args[1], "m": table.grid_size if table is not None else None}


def _grid_info(args, kwargs, result) -> dict:
    return {"m": len(result.levels)}


def _oracle_info(args, kwargs, result) -> dict:
    from goalpost.model import potential_targets

    m = len(potential_targets(args[0]).levels)
    k = args[1]
    return {"subsets": sum(comb(m, size) for size in range(min(k, m) + 1))}


def _learning_info(args, kwargs, result) -> dict:
    grid = len(args[0].grid())
    k = args[1]
    return {
        "candidate_sets": sum(comb(grid, size) for size in range(1, min(k, grid) + 1)),
        "sample_n": result.n,
    }


def _cli_info(args, kwargs, result) -> dict:
    argv = list(args[0])
    return {"input": Path(argv[argv.index("--instance") + 1]).name}


INFO: dict[str, Callable] = {
    "cli.main": _cli_info,
    "model.potential_targets": _grid_info,
    "welfare.max_total_improvement": _welfare_info,
    "welfare.optimal_target_count_sweep": _welfare_info,
    "pareto.pareto_frontier": lambda a, kw, r: {"points": len(r.points)},
    "fptas.fptas_max_min": lambda a, kw, r: {"table_peak": r.table_peak},
    "oracle.brute_force_optimum": _oracle_info,
    "oracle.brute_force_pareto": _oracle_info,
    "oracle.brute_force_max_min": _oracle_info,
    "learning.deviation_experiment": _learning_info,
}


class Tracer:
    """Context manager that wraps the traced functions while active.

    It may be entered again; spans from every entry accumulate.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # (instance, engine) of table builds, kept while ``capture`` is set.
        self.capture = False
        self.table_args: list[tuple[object, str]] = []

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(Span(name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index].start, spans[index].end = start, end
            if info is not None:
                spans[index].info = info(args, kwargs, result)
                # Time spent here is charged to a sibling span, not the parent.
                spans.append(Span(BOOKKEEPING, end, time.perf_counter(), parent))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        import goalpost.cli  # noqa: F401  (loads every traced module)
        from goalpost.tables import ContributionTable

        modules = [m for n, m in sys.modules.items()
                   if n == "goalpost" or n.startswith("goalpost.")]
        for layer, attr in TRACED:
            name = f"{layer}.{attr}"
            original = getattr(sys.modules[f"goalpost.{layer}"], attr)
            wrapper = self._wrap(name, original, INFO.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        init = ContributionTable.__init__

        def info(args, kwargs, result):
            if self.capture:
                engine = args[2] if len(args) > 2 else kwargs.get("engine", "auto")
                self.table_args.append((args[1], engine))
            return _table_info(args, kwargs, result)

        self._restore.append((ContributionTable, "__init__", init))
        ContributionTable.__init__ = self._wrap(TABLE_SPAN, init, info)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def table_peak_mb(table_args) -> float:
    """Largest tracemalloc peak of one table build, in MB, over the builds.

    Run on its own: tracemalloc slows the python engine and the DPs many
    times over, so no timing is taken while it is active.
    """
    from goalpost.tables import ContributionTable

    distinct = []
    for instance, engine in table_args:
        if not any(instance == seen and engine == e for seen, e in distinct):
            distinct.append((instance, engine))
    peak = 0
    tracemalloc.start()
    try:
        for instance, engine in distinct:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            table = ContributionTable(instance, engine=engine)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
            del table
    finally:
        tracemalloc.stop()
    return peak / 2**20


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _command_spans(spans: list[Span]) -> list[int]:
    """Indices of the spans inside CLI commands (output checks excluded)."""
    inside = [False] * len(spans)
    for index, span in enumerate(spans):
        inside[index] = span.name == "cli.main" or (
            span.parent >= 0 and inside[span.parent])
    return [index for index, flag in enumerate(inside) if flag]


def _ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent].parent


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer totals over the traced rounds, divided by the round count."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index in _command_spans(spans):
        by_name.setdefault(spans[index].name, []).append(index)

    def self_s(*names: str) -> float:
        return sum(own[i] for n in names for i in by_name.get(n, ()))

    def total_s(name: str) -> float:
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, ()))

    def count(*names: str) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    def infos(name: str):
        return [spans[i].info for i in by_name.get(name, ()) if spans[i].info]

    # Grid size of each welfare DP: its own table span, or the table passed in.
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span.parent, []).append(index)
    dp_cells = 0
    for name in ("welfare.max_total_improvement", "welfare.optimal_target_count_sweep"):
        for index in by_name.get(name, ()):
            info = spans[index].info or {}
            m = info.get("m")
            for child in children.get(index, ()):
                if spans[child].name == TABLE_SPAN and spans[child].info:
                    m = spans[child].info["m"]
            if m and m > 1 and info.get("k"):
                dp_cells += info["k"] * m * (m - 1) // 2

    tables = infos(TABLE_SPAN)
    table_self = [(own[i], spans[i].info) for i in by_name.get(TABLE_SPAN, ())]
    build_s = sum(t for t, _ in table_self)
    numpy_s = sum(t for t, info in table_self if info and info["engine"] == "numpy")
    fairness_names = [f"fairness.{attr}" for layer, attr in TRACED if layer == "fairness"]
    welfare_in_fairness = sum(
        1 for i in by_name.get("welfare.max_total_improvement", ())
        if any(a.name.startswith("fairness.") for a in _ancestors(spans, i))
    )
    oracle_names = [f"oracle.{attr}" for layer, attr in TRACED if layer == "oracle"]
    per_round = {
        "io.load_s": self_s("io.load_instance", "io.load_distribution"),
        "model.validate_s": self_s("model.validate_instance"),
        "model.grid_s": self_s("model.potential_targets"),
        "model.report_s": self_s("model.improvement_report"),
        "model.report_calls": count("model.improvement_report"),
        "tables.build_s": build_s,
        "tables.builds": len(tables),
        "tables.cells": sum(t["m"] ** 2 * (t["g"] + 2) for t in tables),
        "tables.bytes": sum(t["bytes"] for t in tables),
        "welfare.dp_s": self_s("welfare.max_total_improvement",
                               "welfare.optimal_target_count_sweep"),
        "welfare.lb_s": self_s("welfare.max_total_with_min_improvers"),
        "welfare.calls": count("welfare.max_total_improvement",
                               "welfare.optimal_target_count_sweep",
                               "welfare.max_total_with_min_improvers"),
        "welfare.dp_cells": dp_cells,
        "pareto.frontier_s": self_s("pareto.pareto_frontier"),
        "pareto.frontier_points": sum(i["points"] for i in infos("pareto.pareto_frontier")),
        "fptas.solve_s": self_s("fptas.fptas_max_min"),
        "fairness.self_s": self_s(*fairness_names),
        "fairness.welfare_calls": welfare_in_fairness,
        "fairness.simultaneity_s": total_s("fairness.simultaneity_factor"),
        "oracle.solve_s": self_s(*oracle_names),
        "oracle.subsets": sum(i["subsets"] for n in oracle_names for i in infos(n)),
        "learning.experiment_s": self_s("learning.deviation_experiment"),
        "learning.candidate_sets": sum(
            i["candidate_sets"] for i in infos("learning.deviation_experiment")),
        "learning.sample_n": sum(i["sample_n"] for i in infos("learning.deviation_experiment")),
        # CLI self time: argument parsing, payload building, JSON encoding, write.
        "cli.serialize_s": self_s("cli.main"),
    }
    metrics = {name: value / rounds for name, value in per_round.items()}
    # Maxima and shares are not per-round sums.
    metrics["model.grid_size"] = max((i["m"] for i in infos("model.potential_targets")), default=0)
    metrics["fptas.table_peak"] = max(
        (i["table_peak"] for i in infos("fptas.fptas_max_min")), default=0)
    metrics["tables.numpy_share"] = numpy_s / build_s if build_s else 0.0
    return metrics


def table_shapes(spans: list[Span]) -> dict[str, list[dict]]:
    """Per input file, the distinct (m, g, engine, scale bits) of its table
    builds, largest grid first."""
    shapes: dict[str, list[dict]] = {}
    for index in _command_spans(spans):
        span = spans[index]
        if span.name != TABLE_SPAN or not span.info:
            continue
        command = next(a for a in _ancestors(spans, index) if a.name == "cli.main")
        seen = shapes.setdefault(command.info["input"], [])
        shape = {k: span.info[k] for k in ("m", "g", "engine", "scale_bits")}
        if shape not in seen:
            seen.append(shape)
    return {name: sorted(s, key=lambda x: -x["m"]) for name, s in shapes.items()}
