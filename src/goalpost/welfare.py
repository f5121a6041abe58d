"""Dynamic programs for maximum total improvement.

The core solver sweeps the sorted grid of candidate levels left to right.
State ``(i, budget)`` is the best total improvement achievable for agents at
or above grid level ``i`` using at most ``budget`` targets, all placed
strictly above level ``i``.  A transition picks the lowest placed target
``j > i``, credits every agent between the two levels that can reach it, and
recurses on ``(j, budget - 1)``.  Ties always resolve to the lowest level, so
outputs are deterministic; targets that end up serving nobody are dropped
from the returned set (the budget is "at most k").

The lower-bound variant threads a third coordinate through the same
recursion: ``eta``, how many agents must still improve.  Each transition
subtracts the head count reaching the chosen lowest target, floored at 0;
once ``eta`` reaches 0 the state is an unconstrained one.  So a single DP
serves both: the welfare solve is its ``eta = 0`` layer, and unsatisfiable
states carry -1.  Feasibility only gets harder as ``eta`` grows, so a budget
layer stops at its first all-infeasible row.  It runs on the table's arrays
in either dtype (int64 or exact object integers), with identical results.

Each layer reads the credit table's band: for level ``i`` the candidates
``j <= i + W`` are read cell by cell, and every ``j`` past the band shares
its row-0 credit and count, so one suffix maximum of
``credit(0, j) + tail[j]`` per row ``eta`` serves every ``i``.  A layer costs
O(m·W) instead of O(m²).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import EMPTY_TARGETS, Instance, TargetSet, validate_instance
from .tables import ContributionTable


@dataclass(frozen=True)
class DpSolution:
    value: Fraction
    targets: TargetSet


@dataclass(frozen=True)
class BudgetPoint:
    k: int
    value: Fraction
    targets: TargetSet


@dataclass(frozen=True)
class BudgetCurve:
    """Optimal values for every budget 0..k_max, with the cheapest best budget."""

    entries: tuple[BudgetPoint, ...]
    min_k_for_max: int


def _dp_rows(table: ContributionTable, k: int, n_lb: int = 0):
    """All DP rows up to budget k.  ``values[b][eta, i]`` is the best scaled
    improvement above level ``i`` with ``b`` targets when at least ``eta``
    agents must improve (-1 when impossible); ``choices[b - 1][eta, i]`` is
    the lowest target it places.  Rows end in ``W`` more columns of -1, the
    levels past the top of the grid that the band of the top rows reaches."""
    m, w = table.grid_size, table.width
    cols = sliding_window_view(np.arange(1, m + w), w)[:m]  # band cell -> level
    past = np.minimum(np.arange(m) + w + 1, m)  # first level past each band
    first = np.full((n_lb + 1, m + w), -1, dtype=table.credits.dtype)
    first[0, :m] = 0
    values = [first]
    choices = []
    for _ in range(k):
        prev = values[-1]
        cur = np.full_like(prev, -1)
        pick = np.zeros((n_lb + 1, m), dtype=np.intp)
        for eta in range(n_lb + 1):
            cur[eta, :m], pick[eta] = _best_targets(table, prev, eta, cols, past)
            if cur[eta].max() < 0:
                break  # more improvers are no easier: the rest stays -1
        cur[0, m - 1] = 0  # topmost level: nothing above it to place
        values.append(cur)
        choices.append(pick)
    return values, choices


def _best_targets(table: ContributionTable, prev, eta: int, cols, past):
    """Row ``eta`` of a budget layer: for every level ``i``, the best
    ``credit(i, j) + prev[eta - count(i, j), j]`` over ``j > i`` with a
    feasible ``prev`` state, and its lowest ``j``.

    The band ``j <= i + W`` is read cell by cell.  Past it every row sees the
    same row-0 candidates, so one suffix maximum serves them all; the band
    comes first, so it wins ties."""
    m, w = table.grid_size, table.width
    levels = np.arange(m)
    if eta:  # the state each head count leaves; row 0 stays in row 0
        near = np.take(prev, np.maximum(eta - table.counts, 0) * prev.shape[1] + cols)
        tail = prev[np.maximum(eta - table.count0, 0), levels]
    else:
        near, tail = sliding_window_view(prev[0, 1:], w)[:m], prev[0, :m]
    cand = np.empty((m, w + 1), dtype=prev.dtype)
    np.add(table.credits, near, out=cand[:, :w])
    np.copyto(cand[:, :w], -1, where=near < 0)
    far = np.where(tail >= 0, table.credit0 + tail, -1)
    # best[s]: the best row-0 candidate at level s or above; at[s]: its lowest level.
    best = np.append(np.maximum.accumulate(far[::-1])[::-1], -1)
    record = np.where(far == best[:m], levels, m)
    at = np.append(np.minimum.accumulate(record[::-1])[::-1], m)
    cand[:, w] = best[past]
    arg = cand.argmax(axis=1)
    return cand[levels, arg], np.where(arg < w, levels + 1 + arg, at[past])


def _reconstruct(
    table: ContributionTable, choices, budget: int, eta: int = 0
) -> TargetSet:
    """Follow the stored choices from the root with ``budget`` targets and
    ``eta`` agents still to improve; keep the targets with credit."""
    chain = []
    i = 0
    while budget >= 1 and i < table.grid_size - 1:
        j = int(choices[budget - 1][eta, i])
        eta = max(eta - table.reach_count(i, j), 0)
        chain.append(j)
        i = j
        budget -= 1
    return table.served_targets(chain)


def _solve_budgets(table: ContributionTable, budgets: Sequence[int]) -> list[DpSolution]:
    """The welfare optimum at each of ``budgets`` from one DP run.

    The run stops at the largest budget asked for, or at m - 1 layers: no
    chain holds more targets, so every later layer repeats.  Only the
    budgets asked for are reconstructed."""
    if table.grid_size <= 1:  # nobody can improve
        return [DpSolution(Fraction(0), EMPTY_TARGETS) for _ in budgets]
    top = min(max(budgets, default=0), table.grid_size - 1)
    values, choices = _dp_rows(table, top)
    return [
        DpSolution(
            table.to_fraction(int(values[b][0, 0])), _reconstruct(table, choices, b)
        )
        for b in (min(k, top) for k in budgets)
    ]


def _solve(table: ContributionTable, k: int, n_lb: int) -> Optional[DpSolution]:
    if k == 0 or table.grid_size <= 1:
        # Nobody can improve: only an empty lower bound is met.
        return DpSolution(Fraction(0), EMPTY_TARGETS) if n_lb == 0 else None
    # No chain holds more than m - 1 targets: every later layer repeats.
    budget = min(k, table.grid_size - 1)
    values, choices = _dp_rows(table, budget, n_lb)
    root = int(values[budget][n_lb, 0])
    if root < 0:
        return None
    return DpSolution(
        table.to_fraction(root), _reconstruct(table, choices, budget, n_lb)
    )


def max_total_improvement(
    instance: Instance,
    k: int,
    *,
    table: Optional[ContributionTable] = None,
    engine: str = "auto",
) -> DpSolution:
    """Best total improvement over all target sets of at most ``k`` levels.

    Restricting candidates to the potential-target grid is lossless, so the
    returned value is the global optimum; the returned set achieves it.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    validate_instance(instance)
    if table is None:
        table = ContributionTable(instance, engine=engine)
    return _solve(table, k, 0)


def optimal_target_count_sweep(
    instance: Instance, k_max: int, *, engine: str = "auto"
) -> BudgetCurve:
    """Optimal value for every budget 0..k_max plus the least budget
    attaining the overall maximum (values are weakly increasing)."""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    validate_instance(instance)
    table = ContributionTable(instance, engine=engine)
    budget = min(k_max, max(table.grid_size - 1, 0))
    entries = [
        BudgetPoint(k, solution.value, solution.targets)
        for k, solution in enumerate(_solve_budgets(table, range(budget + 1)))
    ]
    last = entries[-1]
    entries += [
        BudgetPoint(k, last.value, last.targets) for k in range(len(entries), k_max + 1)
    ]
    min_k = next(e.k for e in entries if e.value == last.value)
    return BudgetCurve(tuple(entries), min_k)


def max_total_with_min_improvers(
    instance: Instance,
    k: int,
    n_lb: int,
    *,
    table: Optional[ContributionTable] = None,
) -> Optional[DpSolution]:
    """Best total improvement with at least ``n_lb`` agents strictly improving.

    Returns None when no target set of size at most ``k`` can make that many
    agents improve.  With ``n_lb == 0`` this is exactly
    :func:`max_total_improvement`.
    """
    if k < 0 or n_lb < 0:
        raise ValueError("k and n_lb must be non-negative")
    validate_instance(instance)
    if n_lb > instance.size:
        return None  # more improvers than agents
    if table is None:
        table = ContributionTable(instance)
    return _solve(table, k, n_lb)
