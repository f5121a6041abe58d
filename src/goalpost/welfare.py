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

One driver, :func:`_solve_budgets`, serves every caller.  It runs the layers
once, up to the largest budget asked for, holding only the value layer below
the one it fills, and reconstructs each budget from the stored choices:
O(k·(n_lb+1)·m) memory.  A run past physical memory, or whose allocation
fails anyway, is refused with ``SearchSpaceTooLarge``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import _physical_memory, check_memory, refuses_exhaustion
from .model import EMPTY_TARGETS, Instance, TargetSet, text_bytes, validate_instance
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


@refuses_exhaustion("the welfare DP")
def _dp_rows(table: ContributionTable, k: int, n_lb: int = 0):
    """Budget layers up to k, one value layer held at a time.  A layer's
    ``[eta, i]`` is the best scaled improvement above level ``i`` when at
    least ``eta`` agents must improve (-1 when impossible), and ends in ``W``
    more columns of -1, the levels past the top that the top rows' band
    reaches.  Returns each layer's root column ``[eta]`` and the choices:
    ``choices[b - 1][eta, i]`` is the lowest target layer ``b`` places."""
    m, w = table.grid_size, table.width
    # A choice is a level index, 4 bytes as int32; a value cell takes 8.
    need = (n_lb + 1) * (4 * k * m + 8 * 2 * (m + w))
    check_memory(need, "the welfare DP's choices and value layers", _physical_memory())
    cols = sliding_window_view(np.arange(1, m + w), w)[:m]  # band cell -> level
    past = np.minimum(np.arange(m) + w + 1, m)  # first level past each band
    prev = np.full((n_lb + 1, m + w), -1, dtype=table.credits.dtype)
    prev[0, :m] = 0
    roots = [prev[:, 0].copy()]
    choices = []
    for _ in range(k):
        cur = np.full_like(prev, -1)
        pick = np.zeros((n_lb + 1, m), dtype=np.int32)
        for eta in range(n_lb + 1):
            cur[eta, :m], pick[eta] = _best_targets(table, prev, eta, cols, past)
            if cur[eta].max() < 0:
                break  # more improvers are no easier: the rest stays -1
        cur[0, m - 1] = 0  # topmost level: nothing above it to place
        roots.append(cur[:, 0].copy())
        choices.append(pick)
        prev = cur
    return roots, choices


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


def _solve_budgets(
    table: ContributionTable, budgets: Sequence[int], n_lb: int = 0
) -> list[Optional[DpSolution]]:
    """The optimum with at least ``n_lb`` improvers at each of ``budgets``
    (None where there is none), from one DP run.  No chain holds more than
    m - 1 targets, so budgets are clamped to m - 1; each distinct clamped
    budget is reconstructed once."""
    m = table.grid_size
    if m <= 1:  # nobody can improve: only an empty lower bound is met
        nobody = DpSolution(Fraction(0), EMPTY_TARGETS) if n_lb == 0 else None
        return [nobody for _ in budgets]
    clamped = [min(k, m - 1) for k in budgets]
    top = max(clamped, default=0)
    # At n_lb = 0 the two-argument form, which a test stands in for.
    roots, choices = _dp_rows(table, top, n_lb) if n_lb else _dp_rows(table, top)
    solved = {
        b: DpSolution(table.to_fraction(int(roots[b][n_lb])),
                      _reconstruct(table, choices, b, n_lb))
        for b in set(clamped)
        if roots[b][n_lb] >= 0
    }
    return [solved.get(b) for b in clamped]


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
    return _solve_budgets(table, (k,))[0]


def optimal_target_count_sweep(
    instance: Instance, k_max: int, *, engine: str = "auto"
) -> BudgetCurve:
    """Optimal value for every budget 0..k_max plus the least budget
    attaining the overall maximum (values are weakly increasing)."""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    validate_instance(instance)
    table = ContributionTable(instance, engine=engine)
    # No chain holds more than m - 1 targets: later budgets repeat that one.
    top = min(k_max, max(table.grid_size - 1, 0))
    solutions = _solve_budgets(table, range(top + 1))
    check_memory(_curve_bytes(instance, top, k_max), "the sweep's curve",
                 _physical_memory())
    best = [(solution.value, solution.targets) for solution in solutions]
    entries = tuple(BudgetPoint(k, *best[min(k, top)]) for k in range(k_max + 1))
    min_k = next(e.k for e in entries if e.value == entries[-1].value)
    return BudgetCurve(entries, min_k)


# A conservative size of one curve entry as it is built and written: its
# BudgetPoint and, on the command line, its payload dict and JSON text.
# Measured: about 1.3 KB an entry plus 200 B a target of 11 characters.
_ENTRY_BYTES, _TARGET_BYTES = 2048, 256


def _curve_bytes(instance: Instance, top: int, k_max: int) -> int:
    """Bytes of a curve up to ``k_max`` whose entry ``k`` holds at most
    ``min(k, top)`` targets, each entry and target with its text."""
    text = text_bytes(instance)
    targets = top * (top + 1) // 2 + (k_max - top) * top
    return (_ENTRY_BYTES + text) * (k_max + 1) + (_TARGET_BYTES + text) * targets


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
    return _solve_budgets(table, (k,), n_lb)[0]
