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
serves both: the welfare solve is its ``eta = 0`` layer.  An unsatisfiable
state starts at the floor ``-1 - bound`` (the grid's bound, which no
chain's credits exceed), so adding credits keeps it negative and feasibility
stays "value >= 0" with no masking pass.  Feasibility only gets harder as
``eta`` grows, so a budget layer stops at its first all-infeasible row.  It
runs on the table's arrays in either dtype (int64 or exact object
integers), with identical results.

Each layer reads the credit table's offset-major band: for level ``i`` the
candidates ``j <= i + W`` form column ``i`` of a ``(W+1, m)`` candidate
array, one contiguous row per offset, and every ``j`` past the band shares
its row-0 credit and count, so one suffix maximum of
``credit(0, j) + tail[j]`` per row ``eta`` fills the last row for every
``i``.  One maximum over the rows gives each level's value, and the lowest
offset reaching it its lowest target.  The columns are taken in blocks of
about ``_BLOCK_CELLS`` cells, so the candidates stay in cache at any ``W``.
A layer costs O(m·W) instead of O(m²).  Only the root of the last layer is
formed, at the one row ``eta = n_lb`` that is read, so that layer is one
column: row 0 of the table holds every target, so it is one O(m) pass.

One driver, :func:`_solve_budgets`, serves every caller.  It runs the layers
once, up to the largest budget asked for, holding only the value layer below
the one it fills, and reconstructs each budget from the stored choices:
O(k·(n_lb+1)·m) memory.  A run past physical memory, or whose allocation
fails anyway, is refused with ``SearchSpaceTooLarge``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import _physical_memory, check_memory, refuses_exhaustion
from .model import (
    EMPTY_TARGETS, Instance, TargetSet, integer_grid, text_bytes, validate_instance,
)
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


# Cells of one column block of a DP row's candidates, which stays in cache
# however wide the band: a row is reduced one block of levels at a time.
_BLOCK_CELLS = 1 << 17


class _Band(NamedTuple):
    """What every row of one DP run reads, formed once per run; each column
    block forms its own candidates."""

    credits: np.ndarray  # (W, m) offset-major credit band
    counts: np.ndarray  # (W, m) offset-major head counts
    credit0: np.ndarray
    count0: np.ndarray
    floor: object  # the value of an infeasible state
    levels: np.ndarray  # 0..m-1
    cols: np.ndarray  # [d, i]: level i + 1 + d of band cell (i, i + 1 + d)
    past: np.ndarray  # the first level past each level's band
    ranks: np.ndarray  # (W+1, 1): W + 1 - d for offset d, W standing for past the band
    blocks: list[tuple[int, int]]  # level ranges of the column blocks


def _windows(row: np.ndarray, w: int, m: int) -> np.ndarray:
    """The read-only ``(w, m)`` view whose ``[d, i]`` is ``row[d + i]``."""
    step = row.strides[0]
    return as_strided(row, (w, m), (step, step), writeable=False)


def _check_dp_fits(table: ContributionTable, k: int, n_lb: int) -> int:
    """Refuse a DP run of ``k`` budget layers of ``n_lb + 1`` rows whose
    choices and value layers would exceed physical memory, before any is
    allocated; return the levels of a column block.

    A choice is a level index, 4 bytes as int32.  A value cell is a word,
    and for ``object`` also the int it points to, no larger than the grid's
    bound; a block's candidates take a cell each, and their gather index
    and ranks at most two words.  A row's arrays and the run's own take at
    most 16 words a level, a block's bounds about 16 words, and the arrays'
    headers 64 KiB."""
    m, w = table.grid_size, table.width
    step = max(1, _BLOCK_CELLS // (w + 1))
    span = min(step, m)  # the levels of the widest block
    blocks = -(-m // step)
    cell = 8
    if table.credits.dtype == object:
        cell += sys.getsizeof(integer_grid(table.instance).bound)
    need = ((n_lb + 1) * (4 * k * m + cell * 2 * (m + w)) + (cell + 16) * (w + 1) * span
            + 8 * 16 * (m + w + blocks) + (1 << 16))
    check_memory(need, "the welfare DP's choices and value layers", _physical_memory())
    return step


@refuses_exhaustion("the welfare DP")
def _dp_rows(table: ContributionTable, k: int, n_lb: int):
    """Budget layers up to k, one value layer held at a time.  A layer's
    ``[eta, i]`` is the best scaled improvement above level ``i`` when at
    least ``eta`` agents must improve, negative when that is impossible, and
    ends in ``W`` more columns of infeasible states, the levels past the
    top that the top rows' band reaches.  An infeasible state starts at
    the floor ``-1 - bound``; a chain's credits are at most the grid's
    bound, so it stays negative, and no masking pass is needed.  Returns
    each layer's root column ``[eta]`` and the choices:
    ``choices[b - 1][eta, i]`` is the lowest target layer ``b`` places.

    Only the root of the top layer is read, and only at ``eta = n_lb``:
    that layer is one column, level 0, whose ``[n_lb]`` alone is filled and
    whose other states hold the floor.  The grid has at least two levels."""
    m, w = table.grid_size, table.width
    step = _check_dp_fits(table, k, n_lb)
    dtype = table.credits.dtype
    band = _Band(
        credits=table.credits.T,
        counts=table.counts.T,
        credit0=table.credit0,
        count0=table.count0,
        floor=-1 - integer_grid(table.instance).bound,
        levels=np.arange(m),
        cols=_windows(np.arange(1, m + w), w, m),
        past=np.minimum(np.arange(m) + w + 1, m),
        ranks=np.arange(w + 1, 0, -1, dtype=np.min_scalar_type(w + 1))[:, None],
        blocks=[(a, min(a + step, m)) for a in range(0, m, step)],
    )
    prev = np.full((n_lb + 1, m + w), band.floor, dtype=dtype)
    prev[0, :m] = 0
    roots = [prev[:, 0].copy()]
    choices = []
    for layer in range(1, k + 1):
        if layer == k:
            cur = np.full((n_lb + 1, 1), band.floor, dtype=dtype)
            pick = np.zeros((n_lb + 1, 1), dtype=np.int32)
            _best_root(band, prev, n_lb, cur[n_lb], pick[n_lb])
        else:
            cur = np.full_like(prev, band.floor)
            pick = np.zeros((n_lb + 1, m), dtype=np.int32)
            for eta in range(n_lb + 1):
                _best_targets(band, prev, eta, cur[eta, :m], pick[eta])
                if cur[eta].max() < 0:
                    break  # more improvers are no easier: the rest stays infeasible
            cur[0, m - 1] = 0  # topmost level: nothing above it to place
        roots.append(cur[:, 0].copy())
        choices.append(pick)
        prev = cur
    return roots, choices


def _best_targets(band: _Band, prev, eta: int, value, pick) -> None:
    """Row ``eta`` of a budget layer: for every level ``i``, the best
    ``credit(i, j) + prev[eta - count(i, j), j]`` over ``j > i`` into
    ``value``, and its lowest ``j`` into ``pick``.

    The candidates are ``(W+1, m)``, one row per band offset and a last row
    for past the band.  Past it every level sees the same row-0 candidates,
    so one suffix maximum serves them all.  Each block of levels takes one
    maximum over its rows; the highest rank reaching it is the lowest
    offset, the band before the suffix, so the lowest ``j``."""
    w, m = band.credits.shape[0], value.shape[0]
    levels = band.levels
    if eta:  # the state each head count leaves; row 0 stays in row 0
        tail = prev[np.maximum(eta - band.count0, 0), levels]
        flat = prev.reshape(-1)
    else:
        tail = prev[0, :m]
        near = _windows(prev[0, 1:], w, m)
    far = band.credit0 + tail
    # best[s]: the best row-0 candidate at level s or above; at[s]: its lowest level.
    best = np.empty(m + 1, dtype=far.dtype)
    best[m] = band.floor
    np.maximum.accumulate(far[::-1], out=best[m - 1 :: -1])
    at = np.empty(m + 1, dtype=levels.dtype)
    at[m] = m
    record = np.where(far == best[:m], levels, m)
    np.minimum.accumulate(record[::-1], out=at[m - 1 :: -1])
    best, at = best[band.past], at[band.past]
    for a, b in band.blocks:
        cand = np.empty((w + 1, b - a), dtype=far.dtype)
        if eta:
            index = eta - band.counts[:, a:b]
            np.maximum(index, 0, out=index)
            index *= prev.shape[1]
            index += band.cols[:, a:b]
            np.take(flat, index, out=cand[:w], mode="clip")
            cand[:w] += band.credits[:, a:b]
        else:
            np.add(band.credits[:, a:b], near[:, a:b], out=cand[:w])
        cand[w] = best[a:b]
        top = cand.max(axis=0, out=value[a:b])
        # W + 1 - d for the lowest offset d reaching the maximum
        rank = ((cand == top) * band.ranks).max(axis=0)
        pick[a:b] = np.where(rank > 1, levels[a:b] + (w + 2) - rank, at[a:b])


def _best_root(band: _Band, prev, eta: int, value, pick) -> None:
    """Level 0 of row ``eta``: the best ``credit(0, j) + prev[eta - count(0, j), j]``
    over ``j >= 1`` into ``value[0]``, and its lowest ``j`` into ``pick[0]``.
    Row 0 holds every ``j``, so this is one pass over it."""
    levels = band.levels[1:]
    cand = band.credit0[1:] + prev[np.maximum(eta - band.count0[1:], 0), levels]
    best = int(cand.argmax())  # the first maximum: the lowest j
    value[0], pick[0] = cand[best], best + 1


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
    roots, choices = _dp_rows(table, top, n_lb)
    solved = {
        b: DpSolution(Fraction(int(roots[b][n_lb]), table.scale),
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
    # Both refusals come before any layer runs, the DP's first.
    _check_dp_fits(table, top, 0)
    check_memory(_curve_bytes(instance, top, k_max), "the sweep's curve",
                 _physical_memory())
    solutions = _solve_budgets(table, range(k_max + 1))
    entries = tuple(BudgetPoint(k, s.value, s.targets) for k, s in enumerate(solutions))
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
