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
stays "value >= 0" with no masking pass.  It runs on the table's arrays in
either dtype (int64 or exact object integers), with identical results.

Each layer reads the credit table's offset-major band: for level ``i`` the
candidates ``j <= i + W`` are the band's column ``i``, one contiguous row
per offset, and every ``j`` past the band shares its row-0 credit and
count, so one suffix maximum of ``credit(0, j) + tail[j]`` per row ``eta``
serves every ``i``.  One maximum over the offsets and the suffix gives each
level's value, and the lowest offset reaching it its lowest target.  The
levels are taken in blocks of a few ``_BLOCK_CELLS`` candidates, so they
stay in cache at any ``W``.  A layer costs O(m·W) per row instead of
O(m²).

A value layer is level-major, ``(m + W, pad + n_lb + 1)``: row ``j`` holds
level ``j``'s states, ``eta`` at column ``pad + eta``, and its first
``pad = min(n_lb, max count0)`` columns repeat ``eta = 0``.  Row ``eta =
0`` leads only to ``eta = 0``, so it is filled on its own, its band read
through windows; with ``n_lb = 0`` it is the whole layer.  A head count
``c`` takes every ``eta >= 1`` to ``max(eta - c, 0)``, so the states it
leads to for ``eta = 1..n_lb`` are one contiguous run of row ``j``, from
column ``pad + 1 - min(c, pad)``: one gather of a run per band cell fills
every such row of a block at once (with fewer than ``_RUN_ROWS`` rows,
runs that short are gathered cell by cell instead).  A state with more
agents still to improve than can improve at or above its level is
infeasible, whatever it places, so it is never formed: a block forms only
the rows live at its first level, the most of any of its levels, and its
other states hold the floor and choice 0.  Nor is a row formed past those
that the layer below's root meets plus the largest head count, since no
level meets more than the root.  Only the root of the last layer is
formed, at the one row ``eta = n_lb`` that is read, so that layer is one
level: row 0 of the table holds every target, so it is one O(m) pass.

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


# Cells of one block of a DP layer's candidates, over its levels and the
# eta rows it batches, which stays in cache however wide the band: a layer
# is reduced one block of levels at a time.  A block whose levels are its
# innermost axis (the row eta = 0, or rows gathered cell by cell) holds
# four times as many, 2^17: at 2^15 its levels are too few on a wide band
# (W = 693, 32,000 agents: 20 one-row layers took 3.2 s against 2.3 s).
# Blocks that copy runs hold 2^15: at 2^17, small_exact's solve-lb call
# read 5.7-6.4 ms against 3.6-3.7 ms.
_BLOCK_CELLS = 1 << 15
# Rows from which a block copies one run per band cell, rows innermost; a
# block with fewer gathers its cells, levels innermost.  On 2,000 agents
# (W = 64, 12 layers), runs took 115 ms against 106 ms for cells at 9
# rows, as long at 12, and 151 ms against 176 ms at 16.
_RUN_ROWS = 12


class _Band(NamedTuple):
    """What every layer of one DP run reads, formed once per run; each
    block forms its own candidates."""

    credits: np.ndarray  # (W, m) offset-major credit band
    counts: np.ndarray  # (W, m) offset-major head counts
    credit0: np.ndarray
    count0: np.ndarray
    floor: object  # the value of an infeasible state
    levels: np.ndarray  # 0..m-1
    heads: np.ndarray  # [d, i]: where level i + 1 + d's eta = 0 sits in a flat value layer
    past: np.ndarray  # the first level past each level's band
    ranks: np.ndarray  # (W+1, 1): W + 1 - d for offset d, W standing for past the band
    blocks: list[tuple[int, int, int]]  # level ranges and rows of the eta = 0 row's blocks
    pad: int  # leading columns of a value layer that repeat eta = 0
    heads0: np.ndarray  # [j]: where state (j, max(eta - count0[j], 0)) sits, less eta
    live: np.ndarray  # level i can meet no row past eta = live[i]
    batches: list[tuple[int, int, int]]  # level ranges and rows eta >= 1 of their blocks


def _windows(row: np.ndarray, w: int, m: int) -> np.ndarray:
    """The read-only ``(w, m)`` view whose ``[d, i]`` is ``row[d + i]``."""
    step = row.strides[0]
    return as_strided(row, (w, m), (step, step), writeable=False)


def _live_rows(table: ContributionTable, n_lb: int) -> np.ndarray:
    """``min(n_lb, a)`` at each level, where ``a`` counts the agents at or
    above it that can improve: a state with more than ``a`` agents still
    to improve is infeasible whatever it places.  Such an agent reaches the
    level above its own, so the band's offset 0 counts them at each level
    (an empty band, ``W = 0``, counts none)."""
    above = table.counts.T[:1].sum(axis=0)[::-1].cumsum()[::-1]
    return np.minimum(above, n_lb)


def _blocks(rows: np.ndarray, w: int) -> list[tuple[int, int, int]]:
    """Level ranges of about ``_BLOCK_CELLS`` candidates each when a block
    copies runs, four times as many when its levels are innermost, counted
    over the band offsets and ``rows`` at a block's first level, the most
    of any of its levels; none past the first level with no row."""
    blocks, a, m = [], 0, len(rows)
    while a < m and rows[a]:
        n = int(rows[a])
        cells = _BLOCK_CELLS if n >= _RUN_ROWS else 4 * _BLOCK_CELLS
        b = min(a + max(1, cells // ((w + 1) * n)), m)
        blocks.append((a, b, n))
        a = b
    return blocks


def _check_dp_fits(table: ContributionTable, k: int, n_lb: int) -> int:
    """Refuse a DP run of ``k`` budget layers of ``n_lb + 1`` rows whose
    choices and value layers would exceed physical memory, before any is
    allocated; return ``pad``, the columns of a value layer before its
    ``eta = 0`` one.

    A choice is a level index, 4 bytes as int32.  A value cell is a word,
    and for ``object`` also the int it points to, no larger than the grid's
    bound.  The two value layers held are ``(m + W, pad + n_lb + 1)``; the
    suffix maxima and their levels, with their temporaries, take two cells
    and six words per row and level; a block's candidates take a cell each,
    and their gather, comparison and ranks at most three words.  A block
    holds at most ``max(4 * _BLOCK_CELLS, (W + 1) * rows)`` cells, with at
    most ``min(n_lb, n) + 1`` rows live at any level.  A layer's own arrays
    take at most 16 words a level, a block's bounds about 16 words, and
    the arrays' headers 64 KiB."""
    m, w = table.grid_size, table.width
    pad = min(n_lb, int(table.count0.max(initial=0)))
    rows = min(n_lb, table.instance.size) + 1
    row_step = max(1, 4 * _BLOCK_CELLS // (w + 1))
    step = max(1, _BLOCK_CELLS // ((w + 1) * rows))
    block = min(max(4 * _BLOCK_CELLS, (w + 1) * rows), (w + 1) * m * rows)
    blocks = -(-m // row_step) + 2 * -(-m // step)
    cell = 8
    if table.credits.dtype == object:
        cell += sys.getsizeof(integer_grid(table.instance).bound)
    need = (4 * k * m * (n_lb + 1) + cell * 2 * (m + w) * (pad + n_lb + 1)
            + (2 * cell + 48) * rows * (m + 1) + (cell + 24) * block
            + 8 * 16 * (m + w + blocks) + (1 << 16))
    check_memory(need, "the welfare DP's choices and value layers", _physical_memory())
    return pad


@refuses_exhaustion("the welfare DP")
def _dp_rows(table: ContributionTable, k: int, n_lb: int):
    """Budget layers up to k, one value layer held at a time.  A layer is
    level-major: its ``[i, pad + eta]`` is the best scaled improvement above
    level ``i`` when at least ``eta`` agents must improve, negative when
    that is impossible, and its first ``pad`` columns repeat ``eta = 0``.
    It ends in ``W`` more rows of infeasible states, the levels past the
    top that the top levels' band reaches.  An infeasible state starts at
    the floor ``-1 - bound``; a chain's credits are at most the grid's
    bound, so it stays negative, and no masking pass is needed.  Returns
    each layer's root ``[eta]`` and the choices: ``choices[b - 1][i, eta]``
    is the lowest target layer ``b`` places.

    Only the root of the top layer is read, and only at ``eta = n_lb``:
    that layer is one level, 0, whose ``[n_lb]`` alone is filled and whose
    other states hold the floor.  The grid has at least two levels."""
    m, w = table.grid_size, table.width
    pad = _check_dp_fits(table, k, n_lb)
    width = pad + n_lb + 1
    dtype = table.credits.dtype
    live = _live_rows(table, n_lb)
    band = _Band(
        credits=table.credits.T,
        counts=table.counts.T,
        credit0=table.credit0,
        count0=table.count0,
        floor=-1 - integer_grid(table.instance).bound,
        levels=np.arange(m),
        heads=_windows(np.arange(1, m + w) * width + pad, w, m),
        past=np.minimum(np.arange(m) + w + 1, m),
        ranks=np.arange(w + 1, 0, -1, dtype=np.min_scalar_type(w + 1))[:, None],
        blocks=_blocks(np.ones(m, dtype=np.intp), w),
        pad=pad,
        heads0=np.arange(m) * width + pad - np.minimum(table.count0, pad),
        live=live,
        batches=_blocks(live, w),
    )
    prev = np.full((m + w, width), band.floor, dtype=dtype)
    prev[:m, : pad + 1] = 0
    roots = [prev[0, pad:].copy()]
    choices = []
    for layer in range(1, k + 1):
        if layer == k:
            cur = np.full((1, width), band.floor, dtype=dtype)
            pick = np.zeros((1, n_lb + 1), dtype=np.int32)
            _best_root(band, prev, n_lb, cur[0, pad + n_lb :], pick[0, n_lb:])
        else:
            cur = np.full_like(prev, band.floor)
            pick = np.zeros((m, n_lb + 1), dtype=np.int32)
            _best_targets(band, prev, cur, pick)
            cur[m - 1, : pad + 1] = 0  # topmost level: nothing above it to place
        roots.append(cur[0, pad:].copy())
        choices.append(pick)
        prev = cur
    return roots, choices


def _suffix_best(band: _Band, far):
    """For rows of row-0 candidates ``far[..., j]``: at each level ``i``,
    the best candidate past ``i``'s band and its lowest level, ``m`` when
    there is none.  Each row is one pass along its own contiguous axis;
    ``far`` is released as soon as it is read."""
    m = far.shape[-1]
    best = np.empty((*far.shape[:-1], m + 1), dtype=far.dtype)
    best[..., m] = band.floor
    np.maximum.accumulate(far[..., ::-1], axis=-1, out=best[..., m - 1 :: -1])
    record = np.where(far == best[..., :m], band.levels, m)
    del far
    at = np.empty(best.shape, dtype=band.levels.dtype)
    at[..., m] = m
    np.minimum.accumulate(record[..., ::-1], axis=-1, out=at[..., m - 1 :: -1])
    del record
    best = best.take(band.past, axis=-1)
    return best, at.take(band.past, axis=-1)


def _best_targets(band: _Band, prev, value, pick) -> None:
    """A budget layer below the top: for every level ``i`` and live row
    ``eta``, the best ``credit(i, j) + prev[j, eta - count(i, j)]`` over
    ``j > i`` into ``value``, and its lowest ``j`` into ``pick``.

    Row ``eta = 0`` leads only to ``eta = 0``: it is one row, whose band is
    read through windows (:func:`_best_row`), and with ``n_lb = 0`` it is
    the whole layer.  The rows ``eta >= 1`` are filled together.  A head
    count ``c`` takes row ``eta`` of level ``j`` to ``max(eta - c, 0)``:
    for ``eta = 1..n_lb`` that is the run of ``prev``'s row ``j`` from
    column ``pad + 1 - min(c, pad)``.  A block's candidates are one slab
    per band offset and a last one for past the band, where every level
    sees the same row-0 candidates, so one suffix maximum per row serves
    them all.  With ``_RUN_ROWS`` rows or more a slab is ``(levels, rows)``
    and the gather copies one run per band cell; with fewer, a slab is
    ``(rows, levels)``, so that its credits and levels broadcast along the
    levels rather than along a few rows, and the gather reads cells.  Each
    block takes one maximum
    over its slabs; the highest rank reaching it is the lowest offset, the
    band before the suffix, so the lowest ``j``.

    A block forms only the rows live at its first level, and no more than
    the layer below's root meets past ``eta = 0`` plus the largest head
    count; it sets its later levels' rows past their own live count back
    to the floor and pick 0."""
    m, w = pick.shape[0], band.credits.shape[0]
    levels, pad = band.levels, band.pad
    if prev.shape[1] == 1:
        _best_row(band, prev[:, 0], value[:m, 0], pick[:, 0])
        return
    zero = np.empty(m, dtype=prev.dtype)
    _best_row(band, np.ascontiguousarray(prev[:, pad]), zero, pick[:, 0])
    value[:m, : pad + 1] = zero[:, None]
    # State (j, eta) sits at flat[j * width + pad + eta], and runs[f] is the
    # run of the n_lb states from flat[f + 1] on.
    flat, width = prev.reshape(-1), prev.shape[1]
    step, n_lb = flat.strides[0], width - pad - 1
    runs = as_strided(flat[1:], (flat.size - n_lb, n_lb), (step, step), writeable=False)
    # A state meets at most its head count more improvers than the state
    # it leads to, and no level of the layer below meets more than its
    # root: no row past that is formed.
    cap = int(np.count_nonzero(prev[0, pad + 1 :] >= 0)) + pad
    batches = (band.batches if cap >= band.live[0]
               else _blocks(np.minimum(band.live, cap), w))
    if not batches:
        return
    rows = batches[0][2]
    etas = np.arange(1, rows + 1)
    far = flat.take(band.heads0 + etas[:, None])
    far += band.credit0
    best, at = _suffix_best(band, far)
    del far
    ranks = band.ranks[..., None]
    for a, b, rows in batches:
        # State (j, eta) of band cell (i, j) sits at flat[start + eta].
        start = np.minimum(band.counts[:, a:b], pad)
        np.subtract(band.heads[:, a:b], start, out=start)
        # The block's slabs, and what they broadcast against: (levels,
        # rows) when runs are copied, (rows, levels) when cells are
        # gathered.
        if rows >= _RUN_ROWS:
            cand = np.empty((w + 1, b - a, rows), dtype=prev.dtype)
            np.add(runs[start, :rows], band.credits[:, a:b, None], out=cand[:w])
            cand[w] = best[:rows, a:b].T
            there, past, live = levels[a:b, None], at[:rows, a:b].T, band.live[a:b, None]
            eta = etas[:rows]
        else:
            cand = np.empty((w + 1, rows, b - a), dtype=prev.dtype)
            np.take(flat, start[:, None] + etas[:rows, None], out=cand[:w], mode="clip")
            cand[:w] += band.credits[:, None, a:b]
            cand[w] = best[:rows, a:b]
            there, past, live = levels[a:b], at[:rows, a:b], band.live[a:b]
            eta = etas[:rows, None]
        top = cand.max(axis=0)
        # W + 1 - d for the lowest offset d reaching the maximum
        rank = ((cand == top) * ranks).max(axis=0)
        chosen = np.where(rank > 1, there + (w + 2) - rank, past)
        if band.live[b - 1] < rows:  # later levels with fewer agents above
            dead = eta > live
            np.copyto(top, band.floor, where=dead)
            np.copyto(chosen, 0, where=dead)
        if rows < _RUN_ROWS:
            top, chosen = top.T, chosen.T
        value[a:b, pad + 1 : pad + 1 + rows] = top
        pick[a:b, 1 : 1 + rows] = chosen


def _best_row(band: _Band, row, value, pick) -> None:
    """The ``eta = 0`` row of a layer, from ``row``, the layer's below:
    each block adds the band's credits to windows of ``row``."""
    w, m = band.credits.shape[0], value.shape[0]
    near = _windows(row[1:], w, m)
    best, at = _suffix_best(band, band.credit0 + row[:m])
    for a, b, _ in band.blocks:
        cand = np.empty((w + 1, b - a), dtype=row.dtype)
        np.add(band.credits[:, a:b], near[:, a:b], out=cand[:w])
        cand[w] = best[a:b]
        top = cand.max(axis=0, out=value[a:b])
        rank = ((cand == top) * band.ranks).max(axis=0)
        pick[a:b] = np.where(rank > 1, band.levels[a:b] + (w + 2) - rank, at[a:b])


def _best_root(band: _Band, prev, eta: int, value, pick) -> None:
    """Level 0 of row ``eta``: the best ``credit(0, j) + prev[j, eta - count(0, j)]``
    over ``j >= 1`` into ``value[0]``, and its lowest ``j`` into ``pick[0]``.
    Row 0 holds every ``j``, so this is one pass over it."""
    cand = band.credit0[1:] + prev.reshape(-1)[band.heads0[1:] + eta]
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
        j = int(choices[budget - 1][i, eta])
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
