"""Shared pairwise credit precomputation for the dynamic programs.

All solvers in this package walk the same sorted grid of candidate levels
(:func:`goalpost.model.integer_grid`) and repeatedly need, for a pair of
grid indices ``i < j``, the total move credited to a target at level ``j``
when it is the lowest target at or above level ``i``: the sum of
``level[j] - p`` over agents with ``level[i] <= p < level[j]`` that can reach
``level[j]``.  This table computes those sums once, per group, together with
the matching head counts.

An agent only climbs to levels within its capacity, so no agent below level
``i`` reaches a level more than ``W`` grid steps above ``i``, where ``W`` is
the most levels any single agent can climb.  Every entry with ``j > i + W``
therefore equals its row-0 entry ``(0, j)``.  The table stores row 0 in full
plus an ``(m, W)`` band per quantity, O(m·W) cells instead of O(m²); wide
capacities widen the band, up to ``W = m - 1`` when one agent spans the grid.

Storage is offset-major: a band is held as ``(W, m)`` rows, one per offset
``d = j - i - 1``, so a DP reduces over contiguous rows; the public
``(m, W)`` attributes are transposed views of it.  The build scatters each
agent's reachable levels once, into ``(W+1, m)`` column tables, one for
head counts and one per group: cell ``[t, j]`` holds the agents at level
``j - 1 - t`` that reach level ``j``.  Prefix sums along ``t`` give the
band cells, each offset's row one contiguous slice, and the sum at offset
``W``, past every agent's span, is row 0, so row 0 needs no scatter of its
own.  The scatter's entry arrays are freed before any band is allocated,
and each column table as soon as its band and row 0 are copied out; with
one group, ``credits`` and ``credit0`` are views of group 0's arrays, not a
summed copy.  The build's peak is therefore the ``g + 1`` column tables
plus the larger of the entry arrays and the group band, about
``3·m·(W+1)`` words for one group, and never an n × m mask.  Once the band
width is known, a table whose build cannot fit in physical memory is
refused with ``SearchSpaceTooLarge`` before any of it is allocated, and so
is a build whose allocation fails anyway.

Internally everything is integer: the build reads the instance's one
integer view (:func:`goalpost.model.integer_grid`, scaled once by the least
common denominator and cached on the instance), grid levels and int64
guard included, so credits are exact.  The only rationals formed are the
levels that are read, each once, when first read: a DP's witness reads k of
them, not all m.  There is one numpy build with two dtypes: int64 when
every sum is guarded against overflow, and ``object`` (exact Python
integers) when values are too large for that.  Both are exact,
deterministic, and read-only once built.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import _physical_memory, check_memory, refuses_exhaustion
from .model import Instance, IntegerGrid, TargetSet, integer_grid


def _check_fits(grid: IntegerGrid, g: int, w: int, entries: int, dtype) -> None:
    """Refuse a table that exceeds physical memory, before any of it is
    allocated.  The build's peak holds the ``g + 1`` column tables of
    ``m·(W+1)`` cells, and with them either the scatter's entry arrays (at
    most six words an entry, while they are formed) or, when larger, the
    group band and rows 0 copied out of them; besides, the levels, five
    arrays per agent and 64 KiB for the array objects themselves.  A cell is
    a word, and for ``object`` also the int it points to, no larger than the
    grid's bound."""
    m, n = len(grid.levels), len(grid.positions)
    cell = 8 if dtype is np.int64 else 8 + sys.getsizeof(grid.bound)
    columns = (g + 1) * m * (w + 1)
    need = cell * (columns + max(6 * entries, g * m * (w + 1)) + m + 5 * n) + 2**16
    check_memory(need, "the credit table", _physical_memory())


def _band(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(..., m, W)`` band and the row 0 of a ``(..., W+1, m)`` column
    table, summed in place along its offset axis.  The band is the
    transposed view of an offset-major ``(..., W, m)`` array: its row ``d``
    is the columns ``j = i + 1 + d`` at offset ``d``, one contiguous slice.
    Row 0 is offset ``W``.  Offset ``d`` is summed into ``d + 1`` as its
    row is copied out, one addition of contiguous rows each: ``cumsum``
    along a leading axis costs several times as much."""
    *lead, w, m = column.shape
    w -= 1
    band = np.zeros((*lead, w, m), dtype=column.dtype)
    # Offset first, every group's row d at once.
    rows, out = column.swapaxes(0, -2), band.swapaxes(0, -2)
    for d in range(w):
        out[d, ..., : m - 1 - d] = rows[d, ..., d + 1 :]
        np.add(rows[d], rows[d + 1], out=rows[d + 1])
    return band.swapaxes(-1, -2), rows[w].copy()


class ContributionTable:
    """Immutable per-instance credit tables shared by every DP.

    Attributes:
        levels: sorted candidate target levels (exact rationals), formed
            from the integer grid as they are read (:meth:`level`).
        scale: common denominator used for the integer representation.
        engine: ``"numpy"`` for int64 arrays, ``"python"`` for exact
            object-dtype arrays; ``"auto"`` picks int64 whenever it is safe.
        width: ``W``, the most grid levels any agent can climb; a cell past
            the band (``j > i + W``) equals its row-0 value.
        credits, counts: ``(m, W)`` bands; ``[i, d]`` is the scaled credit and
            head count of a target at level ``j = i + 1 + d`` that is the
            lowest one at or above level ``i`` (0 past the top of the grid).
            Each is the transposed view of an offset-major ``(W, m)`` array,
            which ``.T`` gives back.
        group_credits: ``(g, m, W)`` band of the scaled credit split by group,
            the ``swapaxes(1, 2)`` view of a ``(g, W, m)`` array.
        credit0, count0, group_credit0: row 0 (``i = 0``) of each table, one
            entry per level ``j``.  With one group, ``credits`` and
            ``credit0`` are views of group 0's band and row 0.  No two
            attributes but these share data.
    """

    def __init__(self, instance: Instance, engine: str = "auto"):
        if engine not in ("auto", "python", "numpy"):
            raise ValueError(f"unknown engine {engine!r}")
        self.instance = instance
        grid = integer_grid(instance)
        self.scale: int = grid.scale
        self._grid_levels = grid.levels
        self._fractions: dict[int, Fraction] = {}
        int64_ok = grid.fits_int64
        if engine == "numpy" and not int64_ok:
            raise ValueError("instance values too large for the int64 engine")
        if engine == "auto":
            engine = "numpy" if int64_ok else "python"
        self.engine = engine
        self._build(grid, np.int64 if engine == "numpy" else object)

    # -- construction ------------------------------------------------------

    @refuses_exhaustion("the credit table")
    def _build(self, grid: IntegerGrid, dtype) -> None:
        m, g = len(grid.levels), self.instance.num_groups
        tps = np.asarray(grid.levels, dtype=dtype)
        p = np.asarray(grid.positions, dtype=dtype)
        r = p + np.asarray(grid.capacities, dtype=dtype)
        # Positions and reaches are levels: agent a sits at level low[a] and
        # reaches the span[a] levels above it.
        low = np.searchsorted(tps, p)
        span = np.searchsorted(tps, r) - low
        self.width = w = int(span.max(initial=0))
        _check_fits(grid, g, w, int(span.sum()), dtype)
        # After the check: a group label past intp only comes with a huge g.
        gi = np.asarray([a.group for a in self.instance.agents], dtype=np.intp)
        # One entry per agent and reachable level j, at offset t = j - low - 1:
        # flat cell t·m + j of a (W+1, m) column table.
        who = np.repeat(np.arange(len(p)), span)
        t = np.arange(len(who)) - np.repeat(np.cumsum(span) - span, span)
        j = low[who] + 1 + t
        at = t * m + j
        del t
        gains = tps[j] - p[who]
        group = gi[who]
        del who, j
        # By column: [t, j] sums the agents at level j - 1 - t that reach j, so
        # the prefix sum over t covers every agent from level j - 1 - t up.  No
        # span reaches offset W, so the sum there covers every agent below
        # level j that reaches it: row 0.
        count = np.zeros((w + 1, m), dtype=np.int64)
        np.add.at(count.reshape(-1), at, 1)
        at += group * (m * (w + 1))
        del group
        group_credit = np.zeros((g, w + 1, m), dtype=dtype)
        np.add.at(group_credit.reshape(-1), at, gains)
        # Each array goes once read: the entries before any band is
        # allocated, each column table once its band and row 0 are out.
        del at, gains
        self.counts, self.count0 = _band(count)
        del count
        self.group_credits, self.group_credit0 = _band(group_credit)
        del group_credit
        if g == 1:
            self.credits, self.credit0 = self.group_credits[0], self.group_credit0[0]
        else:
            # The sum keeps its terms' layout: offset-major too.
            self.credits = self.group_credits.sum(axis=0)
            self.credit0 = self.group_credit0.sum(axis=0)
        for table in (self.credits, self.counts, self.group_credits,
                      self.credit0, self.count0, self.group_credit0):
            table.flags.writeable = False

    # -- access ------------------------------------------------------------

    @property
    def grid_size(self) -> int:
        return len(self._grid_levels)

    def level(self, j: int) -> Fraction:
        """Grid level ``j`` as a rational, formed on its first read."""
        value = self._fractions.get(j)
        if value is None:
            value = self._fractions[j] = Fraction(self._grid_levels[j], self.scale)
        return value

    @property
    def levels(self) -> tuple[Fraction, ...]:
        return tuple(map(self.level, range(self.grid_size)))

    def _cell(self, band: np.ndarray, row0: np.ndarray, i: int, j: int):
        """Entry ``(i, j)`` of a banded table: 0 for ``j <= i``, the band up
        to ``j = i + W``, the row-0 value past it."""
        d = j - i - 1
        if d < 0:
            return np.zeros_like(row0[..., j])
        return band[..., i, d] if d < self.width else row0[..., j]

    def credit_scaled(self, i: int, j: int) -> int:
        return int(self._cell(self.credits, self.credit0, i, j))

    def credit(self, i: int, j: int) -> Fraction:
        return Fraction(self.credit_scaled(i, j), self.scale)

    def reach_count(self, i: int, j: int) -> int:
        return int(self._cell(self.counts, self.count0, i, j))

    def group_credit_scaled(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(self._cell(self.group_credits, self.group_credit0, i, j).tolist())

    def group_credit(self, i: int, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.group_credit_scaled(i, j))

    def served_targets(self, chain: Sequence[int]) -> TargetSet:
        """Levels of a DP index chain read up from level 0, dropping the
        targets that no agent moves to."""
        return TargetSet(tuple(
            self.level(j)
            for prev, j in zip((0, *chain), chain)
            if self.credit_scaled(prev, j) > 0
        ))
