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
The build scatters each agent's reachable levels and takes prefix sums along
the band, so it needs O(n·W) memory besides the bands, never an n × m mask.
Once the band width is known, a table that cannot fit in physical memory is
refused with ``SearchSpaceTooLarge`` before any band is allocated.

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

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import _physical_memory, check_memory
from .model import Instance, IntegerGrid, TargetSet, integer_grid


def _check_fits(g: int, m: int, w: int, entries: int) -> None:
    """Refuse a table whose bands, row 0 and scatter entries (8 bytes a cell)
    exceed physical memory, before any of them is allocated."""
    need = 8 * ((g + 2) * m * w + (g + 2) * m + entries)
    check_memory(need, "the credit table", _physical_memory())


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
        group_credits: ``(g, m, W)`` band of the scaled credit split by group.
        credit0, count0, group_credit0: row 0 (``i = 0``) of each table, one
            entry per level ``j``.
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
        _check_fits(g, m, w, int(span.sum()))
        # After the check: a group label past intp only comes with a huge g.
        gi = np.asarray([a.group for a in self.instance.agents], dtype=np.intp)
        # One entry per agent and reachable level j, at offset t = j - low - 1.
        who = np.repeat(np.arange(len(p)), span)
        t = np.arange(len(who)) - np.repeat(np.cumsum(span) - span, span)
        j = low[who] + 1 + t
        gains = tps[j] - p[who]
        # By column: [j, t] sums the agents at level j - 1 - t that reach j, so
        # the prefix sum over t covers every agent from level j - 1 - t up.
        count = np.zeros((m, w), dtype=np.int64)
        np.add.at(count, (j, t), 1)
        group_credit = np.zeros((g, m, w), dtype=dtype)
        np.add.at(group_credit, (gi[who], j, t), gains)
        np.cumsum(count, axis=1, out=count)
        np.cumsum(group_credit, axis=2, out=group_credit)
        # By row: band cell [i, d] is column j = i + 1 + d at offset d.
        self.counts = np.zeros((m, w), dtype=np.int64)
        self.group_credits = np.zeros((g, m, w), dtype=dtype)
        for d in range(w):
            self.counts[: m - 1 - d, d] = count[d + 1 :, d]
            self.group_credits[:, : m - 1 - d, d] = group_credit[:, d + 1 :, d]
        self.credits = self.group_credits.sum(axis=0)
        # Row 0 counts every agent below level j that reaches it.
        self.count0 = np.bincount(j, minlength=m).astype(np.int64)
        self.group_credit0 = np.zeros((g, m), dtype=dtype)
        np.add.at(self.group_credit0, (gi[who], j), gains)
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

    def to_fraction(self, scaled: int) -> Fraction:
        return Fraction(int(scaled), self.scale)

    def served_targets(self, chain: Sequence[int]) -> TargetSet:
        """Levels of a DP index chain read up from level 0, dropping the
        targets that no agent moves to."""
        return TargetSet(tuple(
            self.level(j)
            for prev, j in zip((0, *chain), chain)
            if self.credit_scaled(prev, j) > 0
        ))
