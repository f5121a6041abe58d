"""Shared pairwise credit precomputation for the dynamic programs.

All solvers in this package walk the same sorted grid of candidate levels
(:func:`goalpost.model.potential_targets`) and repeatedly need, for a pair of
grid indices ``i < j``, the total move credited to a target at level ``j``
when it is the lowest target at or above level ``i``: the sum of
``level[j] - p`` over agents with ``level[i] <= p < level[j]`` that can reach
``level[j]``.  This table computes those sums once, per group, together with
the matching head counts.

Internally everything is integer: positions and capacities are rescaled by
the least common denominator, so credits are exact machine integers.  Large
grids use int64 numpy arrays (guarded against overflow); small grids or
oversized values fall back to plain Python integers.  Both representations
are exact, deterministic, and immutable once built.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .model import Instance, TargetSet, potential_targets

# Keep headroom: DP candidates add two table entries plus a running value.
_INT64_SAFE = 1 << 60
# Below this grid size the pure-Python build is already instantaneous.
_NUMPY_MIN_GRID = 64


class ContributionTable:
    """Immutable per-instance credit tables shared by every DP.

    Attributes:
        levels: sorted candidate target levels (exact rationals).
        scale: common denominator used for the integer representation.
    """

    def __init__(self, instance: Instance, engine: str = "auto"):
        if engine not in ("auto", "python", "numpy"):
            raise ValueError(f"unknown engine {engine!r}")
        self.instance = instance
        self.levels: tuple[Fraction, ...] = potential_targets(instance).levels
        denoms = [a.position.denominator for a in instance.agents]
        denoms += [a.capacity.denominator for a in instance.agents]
        self.scale: int = lcm(*denoms) if denoms else 1
        self._scaled_levels = [
            int(v * self.scale) for v in self.levels
        ]  # exact by construction
        total_scaled = sum(int(a.capacity * self.scale) for a in instance.agents)
        top = self._scaled_levels[-1] if self._scaled_levels else 0
        int64_ok = max(total_scaled, top) < _INT64_SAFE
        if engine == "numpy" and not int64_ok:
            raise ValueError("instance values too large for the int64 engine")
        if engine == "auto":
            engine = (
                "numpy"
                if int64_ok and len(self.levels) >= _NUMPY_MIN_GRID
                else "python"
            )
        self.engine = engine
        if engine == "numpy":
            self._build_numpy()
        else:
            self._build_python()

    # -- construction ------------------------------------------------------

    def _agent_columns(self):
        """Scaled positions, reaches, group labels, and grid bucket per agent."""
        pos, reach, grp, bucket = [], [], [], []
        for a in self.instance.agents:
            p = int(a.position * self.scale)
            pos.append(p)
            reach.append(p + int(a.capacity * self.scale))
            grp.append(a.group)
            bucket.append(bisect_left(self._scaled_levels, p))
        return pos, reach, grp, bucket

    def _build_python(self) -> None:
        m = len(self.levels)
        g = self.instance.num_groups
        pos, reach, grp, bucket = self._agent_columns()
        self._credit = [[0] * m for _ in range(m)]
        self._count = [[0] * m for _ in range(m)]
        self._group_credit = [[[0] * g for _ in range(m)] for _ in range(m)]
        for j, tj in enumerate(self._scaled_levels):
            col_credit = [0] * m
            col_count = [0] * m
            col_group = [[0] * g for _ in range(m)]
            for p, r, gi, b in zip(pos, reach, grp, bucket):
                if p < tj <= r:
                    gain = tj - p
                    col_credit[b] += gain
                    col_count[b] += 1
                    col_group[b][gi] += gain
            run_credit = 0
            run_count = 0
            run_group = [0] * g
            # Suffix sums: row i aggregates agents from level i upward.
            for i in range(m - 1, -1, -1):
                run_credit += col_credit[i]
                run_count += col_count[i]
                for gi in range(g):
                    run_group[gi] += col_group[i][gi]
                self._credit[i][j] = run_credit
                self._count[i][j] = run_count
                self._group_credit[i][j] = run_group.copy()

    def _build_numpy(self) -> None:
        m = len(self.levels)
        g = self.instance.num_groups
        pos, reach, grp, bucket = self._agent_columns()
        tps = np.asarray(self._scaled_levels, dtype=np.int64)
        p = np.asarray(pos, dtype=np.int64)
        r = np.asarray(reach, dtype=np.int64)
        b = np.asarray(bucket, dtype=np.intp)
        gi = np.asarray(grp, dtype=np.intp)
        mask = (p[:, None] < tps[None, :]) & (tps[None, :] <= r[:, None])
        gains = np.where(mask, tps[None, :] - p[:, None], 0)
        cols = np.broadcast_to(np.arange(m, dtype=np.intp), gains.shape)
        credit = np.zeros((m, m), dtype=np.int64)
        count = np.zeros((m, m), dtype=np.int64)
        np.add.at(credit, (b[:, None], cols), gains)
        np.add.at(count, (b[:, None], cols), mask.astype(np.int64))
        group_credit = np.zeros((g, m, m), dtype=np.int64)
        rows = np.broadcast_to(b[:, None], gains.shape)
        np.add.at(group_credit, (np.broadcast_to(gi[:, None], gains.shape), rows, cols), gains)
        # Suffix-sum down the rows so entry [i, j] covers agents at or above level i.
        self._credit = np.cumsum(credit[::-1], axis=0)[::-1]
        self._count = np.cumsum(count[::-1], axis=0)[::-1]
        self._group_credit = np.cumsum(group_credit[:, ::-1, :], axis=1)[:, ::-1, :]

    # -- access ------------------------------------------------------------

    @property
    def grid_size(self) -> int:
        return len(self.levels)

    def credit_matrix(self):
        """The full scaled credit table in the backend's native representation."""
        return self._credit

    def credit_scaled(self, i: int, j: int) -> int:
        if self.engine == "numpy":
            return int(self._credit[i, j])
        return self._credit[i][j]

    def credit(self, i: int, j: int) -> Fraction:
        return Fraction(self.credit_scaled(i, j), self.scale)

    def reach_count(self, i: int, j: int) -> int:
        if self.engine == "numpy":
            return int(self._count[i, j])
        return self._count[i][j]

    def group_credit_scaled(self, i: int, j: int) -> tuple[int, ...]:
        if self.engine == "numpy":
            return tuple(int(v) for v in self._group_credit[:, i, j])
        return tuple(self._group_credit[i][j])

    def group_credit(self, i: int, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.group_credit_scaled(i, j))

    def to_fraction(self, scaled: int) -> Fraction:
        return Fraction(int(scaled), self.scale)

    def served_targets(self, chain: Sequence[int]) -> TargetSet:
        """Levels of a DP index chain read up from level 0, dropping the
        targets that no agent moves to."""
        return TargetSet(tuple(
            self.levels[j]
            for prev, j in zip((0, *chain), chain)
            if self.credit_scaled(prev, j) > 0
        ))
