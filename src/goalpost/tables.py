"""Shared pairwise credit precomputation for the dynamic programs.

All solvers in this package walk the same sorted grid of candidate levels
(:func:`goalpost.model.potential_targets`) and repeatedly need, for a pair of
grid indices ``i < j``, the total move credited to a target at level ``j``
when it is the lowest target at or above level ``i``: the sum of
``level[j] - p`` over agents with ``level[i] <= p < level[j]`` that can reach
``level[j]``.  This table computes those sums once, per group, together with
the matching head counts.

Internally everything is integer: positions and capacities are rescaled by
the least common denominator, so credits are exact.  There is one numpy
build with two dtypes: int64 when every sum is guarded against overflow, and
``object`` (exact Python integers) when values are too large for that.  Both
are exact, deterministic, and read-only once built.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .model import Instance, TargetSet, potential_targets

# Keep headroom: DP candidates add two table entries plus a running value.
_INT64_SAFE = 1 << 60


class ContributionTable:
    """Immutable per-instance credit tables shared by every DP.

    Attributes:
        levels: sorted candidate target levels (exact rationals).
        scale: common denominator used for the integer representation.
        engine: ``"numpy"`` for int64 arrays, ``"python"`` for exact
            object-dtype arrays; ``"auto"`` picks int64 whenever it is safe.
        credits, counts: ``(m, m)`` scaled credit and head count of a target
            at level ``j`` that is the lowest one at or above level ``i``.
        group_credits: ``(g, m, m)`` scaled credit split by group.
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
            engine = "numpy" if int64_ok else "python"
        self.engine = engine
        self._build(np.int64 if engine == "numpy" else object)

    # -- construction ------------------------------------------------------

    def _build(self, dtype) -> None:
        m = len(self.levels)
        agents = self.instance.agents
        tps = np.asarray(self._scaled_levels, dtype=dtype)
        p = np.asarray([int(a.position * self.scale) for a in agents], dtype=dtype)
        r = p + np.asarray([int(a.capacity * self.scale) for a in agents], dtype=dtype)
        gi = np.asarray([a.group for a in agents], dtype=np.intp)
        mask = (p[:, None] < tps[None, :]) & (tps[None, :] <= r[:, None])
        gains = np.where(mask, tps[None, :] - p[:, None], 0)
        # Each agent is counted in the row of its own level (its grid bucket).
        rows = np.broadcast_to(np.searchsorted(tps, p)[:, None], gains.shape)
        cols = np.broadcast_to(np.arange(m, dtype=np.intp), gains.shape)
        count = np.zeros((m, m), dtype=np.int64)
        np.add.at(count, (rows, cols), mask.astype(np.int64))
        group_credit = np.zeros((self.instance.num_groups, m, m), dtype=dtype)
        np.add.at(group_credit, (np.broadcast_to(gi[:, None], gains.shape), rows, cols), gains)
        # Suffix-sum down the rows so entry [i, j] covers agents at or above level i.
        self.counts = np.cumsum(count[::-1], axis=0)[::-1]
        self.group_credits = np.cumsum(group_credit[:, ::-1, :], axis=1)[:, ::-1, :]
        self.credits = self.group_credits.sum(axis=0)
        for table in (self.credits, self.counts, self.group_credits):
            table.flags.writeable = False

    # -- access ------------------------------------------------------------

    @property
    def grid_size(self) -> int:
        return len(self.levels)

    def credit_scaled(self, i: int, j: int) -> int:
        return int(self.credits[i, j])

    def credit(self, i: int, j: int) -> Fraction:
        return Fraction(self.credit_scaled(i, j), self.scale)

    def reach_count(self, i: int, j: int) -> int:
        return int(self.counts[i, j])

    def group_credit_scaled(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(self.group_credits[:, i, j].tolist())

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
