"""Exact Pareto frontier of per-group welfare, and max-min extraction.

Same left-to-right recursion as the single-objective solver, except each
state holds the set of all non-dominated per-group welfare tuples achievable
for agents at or above that grid level, each paired with one witness chain of
targets.  Dominated tuples are discarded at every state, not just at the
root: tuples compose additively along transitions, so dominance is preserved
and the per-state sets stay within their pseudo-polynomial bound.

The recursion, :func:`frontier_dp`, works on integer tuples from any per-cell
gain; the exact frontier feeds it scaled group credits, and the max-min
approximation scheme feeds it credits quantized to whole rounding steps.  It
reads gains only in the credit table's band and row 0: past the band a
target's gain does not depend on the state's level, so the candidates from
there form one pruned suffix union, built right to left once per budget and
shared by every state.

The exact DP requires integral positions and capacities; rational instances
should be rescaled by the caller or routed to the max-min approximation
scheme instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .errors import NonIntegralInstance
from .model import Instance, TargetSet, validate_instance
from .tables import ContributionTable

WelfareTuple = tuple[Fraction, ...]


@dataclass(frozen=True)
class FrontierPoint:
    welfare: WelfareTuple
    targets: TargetSet

    @property
    def min_welfare(self) -> Fraction:
        return min(self.welfare)


@dataclass(frozen=True)
class ParetoFrontier:
    """Non-dominated welfare tuples, sorted lexicographically."""

    points: tuple[FrontierPoint, ...]
    num_groups: int

    def welfare_set(self) -> frozenset[WelfareTuple]:
        return frozenset(p.welfare for p in self.points)


def _dominates(a: tuple, b: tuple) -> bool:
    """True when a is componentwise >= b and differs somewhere."""
    return a != b and all(x >= y for x, y in zip(a, b))


def prune_dominated(candidates: Mapping[tuple, object]) -> list[tuple[tuple, object]]:
    """Keep the non-dominated keys (with payloads), sorted lexicographically.

    Scanning in descending lexicographic order means any dominator of a tuple
    is seen before the tuple itself, so one pass against the kept list works.
    """
    kept: list[tuple[tuple, object]] = []
    for key in sorted(candidates, reverse=True):
        if not any(_dominates(prev, key) for prev, _ in kept):
            kept.append((key, candidates[key]))
    kept.reverse()
    return kept


def _require_integral(instance: Instance) -> None:
    if not instance.is_integral:
        raise NonIntegralInstance(
            "the exact frontier DP needs integer positions and capacities; "
            "rescale the instance or use the max-min approximation scheme"
        )


def _extend(
    merged: dict[tuple[int, ...], tuple[int, ...]],
    j: int,
    added: tuple[int, ...],
    state: Mapping[tuple[int, ...], tuple[int, ...]],
) -> None:
    """Add ``state``'s tuples shifted by ``added``, with ``j`` prepended to
    their chains; a tuple already in ``merged`` keeps its witness."""
    for welfare, chain in state.items():
        candidate = tuple(w + d for w, d in zip(welfare, added))
        if candidate not in merged:
            merged[candidate] = (j,) + chain


def frontier_dp(
    table: ContributionTable, k: int, gain: Callable[[int, int], tuple[int, ...]]
) -> tuple[dict[tuple[int, ...], tuple[int, ...]], int]:
    """The frontier recursion over integer per-group tuples.

    ``gain(i, j)`` is the tuple a target at level ``j`` adds when it is the
    lowest one at or above level ``i``; it is read once per cell, and only in
    the table's band and row 0.  Returns the root state, non-dominated tuples
    mapped to their witness index chains in lexicographic order, and the size
    of the largest pruned state.

    Past the band, ``gain(i, j) = gain(0, j)``, so every state shares one
    pruned suffix union of ``prev[j] + gain(0, j)``, built right to left; in
    it and in each state, a tuple keeps the witness of its lowest ``j``.
    """
    m, w = table.grid_size, table.width
    near = [[gain(i, j) for j in range(i + 1, min(i + w + 1, m))] for i in range(m - 1)]
    far = {j: gain(0, j) for j in range(w + 1, m)}
    base = {(0,) * table.instance.num_groups: ()}
    # An empty grid still has the empty chain at its root.
    prev = [base] * max(m, 1)
    peak = 0
    # No chain holds more than m - 1 targets: every later layer repeats.
    for _ in range(min(k, max(m - 1, 0))):
        # suffix[s]: the pruned union over j >= s, for s past row 0's band.
        suffix: list[dict[tuple[int, ...], tuple[int, ...]]] = [{}] * (m + 1)
        for s in range(m - 1, w, -1):
            merged: dict[tuple[int, ...], tuple[int, ...]] = {}
            _extend(merged, s, far[s], prev[s])
            for welfare, chain in suffix[s + 1].items():
                merged.setdefault(welfare, chain)
            suffix[s] = dict(prune_dominated(merged))
        cur: list[dict[tuple[int, ...], tuple[int, ...]]] = [base] * len(prev)
        for i in range(m - 1):
            merged = {}
            for j, added in enumerate(near[i], i + 1):
                _extend(merged, j, added, prev[j])
            for welfare, chain in suffix[min(i + w + 1, m)].items():
                merged.setdefault(welfare, chain)
            cur[i] = dict(prune_dominated(merged))
            peak = max(peak, len(cur[i]))
        prev = cur
    return prev[0], peak


def pareto_frontier(
    instance: Instance, k: int, *, table: Optional[ContributionTable] = None
) -> ParetoFrontier:
    """All non-dominated per-group welfare tuples over target sets of size <= k,
    each with one witnessing TargetSet (first found in scan order)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    validate_instance(instance)
    _require_integral(instance)
    if table is None:
        table = ContributionTable(instance)
    root, _ = frontier_dp(table, k, table.group_credit_scaled)
    points = tuple(
        FrontierPoint(
            tuple(table.to_fraction(w) for w in welfare),
            table.served_targets(chain),
        )
        for welfare, chain in root.items()
    )
    return ParetoFrontier(points, instance.num_groups)


def max_min_solution(
    instance: Instance, k: int, *, table: Optional[ContributionTable] = None
) -> tuple[Fraction, FrontierPoint]:
    """The frontier point maximizing the worst group's welfare.

    Ties resolve to the lexicographically smallest welfare tuple.
    """
    frontier = pareto_frontier(instance, k, table=table)
    best = max(frontier.points, key=lambda point: point.min_welfare)
    return best.min_welfare, best
