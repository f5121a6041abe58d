"""Exact Pareto frontier of per-group welfare, and max-min extraction.

Same left-to-right recursion as the single-objective solver, except each
state holds the set of all non-dominated per-group welfare tuples achievable
for agents at or above that grid level, each paired with one witness chain of
targets.  Dominated tuples are discarded at every state, not just at the
root: tuples compose additively along transitions, so dominance is preserved
and the per-state sets stay within their pseudo-polynomial bound.

Pruning is a skyline scan (:func:`prune_dominated`).  A state's candidates
are sorted once in descending lexicographic order; then every earlier tuple
is at least as large in the first group, and a tuple is dominated exactly
when an earlier kept one is weakly larger in every other group.  With two
groups that test is a running maximum, and with three a staircase of the
kept (second, third) pairs searched with ``bisect``, so a state of ``c``
candidates costs O(c log c) instead of O(c²) tuple comparisons; four or
more groups compare each candidate with the kept tuples.

A tuple does not carry its witness chain.  It stores a back-pointer
``(j, index)``: its lowest target ``j`` and the position of the tuple it
extends in state ``j`` of the layer below.  Only the pointers of each layer
are kept, and the root's chains are walked once at the end.

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

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import inf
from operator import add, ge, itemgetter
from typing import Callable, Mapping, Optional

from .errors import NonIntegralInstance, refuses_exhaustion
from .errors import _physical_memory, check_memory
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


def _skyline(ranked: list[tuple[tuple, object]]) -> list[tuple[tuple, object]]:
    """The non-dominated ``(key, payload)`` pairs of ``ranked``, in its order.

    ``ranked`` lists its keys in descending lexicographic order, so every
    earlier key is at least as large in the first coordinate, and a key is
    dominated (or repeats a kept key) exactly when some kept key is weakly
    larger on all the remaining coordinates.  Of equal keys the first is kept.
    """
    if not ranked:
        return []
    g = len(ranked[0][0])
    if g <= 1:
        return ranked[:1]
    kept = []
    if g == 2:
        # Running maximum of the second coordinate.
        best = -inf
        for pair in ranked:
            y = pair[0][1]
            if y > best:
                best = y
                kept.append(pair)
    elif g == 3:
        # Staircase of the kept (b, c) pairs that no other kept pair covers:
        # b ascending and c descending, so ``lows`` (-c) ascends too.  It
        # ends in an infinite b that covers nothing, so a lookup never runs off.
        bs: list = [inf]
        lows: list = [inf]
        for pair in ranked:
            _, b, c = pair[0]
            low = -c
            # The first kept b' >= b has the largest c' among them.
            at = bisect_left(bs, b)
            if lows[at] <= low:
                continue
            # Replace the steps (b', c') <= (b, c), which sit just below ``at``.
            first = bisect_left(lows, low, 0, at)
            bs[first:at] = (b,)
            lows[first:at] = (low,)
            kept.append(pair)
    else:
        # Whole keys: a kept key already covers the first coordinate.
        for pair in ranked:
            if not any(all(map(ge, prev, pair[0])) for prev, _ in kept):
                kept.append(pair)
    return kept


def _pruned(candidates: list[tuple[tuple, object]]) -> list[tuple[tuple, object]]:
    """The non-dominated pairs in ascending lexicographic order; of equal
    keys the first listed keeps its payload (the sort is stable)."""
    kept = _skyline(sorted(candidates, key=itemgetter(0), reverse=True))
    kept.reverse()
    return kept


def prune_dominated(candidates: Mapping[tuple, object]) -> list[tuple[tuple, object]]:
    """Keep the non-dominated keys (with payloads), sorted lexicographically.

    A skyline prune: the keys are scanned in descending lexicographic order,
    so a key is dominated exactly when some key kept before it is weakly
    larger on the coordinates after the first.  For two coordinates that is
    a running maximum, for three a bisected staircase of the kept pairs, and
    for more a test against each kept key.
    """
    return _pruned(list(candidates.items()))


def _require_integral(instance: Instance) -> None:
    if not instance.is_integral:
        raise NonIntegralInstance(
            "the exact frontier DP needs integer positions and capacities; "
            "rescale the instance or use the max-min approximation scheme"
        )


# A witness back-pointer: (j, index of the tuple in state j of the layer
# below), or None for the empty chain.
Link = Optional[tuple[int, int]]
State = list[tuple[tuple[int, ...], Link]]


@refuses_exhaustion("the frontier DP")
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
    Each tuple stores its witness as a back-pointer into the layer below;
    the chains are walked once, at the root.

    Raises ``SearchSpaceTooLarge`` before the tuples held (8 bytes a group)
    would exceed physical memory, or when an allocation fails anyway (under
    an address-space limit below physical memory).
    """
    m, w, g = table.grid_size, table.width, table.instance.num_groups
    have = _physical_memory()

    def hold(tuples: int) -> None:
        # A tuple of g ints holds at least g 8-byte slots.
        check_memory(8 * g * tuples, "the frontier DP's welfare tuples", have)

    # The gains, the base tuple, then each layer's states: a running count.
    gains = m * (w + 1) + 1
    hold(gains)
    near = [[gain(i, j) for j in range(i + 1, min(i + w + 1, m))] for i in range(m - 1)]
    far = {j: gain(0, j) for j in range(w + 1, m)}
    base: State = [((0,) * g, None)]
    # An empty grid still has the empty chain at its root.
    prev = [base] * max(m, 1)
    # layers[t][j]: the back-pointers stored in state j of layer t.
    layers: list[list[list[Link]]] = []
    peak = 0
    # No chain holds more than m - 1 targets: every later layer repeats.
    for _ in range(min(k, max(m - 1, 0))):
        keys = [[key for key, _ in state] for state in prev]
        sizes = [len(state) for state in prev]
        held = gains + sum(sizes)
        layers.append([[link for _, link in state] for state in prev])
        # What a candidate drawn from state j points back to.
        pointers = [
            list(zip(repeat(j), range(len(state)))) for j, state in enumerate(prev)
        ]

        def shifted(j: int, added: tuple[int, ...]) -> State:
            moved = [tuple(map(add, key, added)) for key in keys[j]]
            return list(zip(moved, pointers[j]))

        # suffix[s]: the pruned union over j >= s, for s past row 0's band.
        suffix: list[State] = [[]] * (m + 1)
        for s in range(m - 1, w, -1):
            held += sizes[s]
            hold(held)
            suffix[s] = _pruned(shifted(s, far[s]) + suffix[s + 1])
        cur = [base] * len(prev)
        for i in range(m - 1):
            # The candidates' new tuples are counted before they are made.
            hold(held + sum(sizes[i + 1 : i + w + 1]))
            candidates = []
            for j, added in enumerate(near[i], i + 1):
                candidates += shifted(j, added)
            cur[i] = _pruned(candidates + suffix[min(i + w + 1, m)])
            held += len(cur[i])
            peak = max(peak, len(cur[i]))
        prev = cur

    def chain(link: Link) -> tuple[int, ...]:
        out = []
        for links in reversed(layers):
            if link is None:
                break
            j, index = link
            out.append(j)
            link = links[j][index]
        return tuple(out)

    return {key: chain(link) for key, link in prev[0]}, peak


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
