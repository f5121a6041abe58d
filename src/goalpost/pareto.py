"""Exact Pareto frontier of per-group welfare, and max-min extraction.

Same left-to-right recursion as the single-objective solver, except each
state holds the set of all non-dominated per-group welfare tuples achievable
for agents at or above that grid level, each paired with one witness chain of
targets.  Dominated tuples are discarded at every state, not just at the
root: tuples compose additively along transitions, so dominance is preserved
and the per-state sets stay within their pseudo-polynomial bound.

Each welfare tuple is held as one int (:class:`_Layout`): ``g`` fields of
``b`` bits, group 0 most significant, each field below its top bit, the
guard.  Then int order is lexicographic order, adding a gain is one int
addition, and "``p >= q`` in every group" is one subtraction: the guard
bits of ``(p | guards) - q`` are all set exactly then.  ``b`` is a whole
number of bytes, so a key of many fields packs and unpacks through
``int.to_bytes`` in O(g).  The states are small (tens of candidates), so
they stay Python lists: numpy's per-call cost would lose at that size.

Pruning is a skyline scan (:func:`prune_dominated`).  A state's candidates
are sorted once in descending order; then every earlier tuple is at least
as large in the first group, and a tuple is dominated exactly when an
earlier kept one is weakly larger in every other group.  With one or two
groups that test is a running maximum, and with three a staircase of the kept
(second, third) pairs searched with ``bisect``, so a state of ``c``
candidates costs O(c log c) instead of O(c²) tuple comparisons; four or
more groups take the guard-bit test against each kept tuple.

A tuple does not carry its witness chain.  It stores a back-pointer
``(j, parent)``: its lowest target ``j`` and the back-pointer of the tuple
it extends in state ``j`` of the layer below.  The pointers form linked
chains that the states share, so a pointer lives only while some state
reaches it, and the root's chains are followed once at the end.

The recursion, :func:`frontier_dp`, works on integer tuples from any per-cell
gain; the exact frontier feeds it scaled group credits, and the max-min
approximation scheme feeds it credits quantized to whole rounding steps,
both read by :func:`band_gains` from one list of the group band.  It reads
gains only in the credit table's band and row 0: past the band a
target's gain does not depend on the state's level, so the candidates from
there form one pruned suffix union, built right to left once per budget and
shared by every state.  Every state, the root and each suffix union
included, is formed one way: the shifted tuples of a run of targets in
ascending order, then a tail of pruned candidates, pruned together.  Only
the root of the last layer is formed, from every ``j`` of the layer below
and no tail; that layer builds no suffix union and no other state.

The exact DP requires integral positions and capacities; rational instances
should be rescaled by the caller or routed to the max-min approximation
scheme instead.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import inf
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import NonIntegralInstance, refuses_exhaustion
from .errors import _physical_memory, check_memory
from .model import Instance, TargetSet, integer_grid, validate_instance
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


class _Layout:
    """Welfare tuples of ``g`` non-negative coordinates packed in one int.

    Coordinate ``c`` is field ``g - 1 - c`` of ``b`` bits, so group 0 is the
    most significant.  Every coordinate stays below ``2^(b-1)``: the top bit
    of each field, its guard, is always clear.  So no sum carries into the
    next field, int order is lexicographic order, and the difference
    ``(p | guards) - q`` borrows inside no field: its guard bits are all set
    exactly when ``p >= q`` in every coordinate.
    """

    __slots__ = ("g", "b", "mask", "guards")

    def __init__(self, g: int, top: int):
        # The narrowest whole number of bytes with ``top`` below its guard.
        self.g, self.b = g, 8 * (top.bit_length() // 8 + 1)
        self.mask = (1 << self.b) - 1
        field = 1 << self.b - 1
        self.guards = int.from_bytes(field.to_bytes(self.b // 8, "big") * g, "big")

    def pack(self, tuples: Sequence[Sequence[int]]) -> list[int]:
        """The key of each tuple: shifts for up to three groups, bytes for
        more."""
        b, g = self.b, self.g
        if g == 1:
            return [a for a, in tuples]
        if g == 2:
            return [(a << b) + c for a, c in tuples]
        if g == 3:
            return [(((a << b) + c) << b) + d for a, c, d in tuples]
        # Not one shift of a growing int per field: O(g) a key.
        n = b // 8
        return [
            int.from_bytes(b"".join(map(int.to_bytes, values, repeat(n), repeat("big"))), "big")
            for values in tuples
        ]

    def unpack(self, key: int) -> tuple[int, ...]:
        n = self.b // 8
        data = key.to_bytes(self.g * n, "big")
        return tuple(int.from_bytes(data[o : o + n], "big") for o in range(0, len(data), n))


def _skyline(ranked: list[tuple[int, object]], layout: _Layout) -> list[tuple[int, object]]:
    """The non-dominated ``(key, payload)`` pairs of ``ranked``, in its order.

    ``ranked`` lists its keys in descending order, so every earlier key is at
    least as large in the first coordinate, and a key is dominated (or
    repeats a kept key) exactly when some kept key is weakly larger on all
    the remaining coordinates.  Of equal keys the first is kept.
    """
    g, b, mask = layout.g, layout.b, layout.mask
    kept = []
    if g <= 2:
        # Running maximum of the last coordinate (of the whole key, at g = 1).
        best = -1
        for pair in ranked:
            y = pair[0] & mask
            if y > best:
                best = y
                kept.append(pair)
    elif g == 3:
        # Staircase of the kept (y, z) pairs that no other kept pair covers:
        # y ascending and z descending, so ``lows`` (-z) ascends too.  It
        # ends in an infinite y that covers nothing, so a lookup never runs off.
        ys: list = [inf]
        lows: list = [inf]
        for pair in ranked:
            key = pair[0]
            y, low = key >> b & mask, -(key & mask)
            # The first kept y' >= y has the largest z' among them.
            at = bisect_left(ys, y)
            if lows[at] <= low:
                continue
            # Replace the steps (y', z') <= (y, z), which sit just below ``at``.
            first = bisect_left(lows, low, 0, at)
            ys[first:at] = (y,)
            lows[first:at] = (low,)
            kept.append(pair)
    else:
        # Whole keys, one guard-bit test per kept key: a kept key already
        # covers the first coordinate.
        guards = layout.guards
        covers: list[int] = []
        for pair in ranked:
            key = pair[0]
            for cover in covers:
                if cover - key & guards == guards:
                    break
            else:
                covers.append(key | guards)
                kept.append(pair)
    return kept


def _pruned(pairs: Iterable[tuple[int, object]], layout: _Layout) -> list[tuple[int, object]]:
    """The non-dominated ``(key, payload)`` pairs, whose keys share
    ``layout``, in ascending order; of equal keys the first listed keeps its
    payload (the sort is stable)."""
    ranked = sorted(pairs, key=itemgetter(0), reverse=True)
    kept = _skyline(ranked, layout)
    kept.reverse()
    return kept


def prune_dominated(candidates: Mapping[tuple, object]) -> list[tuple[tuple, object]]:
    """Keep the non-dominated keys (with payloads), sorted lexicographically.

    The keys are packed (:class:`_Layout`) and pruned by the skyline scan
    of the frontier DP; only the kept keys are unpacked.  The packing takes
    non-negative coordinates, so keys with a negative one are first shifted
    by the least: dominance and order do not change under a common shift.
    """
    if not candidates:
        return []
    tuples = list(candidates)
    low = min(min(chain.from_iterable(tuples)), 0)
    if low:
        tuples = [tuple(v - low for v in values) for values in tuples]
    layout = _Layout(len(tuples[0]), max(chain.from_iterable(tuples)))
    keys = layout.pack(tuples)
    kept = _pruned(zip(keys, candidates.values()), layout)
    return [(tuple(v + low for v in layout.unpack(key)), payload) for key, payload in kept]


def _require_integral(instance: Instance) -> None:
    if not instance.is_integral:
        raise NonIntegralInstance(
            "the exact frontier DP needs integer positions and capacities; "
            "rescale the instance or use the max-min approximation scheme"
        )


# A witness back-pointer: (j, the back-pointer of the tuple it extends in
# state j of the layer below), or None for the empty chain.
Link = Optional[tuple[int, "Link"]]
State = list[tuple[int, Link]]

# Bytes as CPython allocates them: a list slot, an empty tuple (with its
# garbage-collector header), a pair and an int of up to 60 bits.
_SLOT, _TUPLE, _INT = 8, 40, 32
_PAIR = _TUPLE + 2 * _SLOT
# Besides its key: a state's entry is its (key, back-pointer) pair and slot;
# a candidate is that and the slots of the sort; a source is a state's entry
# paired with a new back-pointer (j, parent), and a link is one back-pointer
# of a layer below.  A source and a link each count an int, and a link a
# slot, that they do not hold: an upper bound.
_ENTRY = _PAIR + _SLOT
_CANDIDATE = _PAIR + 4 * _SLOT
_SOURCE = 2 * _PAIR + _INT + _SLOT
_LINK = _PAIR + _INT + _SLOT
# A gain as read: its tuple and slot, and a slot and an int a coordinate.
# A cell of a band reader's lists: an empty list and its slot, and a slot a
# coordinate; its ints are those read, or 0.
_READ, _READ_COORDINATE = _TUPLE + _SLOT, _SLOT + _INT
_LIST = 56 + _SLOT


def _int_bytes(bits: int) -> int:
    """Bytes of an int of ``bits`` bits: a header and 30-bit digits."""
    return 24 + 4 * max(1, -(-bits // 30))


def band_gains(
    table: ContributionTable, convert: Callable[[list[int]], tuple[int, ...]] = tuple
) -> Callable[[int, int], tuple[int, ...]]:
    """``gain(i, j)`` for :func:`frontier_dp`: ``convert`` of the group
    credits ``table.group_credit_scaled(i, j)`` reads, for ``j > i``, taken
    from one ``tolist`` of the group band and one of row 0 rather than one
    numpy index a cell.  The lists are formed on the first read and live as
    long as the reader; ``frontier_dp`` counts them before it reads."""
    w, lists = table.width, []

    def gain(i: int, j: int) -> tuple[int, ...]:
        if not lists:
            lists.extend((table.group_credits.transpose(1, 2, 0).tolist(),
                          table.group_credit0.T.tolist()))
        d = j - i - 1
        return convert(lists[0][i][d] if d < w else lists[1][j])

    return gain


@refuses_exhaustion("the frontier DP")
def frontier_dp(
    table: ContributionTable, k: int, gain: Callable[[int, int], tuple[int, ...]]
) -> tuple[dict[tuple[int, ...], tuple[int, ...]], int]:
    """The frontier recursion over non-negative integer per-group tuples.

    ``gain(i, j)`` is the non-negative tuple a target at level ``j`` adds
    when it is the lowest one at or above level ``i``; it is read once per
    cell, and only in the table's band and row 0.  Returns the root state,
    non-dominated tuples mapped to their witness index chains in
    lexicographic order, and the size of the largest state it forms.

    Each tuple is held as one packed int (:class:`_Layout`) whose fields are
    wide enough for ``top * max(1, min(k, m - 1))``, ``top`` being the
    largest coordinate of any cell read: no chain adds more than that, and
    each packed gain fits.  The gains are
    packed once, after they are read, and only the root's keys are unpacked.

    Every state is formed by one builder: the candidates of targets
    ``j, j + 1, ...`` from the layer below, in ascending ``j``, then a
    tail, pruned once; of equal tuples the lowest ``j`` keeps its witness.
    Past the band, ``gain(i, j) = gain(0, j)``, so every state's tail is one
    pruned suffix union of ``prev[j] + gain(0, j)``, each union formed from
    one ``j`` and the union right of it.  Each tuple stores its witness as
    a back-pointer ``(j, parent)`` to the one it extends in the layer below;
    the chains are followed once, at the root.  Only the root of the last
    layer is formed, from the candidates of every ``j`` and no tail: the
    largest state formed is one of the layers below the last, or the root.

    Raises ``SearchSpaceTooLarge`` before what it holds (the lists a
    :func:`band_gains` reader keeps, counted whatever ``gain`` is; the gains
    as read, then the packed gains, the entries of the states, every
    back-pointer formed so far, a bound on those still held, and the freed
    tuples CPython keeps for reuse) would exceed physical memory, or when an
    allocation fails anyway (under an address-space limit below physical
    memory).
    """
    m, w, g = table.grid_size, table.width, table.instance.num_groups
    depth = min(k, max(m - 1, 0))
    have = _physical_memory()

    def hold(need: int) -> None:
        check_memory(need, "the frontier DP's welfare tuples", have)

    cells = max(m - 1, 0) * w + max(m - w - 1, 0)
    # A band reader's lists hold every band cell and all of row 0, whose
    # first W + 1 levels are not read, for as long as the caller holds it.
    lists = (m * w + m) * (_LIST + g * _SLOT) + (m + 2) * _LIST + (w + 1) * g * _INT
    read = cells * (_READ + g * _READ_COORDINATE)
    hold(lists + read)
    near = [[gain(i, j) for j in range(i + 1, min(i + w + 1, m))] for i in range(m - 1)]
    # far[s - w - 1]: the gain of a target at level s past row 0's band.
    far = [gain(0, j) for j in range(w + 1, m)]
    rows = near + [far]
    top = max((max(map(max, row)) for row in rows if row), default=0)
    # The packed gains fit their fields even when no layer runs.
    layout = _Layout(g, top * max(depth, 1))
    key_bytes = _int_bytes(g * layout.b)
    entry, candidate = key_bytes + _ENTRY, key_bytes + _CANDIDATE
    # From here on ``gains`` is what every count starts from.  CPython keeps
    # up to 2,000 freed tuples of each length up to 20 on a free list, still
    # allocated: of the tuples read, once packed, and of the pairs that the
    # layers form and release.
    gains = lists + cells * (key_bytes + _SLOT) + 2000 * _PAIR
    gains += min(cells, 2000) * (_TUPLE + g * _SLOT) if g <= 20 else 0
    hold(gains + read)
    for row in rows:
        row[:] = layout.pack(row)
    del rows
    base: State = [(0, None)]
    # An empty grid still has the empty chain at its root.
    prev = [base] * max(m, 1)
    # ``stored`` counts every back-pointer of the layers below and a list of
    # each state: a bound on those still reachable, which are fewer (a
    # pointer no state reaches is freed with the states that held it).
    stored = peak = 0

    def state(first: int, added: list[int], tail: State) -> State:
        """The pruned candidates of targets ``first, first + 1, ...``, each
        adding its packed gain in ``added`` to state ``j`` of the layer
        below, then ``tail``; counted before they are made.  They are listed
        in ascending ``j``, so that of equal keys the lowest ``j`` keeps its
        witness."""
        nonlocal held
        hold(held + (sum(sizes[first : first + len(added)]) + len(tail)) * candidate)
        candidates = []
        for j, gain in enumerate(added, first):
            candidates += [(key + gain, link) for key, link in sources[j]] if gain else sources[j]
        candidates += tail
        kept = _pruned(candidates, layout)
        held += len(kept) * entry
        return kept

    # No chain holds more than m - 1 targets: every later layer repeats.
    for layer in range(1, depth + 1):
        sizes = list(map(len, prev))
        stored += sum(sizes) * _LINK + len(sizes) * _LIST
        held = gains + stored + sum(sizes) * (entry + _SOURCE)
        hold(held)
        # Each tuple of state j paired with its back-pointer (j, its link):
        # what a target at level j that adds nothing gives as candidates.
        sources = [[(key, (j, link)) for key, link in entries] for j, entries in enumerate(prev)]
        if layer == depth:
            # Only the root is read: one prune of the candidates of every j.
            prev = [state(1, near[0] + far, [])]
        else:
            # suffix[s]: the pruned union over j >= s, for s past row 0's band.
            suffix: list[State] = [[]] * (m + 1)
            for s in range(m - 1, w, -1):
                suffix[s] = state(s, [far[s - w - 1]], suffix[s + 1])
            prev = [state(i + 1, near[i], suffix[min(i + w + 1, m)]) for i in range(m - 1)]
            prev.append(base)
            del suffix
        peak = max(peak, *map(len, prev))
        del sources

    def chain(link: Link) -> tuple[int, ...]:
        out = []
        while link is not None:
            j, link = link
            out.append(j)
        return tuple(out)

    # The root's keys as tuples, read like the gains, once the layer below
    # is released.
    root = prev[0]
    del prev
    hold(gains + stored + len(root) * (entry + _READ + g * _READ_COORDINATE))
    return {layout.unpack(key): chain(link) for key, link in root}, peak


def pareto_frontier(
    instance: Instance, k: int, *, table: Optional[ContributionTable] = None
) -> ParetoFrontier:
    """All non-dominated per-group welfare tuples over target sets of size <= k,
    each with one witnessing TargetSet (first found in scan order).

    Raises ``SearchSpaceTooLarge`` before forming the points when they and
    the root they are read from would exceed physical memory."""
    if k < 0:
        raise ValueError("k must be non-negative")
    validate_instance(instance)
    _require_integral(instance)
    if table is None:
        table = ContributionTable(instance)
    root, _ = frontier_dp(table, k, band_gains(table))
    check_memory(_points_bytes(table, root), "the frontier's points", _physical_memory())
    pairs = ((welfare, table.served_targets(chain)) for welfare, chain in root.items())
    return _frontier(pairs, table.scale, instance.num_groups)


def _frontier(
    pairs: Iterable[tuple[Sequence[int], TargetSet]], scale: int, num_groups: int
) -> ParetoFrontier:
    """The frontier of ``(welfare tuple scaled by scale, witness)`` pairs, in
    their order."""
    # Zero coordinates (most of them, with many groups) share one Fraction.
    zero = Fraction(0)
    return ParetoFrontier(tuple(
        FrontierPoint(tuple(Fraction(w, scale) if w else zero for w in welfare), targets)
        for welfare, targets in pairs
    ), num_groups)


# A point with its welfare and target tuples and its TargetSet, besides their
# slots; and a Fraction's object with its slot, besides its two ints.
_POINT, _FRACTION = 1024, 48 + _SLOT


def _points_bytes(table: ContributionTable, root: Mapping[tuple, tuple]) -> int:
    """Bytes held while the points are formed: the root's tuples and chains
    (counted as ``frontier_dp`` counts what it reads), and each point with a
    slot a coordinate and a Fraction for each nonzero coordinate and each
    target.  No point has more nonzero coordinates than there are groups
    holding an agent, and no Fraction a larger numerator than the grid's
    bound."""
    instance, grid = table.instance, integer_grid(table.instance)
    g = instance.num_groups
    nonzero = min(g, len({agent.group for agent in instance.agents}))
    fraction = _FRACTION + _int_bytes(grid.bound.bit_length()) + _int_bytes(
        grid.scale.bit_length())
    targets = sum(map(len, root.values()))
    read = 2 * len(root) * _READ + (len(root) * g + targets) * _READ_COORDINATE
    return read + len(root) * (_POINT + g * _SLOT + nonzero * fraction) + targets * fraction


def max_min_solution(instance: Instance, k: int) -> tuple[Fraction, FrontierPoint]:
    """The frontier point maximizing the worst group's welfare.

    Ties resolve to the lexicographically smallest welfare tuple.
    """
    frontier = pareto_frontier(instance, k)
    best = max(frontier.points, key=lambda point: point.min_welfare)
    return best.min_welfare, best
