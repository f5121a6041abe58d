"""Brute-force ground truth on small instances.

Everything here enumerates subsets of the potential-target grid outright and
evaluates them with the behavior rule, so the results are correct by
definition.  The enumeration size is checked up front against a hard cap
(default 2e6 subsets; the GOALPOST_MAX_SUBSETS environment variable, the one
cap of every enumeration, sets it) and refused loudly rather than silently
truncated: a lying oracle is worse than none.

Subsets are enumerated as grid-index arrays, smallest size first and
lexicographic within a size, and evaluated in fixed-size chunks by
:func:`goalpost.model.batch_group_totals` on the instance's integer grid:
int64 when every total fits with headroom, exact ``object`` integers
otherwise.  Only the winning sets become ``Fraction`` values and
``TargetSet`` objects, and the chunks keep memory flat in the subset count.
The Pareto objective is the exception: it keeps one welfare tuple for every
distinct tuple reached, so it counts those (at most one a subset) against
physical memory before evaluating any set, and forms and counts its points
with the exact frontier's own builder (``pareto._frontier``).
The kernel applies the behavior rule itself rather than reading the credit
table, because the oracle is the ground truth the table is tested against.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, islice
from math import comb
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ParameterOutOfRange, SearchSpaceTooLarge, _physical_memory, check_memory
from .model import (
    Instance,
    IntegerGrid,
    TargetSet,
    batch_group_totals,
    integer_grid,
    validate_instance,
)
from .pareto import _INT, _SLOT, ParetoFrontier, _frontier, _int_bytes, prune_dominated
from .welfare import DpSolution

DEFAULT_MAX_SUBSETS = 2_000_000
MAX_SUBSETS_ENV = "GOALPOST_MAX_SUBSETS"


def subset_cap() -> int:
    """The enumeration cap: the environment's, else 2e6."""
    text = os.environ.get(MAX_SUBSETS_ENV)
    if not text:
        return DEFAULT_MAX_SUBSETS
    if not text.isdecimal():
        raise ParameterOutOfRange(
            f"the subset cap ({MAX_SUBSETS_ENV}) must be a non-negative integer, "
            f"got {text!r}"
        )
    return int(text)


# Subsets per chunk times the larger of agents and groups: the kernel's
# (rows, agents) and (rows, groups) int64 arrays stay at 64 KB, in cache.
_CHUNK_CELLS = 1 << 13


def subset_count(m: int, k: int, min_size: int) -> int:
    """How many subsets of ``range(m)`` have size min_size..k; refuses when
    there are more than the cap."""
    total = sum(comb(m, size) for size in range(min_size, min(k, m) + 1))
    cap = subset_cap()
    if total > cap:
        raise SearchSpaceTooLarge(
            f"{total} candidate subsets exceed the cap of {cap}"
        )
    return total


def _index_chunks(m: int, k: int, rows: int, min_size: int) -> Iterator[np.ndarray]:
    """Every subset of ``range(m)`` of size min_size..k, smallest first and
    lexicographic within a size, as ``(rows, size)`` index arrays (the last
    chunk of a size may be shorter).  Refuses before yielding anything when
    there are more subsets than the cap."""
    subset_count(m, k, min_size)
    for size in range(min_size, min(k, m) + 1):
        subsets = combinations(range(m), size)
        while batch := list(islice(subsets, rows)):
            flat = np.fromiter(chain.from_iterable(batch), np.intp, len(batch) * size)
            yield flat.reshape(len(batch), size)


def evaluated_subsets(
    instance: Instance, grid: IntegerGrid, k: int, min_size: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Chunks of grid-index subsets of size min_size..k, in enumeration
    order, each with its ``(rows, g)`` scaled group totals; refuses past the
    cap before evaluating anything."""
    rows = max(1, _CHUNK_CELLS // max(instance.size, instance.num_groups))
    for sets in _index_chunks(len(grid.levels), k, rows, min_size):
        yield sets, batch_group_totals(instance, grid, sets)


def iter_candidate_sets(instance: Instance, k: int) -> Iterator[TargetSet]:
    """All subsets of the potential-target grid of size 0..k, smallest first."""
    validate_instance(instance)
    grid = integer_grid(instance)
    for sets in _index_chunks(len(grid.levels), k, _CHUNK_CELLS, 0):
        for row in sets.tolist():
            yield _target_set(grid, row)


def _target_set(grid: IntegerGrid, row: Sequence[int]) -> TargetSet:
    return TargetSet(tuple(Fraction(grid.levels[j], grid.scale) for j in row))


def _best(
    instance: Instance, k: int, score: Callable[[np.ndarray], np.ndarray]
) -> tuple[Fraction, TargetSet]:
    """Highest score of the scaled group totals and the first set reaching
    it; 0 and the empty set when no set scores above 0."""
    validate_instance(instance)
    grid = integer_grid(instance)
    best, witness = 0, ()
    for sets, totals in evaluated_subsets(instance, grid, k):
        scores = score(totals)
        row = int(np.argmax(scores))  # the first maximum of the chunk
        if scores[row] > best:
            best, witness = int(scores[row]), sets[row].tolist()
    return Fraction(best, grid.scale), _target_set(grid, witness)


def brute_force_optimum(instance: Instance, k: int) -> DpSolution:
    """Exhaustive maximum total improvement over target sets of size <= k."""
    return DpSolution(*_best(instance, k, lambda t: t.sum(axis=1)))


# Bytes a collected welfare tuple holds besides its slots, ints and key
# digits: its header (40), its dict entry (64), its witness list's header
# (56), its packed key's header (24) and the pair and five slots that
# ``prune_dominated`` sorts it by (96), 280 in all, rounded up for the dict's
# spare room.  And a bytes object's header, besides its data.
_COLLECTED, _BYTES = 320, 33


def brute_force_pareto(instance: Instance, k: int) -> ParetoFrontier:
    """Exhaustive non-dominated group-welfare tuples, each with a witness set
    (the first set in enumeration order that reaches it).

    Refuses past the subset cap first.  Then, before any set is evaluated,
    it refuses (``SearchSpaceTooLarge``) when what it may collect would
    exceed physical memory: at most one distinct tuple a subset, each with a
    slot a group, an int a group that holds an agent (the other coordinates
    are the shared 0), its witness list and the packed key that
    ``prune_dominated`` forms from it; and, once, the bytes objects, one a
    group, that packing a key goes through.  The points are formed, and
    counted, by the exact frontier's own builder
    (:func:`goalpost.pareto._frontier`)."""
    validate_instance(instance)
    grid = integer_grid(instance)
    g, size = instance.num_groups, min(k, len(grid.levels))
    # A key field is whole bytes, and no group's total passes the grid's bound.
    held, field = len({a.group for a in instance.agents}), grid.bound.bit_length() // 8 + 1
    each = _COLLECTED + g * _SLOT + held * _INT + size * (_SLOT + _INT) + _int_bytes(8 * field * g)
    need = subset_count(len(grid.levels), k, 0) * each + g * (_BYTES + field + _SLOT)
    check_memory(need, "the brute-force frontier's tuples", _physical_memory())
    achieved: dict[tuple[int, ...], list[int]] = {}
    for sets, totals in evaluated_subsets(instance, grid, k):
        for row, welfare in enumerate(map(tuple, totals.tolist())):
            if welfare not in achieved:
                # A copy, so that no chunk outlives its turn.
                achieved[welfare] = sets[row].tolist()
    # Only the kept tuples, not every one collected, live while the points form.
    items = prune_dominated(achieved)
    del achieved
    return _frontier(instance, items, partial(_target_set, grid))


def max_min_witness(instance: Instance, k: int) -> tuple[Fraction, TargetSet]:
    """Exhaustive maximum over target sets of the minimum group welfare,
    with the first set attaining it."""
    return _best(instance, k, lambda t: t.min(axis=1))


def brute_force_max_min(instance: Instance, k: int) -> Fraction:
    """Exhaustive maximum over target sets of the minimum group welfare."""
    return max_min_witness(instance, k)[0]
