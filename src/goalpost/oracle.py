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
The kernel applies the behavior rule itself rather than reading the credit
table, because the oracle is the ground truth the table is tested against.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import chain, combinations, islice
from math import comb
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ParameterOutOfRange, SearchSpaceTooLarge
from .model import (
    Instance,
    IntegerGrid,
    TargetSet,
    batch_group_totals,
    integer_grid,
    validate_instance,
)
from .pareto import ParetoFrontier, _frontier, prune_dominated
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


def brute_force_pareto(instance: Instance, k: int) -> ParetoFrontier:
    """Exhaustive non-dominated group-welfare tuples, each with a witness set."""
    validate_instance(instance)
    grid = integer_grid(instance)
    achieved: dict[tuple[int, ...], list[int]] = {}
    for sets, totals in evaluated_subsets(instance, grid, k):
        for row, welfare in enumerate(map(tuple, totals.tolist())):
            if welfare not in achieved:
                # A copy, so that no chunk outlives its turn.
                achieved[welfare] = sets[row].tolist()
    pairs = ((welfare, _target_set(grid, row)) for welfare, row in prune_dominated(achieved))
    return _frontier(pairs, grid.scale, instance.num_groups)


def max_min_witness(instance: Instance, k: int) -> tuple[Fraction, TargetSet]:
    """Exhaustive maximum over target sets of the minimum group welfare,
    with the first set attaining it."""
    return _best(instance, k, lambda t: t.min(axis=1))


def brute_force_max_min(instance: Instance, k: int) -> Fraction:
    """Exhaustive maximum over target sets of the minimum group welfare."""
    return max_min_witness(instance, k)[0]
