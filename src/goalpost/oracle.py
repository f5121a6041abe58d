"""Brute-force ground truth on small instances.

Everything here enumerates subsets of the potential-target grid outright and
evaluates them with the behavior rule, so the results are correct by
definition.  The enumeration size is checked up front against a hard cap
(default 2e6 subsets, overridable via the GOALPOST_MAX_SUBSETS environment
variable) and refused loudly rather than silently truncated: a lying oracle
is worse than none.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Iterator, Optional, Sequence

from .errors import ParameterOutOfRange, SearchSpaceTooLarge
from .model import (
    EMPTY_TARGETS,
    ImprovementReport,
    Instance,
    TargetSet,
    improvement_report,
    potential_targets,
    validate_instance,
)
from .pareto import FrontierPoint, ParetoFrontier, prune_dominated
from .welfare import DpSolution

DEFAULT_MAX_SUBSETS = 2_000_000
MAX_SUBSETS_ENV = "GOALPOST_MAX_SUBSETS"


def subset_cap(override: Optional[int] = None) -> int:
    """The enumeration cap: ``override``, else the environment, else 2e6."""
    text = str(override) if override is not None else os.environ.get(MAX_SUBSETS_ENV)
    if not text:
        return DEFAULT_MAX_SUBSETS
    if not text.isdecimal():
        raise ParameterOutOfRange(
            f"the subset cap ({MAX_SUBSETS_ENV}) must be a non-negative integer, "
            f"got {text!r}"
        )
    return int(text)


def capped_subsets(
    grid: Sequence[Fraction],
    k: int,
    max_subsets: Optional[int] = None,
    min_size: int = 0,
) -> Iterator[TargetSet]:
    """All subsets of ``grid`` of size min_size..k, smallest first; refuses
    before yielding anything when there are more than the cap."""
    sizes = range(min_size, min(k, len(grid)) + 1)
    total = sum(comb(len(grid), size) for size in sizes)
    cap = subset_cap(max_subsets)
    if total > cap:
        raise SearchSpaceTooLarge(
            f"{total} candidate subsets exceed the cap of {cap}"
        )
    for size in sizes:
        for subset in combinations(grid, size):
            yield TargetSet(subset)


def iter_candidate_sets(
    instance: Instance, k: int, max_subsets: Optional[int] = None
) -> Iterator[TargetSet]:
    """All subsets of the potential-target grid of size 0..k, smallest first."""
    validate_instance(instance)
    return capped_subsets(potential_targets(instance).levels, k, max_subsets)


def _candidate_reports(
    instance: Instance, k: int, max_subsets: Optional[int]
) -> Iterator[tuple[TargetSet, ImprovementReport]]:
    for targets in iter_candidate_sets(instance, k, max_subsets):
        yield targets, improvement_report(instance, targets)


def _best(
    instance: Instance,
    k: int,
    max_subsets: Optional[int],
    score: Callable[[ImprovementReport], Fraction],
) -> tuple[Fraction, TargetSet]:
    """Highest score and the first set reaching it; 0 and the empty set when
    no set scores above 0."""
    best_value = Fraction(0)
    best_targets = EMPTY_TARGETS
    for targets, report in _candidate_reports(instance, k, max_subsets):
        value = score(report)
        if value > best_value:
            best_value = value
            best_targets = targets
    return best_value, best_targets


def brute_force_optimum(
    instance: Instance, k: int, max_subsets: Optional[int] = None
) -> DpSolution:
    """Exhaustive maximum total improvement over target sets of size <= k."""
    return DpSolution(*_best(instance, k, max_subsets, lambda r: r.total))


def brute_force_pareto(
    instance: Instance, k: int, max_subsets: Optional[int] = None
) -> ParetoFrontier:
    """Exhaustive non-dominated group-welfare tuples, each with a witness set."""
    achieved: dict[tuple[Fraction, ...], TargetSet] = {}
    for targets, report in _candidate_reports(instance, k, max_subsets):
        achieved.setdefault(report.group_totals, targets)
    points = prune_dominated(achieved)
    return ParetoFrontier(
        tuple(FrontierPoint(w, t) for w, t in points), instance.num_groups
    )


def max_min_witness(
    instance: Instance, k: int, max_subsets: Optional[int] = None
) -> tuple[Fraction, TargetSet]:
    """Exhaustive maximum over target sets of the minimum group welfare,
    with the first set attaining it."""
    return _best(instance, k, max_subsets, lambda r: min(r.group_totals))


def brute_force_max_min(
    instance: Instance, k: int, max_subsets: Optional[int] = None
) -> Fraction:
    """Exhaustive maximum over target sets of the minimum group welfare."""
    return max_min_witness(instance, k, max_subsets)[0]
