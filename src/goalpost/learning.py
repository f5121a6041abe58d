"""Sample-size formulas and a seeded deviation experiment.

The closed-form bounds say how many positions drawn from an unknown
distribution suffice for the sample-average improvement of every candidate
target set (and, in the grouped variant, every group) to track its true
expectation.  The experiment harness checks them empirically on finite-
support distributions, where expectations are exact rationals and the
supremum over target sets reduces to subsets of the support-induced grid
(between grid points both the empirical and the expected term are constant
in the targets).

Sampling is exact as well: each draw is one uniform integer below the common
denominator of the support probabilities, so seeded runs reproduce bit for
bit.  Trial seeds derive from (master seed, trial index); trials are
independent and may run in any order.

The candidate sets are evaluated once.  Every support point of every group
is one outcome, and the integer batch kernel
(:func:`goalpost.model.batch_group_totals`, through the oracle's subset
enumeration) fills a sets × outcomes matrix of scaled gains: int64 when
every gap numerator below stays under 2**60, exact ``object`` integers
otherwise.  The sets are counted first, and a matrix that cannot fit in
physical memory, together with one block of trials, is refused with
``SearchSpaceTooLarge`` before any set is evaluated, and so is any
allocation of the experiment that fails below physical memory.  A sample
of 2**62 draws or more is refused with ``ParameterOutOfRange``, since no
int64 tally counts it.

Trials run in blocks of ``max(1, DRAW_CHUNK // max(n, sets × outcomes))``,
so a block of several trials holds at most ``DRAW_CHUNK`` draws and as
many sums, and a block of one draws ``DRAW_CHUNK`` values at a time (a
generator's stream does not depend on how its draws are split).  Each
trial keeps its own generator, and a block's draws become one ``(rows,
outcomes)`` tally with one ``np.searchsorted`` and one ``np.bincount`` over
row offsets.  Outcomes are listed group by group, so a group's outcomes are
adjacent columns: a trial weighs each outcome's gains by its tally less its
expected share, with every in-group probability over one common
denominator, and consecutive groups with equally many outcomes form one
batched matrix product over the block, giving the block's (rows, sets,
groups) sums.  No outcomes × groups array and no weighted copy of the gains
is formed.  Each trial's worst group and its verdict are decided by integer
cross-multiplication; the one ``Fraction`` formed is the worst deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import EmptySample, ParameterOutOfRange, rational_detail
from .errors import _physical_memory, check_memory, refuses_exhaustion
from .model import (
    INT64_SAFE,
    Agent,
    Instance,
    RationalLike,
    TargetSet,
    improvement_at,
    integer_grid,
    potential_targets,
    rational,
    rational_str,
)
from .oracle import evaluated_subsets, subset_count


@dataclass(frozen=True)
class PositionDistribution:
    """Finite-support distribution over positions, with one shared capacity."""

    support: tuple[tuple[Fraction, Fraction], ...]  # (position, probability)
    capacity: Fraction

    def __post_init__(self) -> None:
        entries = tuple(
            (rational(p), rational(q)) for p, q in self.support
        )
        object.__setattr__(self, "support", entries)
        object.__setattr__(self, "capacity", rational(self.capacity))
        if not entries:
            raise ParameterOutOfRange("support must be nonempty")
        positions = [p for p, _ in entries]
        if len(set(positions)) != len(positions):
            raise ParameterOutOfRange("support positions must be distinct")
        if any(p < 0 for p in positions):
            raise ParameterOutOfRange("support positions must be non-negative")
        if self.capacity < 0:
            raise ParameterOutOfRange("capacity must be non-negative")
        if any(q <= 0 for _, q in entries):
            raise ParameterOutOfRange("probabilities must be positive")
        if sum(q for _, q in entries) != 1:
            raise ParameterOutOfRange("probabilities must sum to exactly 1")

    def grid(self) -> tuple[Fraction, ...]:
        return _support_grid((self,))


@dataclass(frozen=True)
class GroupMixture:
    """Weighted mixture of per-group position distributions."""

    components: tuple[tuple[Fraction, PositionDistribution], ...]

    def __post_init__(self) -> None:
        entries = tuple((rational(w), d) for w, d in self.components)
        object.__setattr__(self, "components", entries)
        if not entries:
            raise ParameterOutOfRange("mixture must have at least one component")
        if any(w <= 0 for w, _ in entries):
            raise ParameterOutOfRange("mixture weights must be positive")
        if sum(w for w, _ in entries) != 1:
            raise ParameterOutOfRange("mixture weights must sum to exactly 1")

    @property
    def num_groups(self) -> int:
        return len(self.components)

    @property
    def alpha_min(self) -> Fraction:
        return min(w for w, _ in self.components)

    @property
    def delta_max(self) -> Fraction:
        return max(d.capacity for _, d in self.components)

    def grid(self) -> tuple[Fraction, ...]:
        return _support_grid(d for _, d in self.components)


def _support_grid(dists: Iterable[PositionDistribution]) -> tuple[Fraction, ...]:
    """Every support position and reach, as the potential targets of one
    agent per support point."""
    agents = tuple(Agent(p, d.capacity) for d in dists for p, _ in d.support)
    return potential_targets(Instance(agents)).levels


def _bound_args(
    epsilon: RationalLike, delta: RationalLike, k: int, *more: RationalLike
) -> tuple[Fraction, ...]:
    """``epsilon``, ``delta`` and ``more`` as Fractions, once epsilon is
    positive, delta lies in (0, 1) and k is at least 1."""
    eps, dlt, *rest = map(rational, (epsilon, delta, *more))
    if eps <= 0:
        raise ParameterOutOfRange(
            f"epsilon must be positive, got {rational_detail(eps)}")
    if not 0 < dlt < 1:
        raise ParameterOutOfRange(
            f"delta must lie in (0, 1), got {rational_detail(dlt)}")
    if k < 1:
        raise ParameterOutOfRange(f"k must be at least 1, got {k}")
    return (eps, dlt, *rest)


def _sample_count(bound: Callable[[], float]) -> int:
    """``max(1, ceil(bound()))``; a bound that overflows a float is out of range."""
    try:
        return max(1, math.ceil(bound()))
    except OverflowError:
        raise ParameterOutOfRange("the sample bound overflows a float") from None


def required_samples_single(
    epsilon: RationalLike,
    delta: RationalLike,
    k: int,
    delta_max: RationalLike,
) -> int:
    """Samples sufficient for every k-target set's empirical improvement to
    sit within O(epsilon) of its expectation, with probability 1 - delta."""
    eps, dlt, dmax = _bound_args(epsilon, delta, k, delta_max)
    if dmax < 0:
        raise ParameterOutOfRange("delta_max must be non-negative")
    return _sample_count(
        lambda: float(eps**-2 * dmax**2) * (k * math.log(k) + math.log(1 / dlt))
    )


def required_samples_groups(
    epsilon: RationalLike,
    delta: RationalLike,
    k: int,
    delta_max: RationalLike,
    g: int,
    alpha_min: RationalLike,
) -> int:
    """Grouped variant: the guarantee holds per group, for samples drawn from
    the mixture without control over group membership."""
    eps, dlt, dmax, amin = _bound_args(epsilon, delta, k, delta_max, alpha_min)
    if g < 1:
        raise ParameterOutOfRange(f"g must be at least 1, got {g}")
    if not 0 < amin <= 1:
        raise ParameterOutOfRange(
            f"alpha_min must lie in (0, 1], got {rational_detail(amin)}")
    if dmax < 0:
        raise ParameterOutOfRange("delta_max must be non-negative")

    def bound() -> float:
        log_term = math.log(float(2 * g / dlt))
        inner = float(eps**-2 * dmax**2) * (k * math.log(k) + log_term) + 4 * log_term
        return float(2 / amin) * inner

    return _sample_count(bound)


def required_samples(
    dist: Union[PositionDistribution, GroupMixture],
    epsilon: RationalLike,
    delta: RationalLike,
    k: int,
) -> int:
    """Samples sufficient for ``dist``: the grouped bound for a mixture, the
    single-distribution bound otherwise."""
    if isinstance(dist, GroupMixture):
        return required_samples_groups(
            epsilon, delta, k, dist.delta_max, dist.num_groups, dist.alpha_min
        )
    return required_samples_single(epsilon, delta, k, dist.capacity)


def expected_improvement(dist: PositionDistribution, targets: TargetSet) -> Fraction:
    """Exact expectation of the improvement under the behavior rule."""
    return sum(
        (q * improvement_at(p, dist.capacity, targets) for p, q in dist.support),
        Fraction(0),
    )


def empirical_improvement(
    sample: Sequence[Fraction], capacity: Fraction, targets: TargetSet
) -> Fraction:
    """Mean improvement over a drawn sample of positions."""
    if not sample:
        raise EmptySample("cannot average an empty sample")
    total = sum(
        (improvement_at(rational(p), capacity, targets) for p in sample),
        Fraction(0),
    )
    return total / len(sample)


@dataclass(frozen=True)
class DeviationReport:
    seed: int
    n: int
    trials: int
    success_fraction: Fraction
    worst_deviation: Fraction

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "trials": self.trials,
            "success_fraction": rational_str(self.success_fraction),
            "worst_deviation": rational_str(self.worst_deviation),
        }


# Draws held in memory at once by one block of trials: 8 MiB of int64.
DRAW_CHUNK = 2**20


def _tally_draws(
    rngs: Sequence[np.random.Generator], n: int, denom: int, thresholds: Sequence[int]
) -> np.ndarray:
    """Row ``r``: how many of ``n`` uniform draws below ``denom`` from
    ``rngs[r]`` fall on each outcome; outcome ``o`` takes the draws below
    ``thresholds[o]`` and not below the one before.  Each generator draws
    ``DRAW_CHUNK // len(rngs)`` values at a time, so a chunk of the block
    holds at most ``DRAW_CHUNK`` draws."""
    rows, width = len(rngs), len(thresholds)
    # Row r's outcomes are counted in cells r · width onward.
    offsets = np.arange(rows)[:, None] * width
    tallies = np.zeros(rows * width, dtype=np.int64)
    step = max(1, DRAW_CHUNK // rows)
    for start in range(0, n, step):
        size = min(step, n - start)
        draws = np.stack([rng.integers(0, denom, size=size) for rng in rngs])
        cells = np.searchsorted(thresholds, draws, side="right")
        cells += offsets
        tallies += np.bincount(cells.ravel(), minlength=tallies.size)
    return tallies.reshape(rows, width)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def _largest_sums(
    signed: np.ndarray, runs: Sequence[tuple[int, int, np.ndarray]]
) -> np.ndarray:
    """``(rows, groups)``: for each row of outcome weights ``signed`` and
    each group, the largest magnitude over the candidate sets of the
    weighted sum of the group's gains.  A run covers the columns ``a:b`` of
    consecutive groups of one width, with their gains as a ``(groups,
    width, sets)`` view, so its sums are one batched product."""
    parts = []
    for a, b, run_gains in runs:
        weights = signed[:, a:b].reshape(len(signed), -1, run_gains.shape[1])
        sums = weights.transpose(1, 0, 2) @ run_gains
        parts.append(np.abs(sums, out=sums).max(axis=2))
    return np.concatenate(parts).T


@refuses_exhaustion("the deviation experiment")
def deviation_experiment(
    dist: Union[PositionDistribution, GroupMixture],
    k: int,
    epsilon: RationalLike,
    delta: RationalLike,
    trials: int,
    seed: int,
    *,
    tolerance_factor: RationalLike = 1,
) -> DeviationReport:
    """Draw the formula-sized sample repeatedly and measure the worst
    empirical-vs-expected gap over all candidate target sets.

    A trial succeeds when that gap is at most ``tolerance_factor * epsilon``
    (the bound hides a constant; the default demands constant 1).  For
    mixtures the gap is additionally taken over groups, and a trial where
    some group drew no samples counts as a failure outright.

    Trials run in blocks, each trial with its own ``(seed, trial)``
    generator, so the report does not depend on how they are blocked; each
    trial's verdict is an exact integer comparison.  A sample of 2**62
    draws or more is refused with ``ParameterOutOfRange`` before any draw,
    and an allocation that fails anyway with ``SearchSpaceTooLarge``.
    """
    eps = rational(epsilon)
    tolerance = rational(tolerance_factor) * eps
    if trials < 1:
        raise ParameterOutOfRange("trials must be at least 1")
    if seed < 0:
        raise ParameterOutOfRange("seed must be non-negative")

    n = required_samples(dist, eps, delta, k)
    if isinstance(dist, GroupMixture):
        mixture = dist
    else:
        mixture = GroupMixture(((Fraction(1), dist),))
    # One outcome per group and support point, listed group by group, so
    # each group's outcomes are adjacent columns from starts[group] on.  Each
    # outcome is a one-agent group of its own, so the kernel's group totals
    # are per-outcome gains.
    groups, positions, capacities, probabilities, weights = zip(*(
        (gi, p, d.capacity, q, w * q)
        for gi, (w, d) in enumerate(mixture.components)
        for p, q in d.support
    ))
    num_outcomes = len(weights)
    outcomes = Instance(
        tuple(map(Agent, positions, capacities, range(num_outcomes))), num_outcomes
    )
    grid = integer_grid(outcomes)
    subsets = subset_count(len(grid.levels), k, min_size=1)
    # Trials run in blocks of `rows`, each trial with its own generator.
    rows = min(trials, max(1, DRAW_CHUNK // max(n, subsets * num_outcomes)))
    chunk = min(n, DRAW_CHUNK // rows)
    # One word a cell of the gains matrix, and as much again while the
    # kernel's chunks fill it.  Once it is filled, a block adds its draws
    # (twice while they are stacked) and their cells, then its (rows, sets,
    # groups) sums and a few (rows, outcomes) arrays.
    cells = subsets * num_outcomes
    block = rows * (3 * chunk + subsets * mixture.num_groups + 7 * num_outcomes)
    check_memory(8 * (cells + max(cells, block)),
                 "the candidate sets' gains matrix", _physical_memory())

    denom = lcm(*(w.denominator for w in weights))
    if denom >= 2**62:
        raise ParameterOutOfRange(
            "probability denominators too large for exact sampling"
        )
    if n >= 2**62:
        raise ParameterOutOfRange(f"a sample of {n} draws is too large to tally")
    thresholds = list(accumulate(int(w * denom) for w in weights))

    # In-group probabilities in whole units of 1 / den.  A trial weighs
    # outcome o by tally[o] · den - unit[o] · size[group], at most n · den,
    # so a group's signed sum of gains is at most 2 · n · (max gain) · den.
    den = lcm(*(q.denominator for q in probabilities))
    bound = n * den * max(1, 2 * max(grid.capacities))
    dtype = np.int64 if grid.fits_int64 and bound < INT64_SAFE else object
    gains = np.empty((subsets, num_outcomes), dtype=dtype)
    filled = 0
    for _, totals in evaluated_subsets(outcomes, grid, k, min_size=1):
        gains[filled:filled + len(totals)] = totals
        filled += len(totals)
    units = np.array([int(q * den) for q in probabilities], dtype=dtype)
    groups = np.array(groups)
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    # Runs of consecutive groups with equally many outcomes (see _largest_sums).
    widths = np.diff(starts, append=num_outcomes)
    firsts = np.flatnonzero(np.diff(widths, prepend=0))
    edges = [*starts[firsts].tolist(), num_outcomes]
    runs = [
        (a, b, gains[:, a:b].reshape(subsets, -1, width).transpose(1, 2, 0))
        for a, b, width in zip(edges, edges[1:], widths[firsts].tolist())
    ]
    # A trial passes when its worst gap / (size · den · scale) is at most
    # the tolerance, that is gap · limit.denominator <= limit.numerator · size.
    limit = tolerance * den * grid.scale

    successes, worst_gap, worst_size = 0, 0, 1
    for first in range(0, trials, rows):
        rngs = [_trial_rng(seed, t) for t in range(first, min(first + rows, trials))]
        tallies = _tally_draws(rngs, n, denom, thresholds).astype(dtype, copy=False)
        sizes = np.add.reduceat(tallies, starts, axis=1)
        signed = tallies * den - units * sizes[:, groups]
        # gaps[r, g]: the largest |sum| over the sets of group g's signed
        # gains in trial r, so its gap is gaps[r, g] / (sizes[r, g] · den · scale).
        gaps = _largest_sums(signed, runs)
        for trial_gaps, trial_sizes in zip(gaps.tolist(), sizes.tolist()):
            gap, size = 0, 1
            for g, s in zip(trial_gaps, trial_sizes):
                if s and g * size > gap * s:
                    gap, size = g, s
            if gap * worst_size > worst_gap * size:
                worst_gap, worst_size = gap, size
            if all(trial_sizes) and gap * limit.denominator <= limit.numerator * size:
                successes += 1

    return DeviationReport(
        seed=seed,
        n=n,
        trials=trials,
        success_fraction=Fraction(successes, trials),
        worst_deviation=Fraction(worst_gap, worst_size * den * grid.scale),
    )
