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
enumeration) gives a sets × outcomes matrix of scaled gains: int64 when
every gap numerator below stays under 2**60, exact ``object`` integers
otherwise.  The sets are counted first, and a matrix that cannot fit in
physical memory is refused with ``SearchSpaceTooLarge`` before any set is
evaluated.  A trial draws its sample ``DRAW_CHUNK`` values at a time and
adds up the chunks' per-outcome ``np.bincount`` tallies, so its memory does
not grow with the sample size (the generator's stream does not depend on how
the draws are split).  Outcomes are listed group by group, so a group's
outcomes are adjacent columns: a trial weighs each outcome's gains by its
tally less its expected share, with every in-group probability over one
common denominator, and sums each group's columns with one
``np.add.reduceat``.  No outcomes × groups array is formed: besides the
gains matrix, a trial holds only its weighted copy and the sets × groups
sums.
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
from .errors import _physical_memory, check_memory
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


# Draws held in memory at once by one trial: 8 MiB of int64.
DRAW_CHUNK = 2**20


def _tally_draws(
    rng: np.random.Generator, n: int, denom: int, thresholds: Sequence[int]
) -> np.ndarray:
    """How many of ``n`` uniform draws below ``denom`` fall on each outcome;
    outcome ``o`` takes the draws below ``thresholds[o]`` and not below the
    one before.  Drawn ``DRAW_CHUNK`` at a time."""
    tallies = np.zeros(len(thresholds), dtype=np.int64)
    for start in range(0, n, DRAW_CHUNK):
        draws = rng.integers(0, denom, size=min(DRAW_CHUNK, n - start))
        outcome_idx = np.searchsorted(thresholds, draws, side="right")
        tallies += np.bincount(outcome_idx, minlength=len(thresholds))
    return tallies


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


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
    # The chunks' gains and their concatenated copy: two words a cell.
    subsets = subset_count(len(grid.levels), k, min_size=1)
    check_memory(16 * subsets * num_outcomes, "the candidate sets' gains matrix",
                 _physical_memory())
    gains = np.concatenate([
        totals for _, totals in
        evaluated_subsets(outcomes, grid, k, min_size=1)
    ])
    denom = lcm(*(w.denominator for w in weights))
    if denom >= 2**62:
        raise ParameterOutOfRange(
            "probability denominators too large for exact sampling"
        )
    thresholds = list(accumulate(int(w * denom) for w in weights))

    # In-group probabilities in whole units of 1 / den.  A trial weighs
    # outcome o by tally[o] · den - unit[o] · size[group], at most n · den,
    # so a group's signed sum of gains is at most 2 · n · (max gain) · den.
    den = lcm(*(q.denominator for q in probabilities))
    bound = n * den * max(1, 2 * max(grid.capacities))
    dtype = np.int64 if gains.dtype == np.int64 and bound < INT64_SAFE else object
    gains = gains.astype(dtype, copy=False)
    units = np.array([int(q * den) for q in probabilities], dtype=dtype)
    groups = np.array(groups)
    starts = np.flatnonzero(np.diff(groups, prepend=-1))

    successes = 0
    worst = Fraction(0)
    for trial in range(trials):
        tallies = _tally_draws(_trial_rng(seed, trial), n, denom, thresholds)
        tallies = tallies.astype(dtype, copy=False)
        sizes = np.add.reduceat(tallies, starts)
        signed = tallies * den - units * sizes[groups]
        # The gap of group g is gaps[g] / (sizes[g] · den · scale).
        sums = np.add.reduceat(gains * signed, starts, axis=1)
        gaps = np.abs(sums, out=sums).max(axis=0)
        trial_worst = max(
            Fraction(gap, size)
            for gap, size in zip(gaps.tolist(), sizes.tolist()) if size
        ) / (den * grid.scale)
        worst = max(worst, trial_worst)
        if all(sizes) and trial_worst <= tolerance:
            successes += 1

    return DeviationReport(
        seed=seed,
        n=n,
        trials=trials,
        success_fraction=Fraction(successes, trials),
        worst_deviation=worst,
    )
