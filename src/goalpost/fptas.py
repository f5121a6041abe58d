"""Approximation scheme for maximizing the worst group's welfare.

Groups may have different capacities here (uniform within each group), and
positions may be arbitrary rationals.  Two branches:

* Fewer targets than groups: enumerate every subset of the candidate grid of
  size at most k and return the exact max-min optimum.
* Otherwise: run the shared frontier recursion
  (:func:`goalpost.pareto.frontier_dp`) on quantized credits.  Each group has
  a step of epsilon * capacity / (16 * k * groups^3), and every per-group
  credit in the table is counted in whole steps, rounded down once per cell;
  a group whose step is 0 keeps its exact credit.  Because stored welfare is
  always a whole number of steps, adding quantized credits is the same as
  rounding the running welfare down to the step grid after every target.
  Rounding merges nearby tuples so the per-state sets stay polynomial, while
  each stored coordinate undershoots the welfare its witness really achieves
  by at most k steps.  The witness whose rounded worst coordinate is largest
  is re-evaluated exactly, and that true welfare is returned; it is at least
  (1 - epsilon) times the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import floordiv, mul
from typing import Optional

from .errors import (
    EpsilonOutOfRange,
    GroupCapacityNonUniform,
    _physical_memory,
    check_memory,
    rational_detail,
)
from .model import (
    Instance,
    RationalLike,
    TargetSet,
    improvement_report,
    rational,
    validate_instance,
)
from .oracle import max_min_witness
from .pareto import band_gains, frontier_dp
from .tables import ContributionTable


@dataclass(frozen=True)
class FptasParams:
    """Rounding grid: one step per group, proportional to its capacity."""

    epsilon: Fraction
    steps: tuple[Fraction, ...]

    @classmethod
    def for_instance(
        cls, instance: Instance, k: int, epsilon: RationalLike
    ) -> "FptasParams":
        eps, caps = _checked(instance, epsilon)
        g = instance.num_groups
        steps = tuple(eps * cap / (16 * k * g**3) for cap in caps)
        return cls(eps, steps)


def _checked(
    instance: Instance, epsilon: RationalLike
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """``epsilon`` and the per-group capacities, checked in this order:
    epsilon in (0, 1), a step table that fits in memory, capacities uniform
    within each group."""
    eps = rational(epsilon)
    if not 0 < eps < 1:
        raise EpsilonOutOfRange(
            f"epsilon must be in (0, 1), got {rational_detail(eps)}")
    # Two g-long tuples, 8 bytes a slot: refuse a count they cannot fit.
    check_memory(16 * instance.num_groups, "the per-group step table",
                 _physical_memory())
    return eps, group_capacities(instance)


def group_capacities(instance: Instance) -> tuple[Fraction, ...]:
    """Per-group capacity; raises unless capacities agree within each group.

    Empty groups get capacity 0 (their welfare is identically 0).
    """
    caps: list[Optional[Fraction]] = [None] * instance.num_groups
    for agent in instance.agents:
        seen = caps[agent.group]
        if seen is None:
            caps[agent.group] = agent.capacity
        elif seen != agent.capacity:
            raise GroupCapacityNonUniform(
                f"group {agent.group} mixes capacities {rational_detail(seen)} and "
                f"{rational_detail(agent.capacity)}"
            )
    zero = Fraction(0)
    return tuple(zero if c is None else c for c in caps)


@dataclass(frozen=True)
class MaxMinApproximation:
    """Result of the scheme: exact welfare of the returned target set.

    ``rounded_welfare`` is the stored per-group tuple the witness was chosen
    by (equal to the exact tuple on the small-budget branch), and
    ``table_peak`` the largest per-state tuple set formed; both are diagnostics.
    """

    value: Fraction
    targets: TargetSet
    rounded_welfare: tuple[Fraction, ...]
    table_peak: int


def fptas_max_min(instance: Instance, k: int, epsilon: RationalLike) -> MaxMinApproximation:
    """A target set whose worst-group welfare is within (1 - epsilon) of the
    best achievable with at most ``k`` targets; exact when ``k`` is below the
    group count."""
    if k < 1:
        raise ValueError("k must be at least 1")
    validate_instance(instance)
    if k < instance.num_groups:
        # The exact branch reads no rounding step, so it forms none.
        _checked(instance, epsilon)
        value, targets = max_min_witness(instance, k)
        welfare = improvement_report(instance, targets).group_totals
        return MaxMinApproximation(value, targets, welfare, 0)

    params = FptasParams.for_instance(instance, k, epsilon)
    table = ContributionTable(instance)
    # A step is step * scale credit units.  A zero step belongs to a group
    # whose credits are all 0; it counts raw units to avoid dividing by 0.
    units = tuple(step * table.scale if step else 1 for step in params.steps)
    # d // (p / q) is d * q // p: the same floor, with no Fraction formed.
    ps, qs = zip(*(u.as_integer_ratio() for u in units))

    def quantized(credits: list[int]) -> tuple[int, ...]:
        return tuple(map(floordiv, map(mul, credits, qs), ps))

    root, peak = frontier_dp(table, k, band_gains(table, quantized))
    rounded = [
        (tuple(Fraction(q * u, table.scale) for q, u in zip(key, units)), chain)
        for key, chain in root.items()
    ]
    # Steps differ between groups: pick by the rational tuple, not the counts.
    best, chain = max(rounded, key=lambda item: min(item[0]))
    targets = table.served_targets(chain)
    true_low = min(improvement_report(instance, targets).group_totals)
    return MaxMinApproximation(true_low, targets, best, peak)
