"""Core data model: agents, instances, target sets, and the improvement rule.

All numeric quantities are exact rationals (``fractions.Fraction``), so the
behavior rule's strict/non-strict boundaries and every solver comparison are
decided exactly.  Every type here is immutable; every function is pure.

The behavior rule: given a set of target levels, an agent moves to the lowest
level that is strictly above its position and within its capacity, or stays
put if no such level exists.

The candidate levels, every position and reach, are formed in one place:
:func:`integer_grid` scales the instance once by its least common
denominator, and :func:`potential_targets` is the grid's rational view.

One integer kernel, :func:`_rule_kernel`, applies the rule in bulk: one
``searchsorted`` finds every agent's target under every row of level
indices, in int64 when :attr:`IntegerGrid.fits_int64` holds and in exact
``object`` integers otherwise.  :func:`batch_group_totals` sums its gains by
group over subsets of the grid; :func:`improvement_report` and
:func:`group_welfare` reach it through :func:`_apply_rule`, which scales the
agents and any target levels by one common denominator.  The scalar
reference it is tested against is :func:`improvement_at`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    CommonCapacityViolated,
    GroupIndexOutOfRange,
    NegativeCapacity,
    NegativePosition,
    ParameterOutOfRange,
    _physical_memory,
    check_memory,
    rational_detail,
)

RationalLike = Union[Fraction, int, str]


# Python's default limit on the digits of an int read from or written as
# text; a decimal exponent past it expands to a power of ten past it.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def rational(value: RationalLike) -> Fraction:
    """Coerce ints, "a/b" strings, and Fractions to an exact Fraction.

    Decimal strings are accepted ("1.5", "1e-3"), but not one whose
    exponent exceeds 4300 in magnitude: ``Fraction`` would expand it to a
    power of ten, in time that grows with the exponent."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, str) and ("e" in value or "E" in value):
        exponent = _EXPONENT.search(value)
        digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond {_MAX_EXPONENT} in {value[:40]!r}")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def rational_str(value: Fraction) -> str:
    """Canonical text form: bare integer or "num/den" in lowest terms.

    Raises ParameterOutOfRange when the numerator or denominator has more
    digits than Python converts to text."""
    try:
        return str(value)  # Fraction writes exactly this form
    except ValueError:
        raise ParameterOutOfRange(
            "a result has more digits than Python's integer-to-text limit"
        ) from None


class CapacityModel(Enum):
    COMMON = "common"
    INDIVIDUALIZED = "individualized"


@dataclass(frozen=True)
class Agent:
    """One participant: skill position, improvement capacity, group label."""

    position: Fraction
    capacity: Fraction
    group: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", rational(self.position))
        object.__setattr__(self, "capacity", rational(self.capacity))

    @property
    def reach(self) -> Fraction:
        """Highest level this agent can move to."""
        return self.position + self.capacity


@dataclass(frozen=True)
class Instance:
    """A collection of agents split into ``num_groups`` groups.

    Construction only coerces field types; call :func:`validate_instance`
    to enforce the full invariants (it is cheap and solvers do it on entry).
    """

    agents: tuple[Agent, ...]
    num_groups: int = 1
    capacity_model: CapacityModel = CapacityModel.INDIVIDUALIZED

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))

    @classmethod
    def common(
        cls,
        positions: Iterable[RationalLike],
        capacity: RationalLike,
        groups: Optional[Iterable[int]] = None,
        num_groups: Optional[int] = None,
    ) -> "Instance":
        """Build a common-capacity instance from bare positions."""
        cap = rational(capacity)
        pos = [rational(p) for p in positions]
        grp = list(groups) if groups is not None else [0] * len(pos)
        if len(grp) != len(pos):
            raise ValueError("groups and positions must have equal length")
        g = num_groups if num_groups is not None else (max(grp) + 1 if grp else 1)
        agents = tuple(Agent(p, cap, gi) for p, gi in zip(pos, grp))
        return cls(agents, g, CapacityModel.COMMON)

    @property
    def size(self) -> int:
        return len(self.agents)

    @property
    def common_capacity(self) -> Fraction:
        """Shared capacity under the common model (0 for an empty instance)."""
        if self.capacity_model is not CapacityModel.COMMON:
            raise ValueError("instance does not use the common capacity model")
        return self.agents[0].capacity if self.agents else Fraction(0)

    @property
    def is_integral(self) -> bool:
        return all(
            a.position.denominator == 1 and a.capacity.denominator == 1
            for a in self.agents
        )

    def group_members(self, group: int) -> tuple[Agent, ...]:
        return tuple(a for a in self.agents if a.group == group)

    def isolate_group(self, group: int) -> "Instance":
        """Sub-instance containing one group's agents, relabeled to group 0."""
        members = tuple(
            Agent(a.position, a.capacity, 0) for a in self.agents if a.group == group
        )
        return Instance(members, 1, self.capacity_model)


def validate_instance(instance: Instance) -> Instance:
    """Check all field invariants and return the instance unchanged.

    Raises NegativePosition, NegativeCapacity, GroupIndexOutOfRange, or
    CommonCapacityViolated.  Empty groups are legal (reported as 0 welfare).
    """
    if instance.num_groups < 1:
        raise GroupIndexOutOfRange("num_groups must be at least 1")
    for idx, agent in enumerate(instance.agents):
        if agent.position < 0:
            raise NegativePosition(
                f"agent {idx} has position {rational_detail(agent.position)}")
        if agent.capacity < 0:
            raise NegativeCapacity(
                f"agent {idx} has capacity {rational_detail(agent.capacity)}")
        if not 0 <= agent.group < instance.num_groups:
            raise GroupIndexOutOfRange(
                f"agent {idx} has group {agent.group}, expected [0, {instance.num_groups})"
            )
    if instance.capacity_model is CapacityModel.COMMON and instance.agents:
        shared = instance.agents[0].capacity
        for idx, agent in enumerate(instance.agents):
            if agent.capacity != shared:
                raise CommonCapacityViolated(
                    f"agent {idx} has capacity {rational_detail(agent.capacity)}, "
                    f"expected {rational_detail(shared)}"
                )
    return instance


@dataclass(frozen=True)
class TargetSet:
    """A strictly increasing set of target levels; duplicates merge silently."""

    levels: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        levels = self.levels
        if not (
            isinstance(levels, tuple)
            and all(isinstance(v, Fraction) for v in levels)
            and all(a < b for a, b in zip(levels, levels[1:]))
        ):
            object.__setattr__(
                self, "levels", tuple(sorted({rational(v) for v in levels}))
            )

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    def __contains__(self, value: object) -> bool:
        return value in self.levels

    def __bool__(self) -> bool:
        return bool(self.levels)

    def union(self, other: "TargetSet") -> "TargetSet":
        return TargetSet(self.levels + other.levels)

    def as_strings(self) -> list[str]:
        return [rational_str(v) for v in self.levels]


EMPTY_TARGETS = TargetSet(())


def improvement_at(position: Fraction, capacity: Fraction, targets: TargetSet) -> Fraction:
    """Improvement of a lone position/capacity pair under the behavior rule."""
    chosen = _least_eligible(position, capacity, targets.levels)
    return chosen - position if chosen is not None else Fraction(0)


def _least_eligible(
    position: Fraction, capacity: Fraction, levels: Sequence[Fraction]
) -> Optional[Fraction]:
    i = bisect_right(levels, position)
    if i < len(levels) and levels[i] <= position + capacity:
        return levels[i]
    return None


def eligible_target(agent: Agent, targets: TargetSet) -> Optional[Fraction]:
    """The level the agent aims for: least one strictly above its position and
    within reach, or None."""
    return _least_eligible(agent.position, agent.capacity, targets.levels)


class AgentOutcome(NamedTuple):
    chosen_target: Optional[Fraction]
    improvement: Fraction


@dataclass(frozen=True)
class ImprovementReport:
    """Per-agent assignments plus per-group and overall welfare totals."""

    per_agent: tuple[AgentOutcome, ...]
    group_totals: tuple[Fraction, ...]
    group_averages: tuple[Fraction, ...]
    total: Fraction


def improvement_report(instance: Instance, targets: TargetSet) -> ImprovementReport:
    """Apply the behavior rule to every agent and aggregate welfare, on
    exact integers (:func:`_apply_rule`) until the returned fields."""
    levels = targets.levels
    (rule,) = _apply_rule(instance.agents, levels)
    scale, zero = rule.scale, Fraction(0)
    outcomes = []
    totals = [0] * instance.num_groups
    sizes = [0] * instance.num_groups
    for agent, j, gain in zip(instance.agents, rule.chosen.tolist(), rule.gains.tolist()):
        outcomes.append(AgentOutcome(levels[j], Fraction(gain, scale)) if j >= 0
                        else AgentOutcome(None, zero))
        totals[agent.group] += gain
        sizes[agent.group] += 1
    return ImprovementReport(
        tuple(outcomes),
        tuple(Fraction(tot, scale) for tot in totals),
        tuple(Fraction(tot, scale * n) if n else zero for tot, n in zip(totals, sizes)),
        Fraction(sum(totals), scale),
    )


def group_welfare(agents: Sequence[Agent], targets: TargetSet) -> Fraction:
    """Total improvement of an ad-hoc agent collection (no instance needed)."""
    (rule,) = _apply_rule(agents, targets.levels)
    return Fraction(rule.total, rule.scale)


class _RuleOutcome(NamedTuple):
    """The rule's outcome for a list of agents, in whole units of ``1/scale``:
    ``chosen[a]`` indexes the level agent ``a`` moves to, or is -1 when it
    stays put, and ``gains[a]`` is its scaled improvement."""

    scale: int
    chosen: np.ndarray
    gains: np.ndarray

    @property
    def total(self) -> int:
        return int(self.gains.sum())


def _apply_rule(
    agents: Sequence[Agent], *level_sets: Sequence[Fraction]
) -> tuple[_RuleOutcome, ...]:
    """The behavior rule for every agent under each of ``level_sets`` (each
    strictly increasing), as the rows of one :func:`_rule_kernel` call.

    The agents and levels are scaled by one common denominator, the agents'
    extended by the levels' own, because a level may lie off the grid.  Each
    row indexes the sorted union of the sets, padded with the union's size.
    """
    held = [a.position for a in agents]
    caps = [a.capacity for a in agents]
    scale = lcm(*(v.denominator for v in chain(held, caps, *level_sets)))
    scaled = [_in_units(levels, scale) for levels in level_sets]
    union = sorted(set().union(*scaled))
    index = {v: i for i, v in enumerate(union)}
    width = max(map(len, scaled))
    sets = np.array([[index[v] for v in row] + [len(union)] * (width - len(row))
                     for row in scaled], dtype=np.intp)
    grid = IntegerGrid(scale, _in_units(held, scale), _in_units(caps, scale),
                       tuple(union))
    place, gains = _rule_kernel(grid, sets)
    chosen = np.where(gains > 0, place, -1)
    return tuple(_RuleOutcome(scale, *row) for row in zip(chosen, gains))


# Keep headroom: a DP candidate adds two table entries plus a running value.
INT64_SAFE = 1 << 60


class IntegerGrid(NamedTuple):
    """An instance in whole units of ``1/scale``: exact Python ints, with
    ``levels`` sorted."""

    scale: int
    positions: tuple[int, ...]
    capacities: tuple[int, ...]
    levels: tuple[int, ...]

    @property
    def fits_int64(self) -> bool:
        """True when every level, position and reach, and the sum of the
        positive capacities (a bound on any welfare total), stay below
        ``INT64_SAFE`` in magnitude; a level off the grid may be negative."""
        levels = self.levels  # sorted: its ends bound it
        values = chain(levels[:1], levels[-1:], self.positions,
                       map(add, self.positions, self.capacities))
        return max(max(map(abs, values), default=0),
                   sum(c for c in self.capacities if c > 0)) < INT64_SAFE


def _in_units(values: Iterable[Fraction], scale: int) -> tuple[int, ...]:
    """Each value times ``scale``, a multiple of its denominator."""
    return tuple(v.numerator * (scale // v.denominator) for v in values)


def integer_grid(instance: Instance) -> IntegerGrid:
    """Scale every position and capacity by their least common denominator;
    ``levels`` is every scaled position and reach, sorted and deduplicated."""
    held = [a.position for a in instance.agents]
    caps = [a.capacity for a in instance.agents]
    scale = lcm(*(v.denominator for v in chain(held, caps)))
    positions, capacities = _in_units(held, scale), _in_units(caps, scale)
    levels = {*positions, *map(add, positions, capacities)}
    return IntegerGrid(scale, positions, capacities, tuple(sorted(levels)))


def potential_targets(instance: Instance) -> TargetSet:
    """Every agent position and position-plus-capacity, sorted and deduplicated.

    Optimizing over subsets of this set loses nothing: shifting any target up
    to the next such breakpoint preserves who reaches it and only lengthens
    the moves.
    """
    grid = integer_grid(instance)
    return TargetSet(tuple(Fraction(v, grid.scale) for v in grid.levels))


def batch_group_totals(
    instance: Instance, grid: IntegerGrid, sets: np.ndarray
) -> np.ndarray:
    """Scaled per-group improvement of a batch of target sets.

    ``grid`` is ``integer_grid(instance)`` and ``sets`` a ``(B, s)`` array
    whose rows are strictly increasing indices into ``grid.levels``.  Row
    ``b`` of the ``(B, g)`` result is the ``group_totals`` of
    :func:`improvement_report` for the levels of ``sets[b]``, times
    ``grid.scale``: the :func:`_rule_kernel` gains summed by group.  Group
    arrays past physical memory are refused before they are allocated.
    """
    g = instance.num_groups
    check_memory(8 * (instance.size + len(sets)) * g, "the group-sum array",
                 _physical_memory())
    gains = _rule_kernel(grid, sets)[1]
    member = np.equal.outer([a.group for a in instance.agents], np.arange(g))
    return gains @ member.astype(gains.dtype)


def _rule_kernel(grid: IntegerGrid, sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The behavior rule for every agent of ``grid`` under every row of
    ``sets`` (increasing indices into ``grid.levels``, padded with
    ``len(grid.levels)``): each agent's place in each row and its scaled
    gain, positive exactly when it moves, as two ``(rows, n)`` arrays, int64
    when ``grid.fits_int64`` and exact ``object`` integers otherwise."""
    dtype = np.int64 if grid.fits_int64 else object
    rows, size = sets.shape
    m = len(grid.levels)
    # Index m is a padding level for "no member left", never within reach.
    levels = np.asarray((*grid.levels, 0), dtype=dtype)
    positions = np.asarray(grid.positions, dtype=dtype)
    reaches = positions + np.asarray(grid.capacities, dtype=dtype)
    above = np.searchsorted(levels[:m], positions, side="right")
    beyond = np.searchsorted(levels[:m], reaches, side="right")
    # Row r shifted by r·(m + 1) keeps the batch one sorted array, so one
    # search finds every agent's first member in every row.
    shift = np.arange(rows)[:, None] * (m + 1)
    first = np.searchsorted((sets + shift).ravel(), above + shift)
    first -= np.arange(rows)[:, None] * size
    padded = np.concatenate((sets, np.full((rows, 1), m, dtype=sets.dtype)), axis=1)
    chosen = np.take_along_axis(padded, first, axis=1)
    return first, np.where(chosen < beyond, levels[chosen] - positions, 0)

