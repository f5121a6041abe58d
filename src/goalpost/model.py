"""Core data model: agents, instances, target sets, and the improvement rule.

All numeric quantities are exact rationals (``fractions.Fraction``), so the
behavior rule's strict/non-strict boundaries and every solver comparison are
decided exactly.  Every type here is immutable; every function is pure.

The behavior rule: given a set of target levels, an agent moves to the lowest
level that is strictly above its position and within its capacity, or stays
put if no such level exists.

Each instance has one integer view, :func:`integer_grid`: its positions and
capacities scaled once by their least common denominator, with the
candidate levels (every position and reach) sorted, and the int64 guard
:attr:`IntegerGrid.fits_int64` decided once.  The view and a passed
:func:`validate_instance` are computed on first use and kept on the
instance itself, so they live exactly as long as it does.  Validation reads
the view's scaled positions and capacities, not the ``Fraction`` fields.
:meth:`Instance.isolate_group` derives a group's view and validity from its
parent's.  :func:`potential_targets` is the view's rational form.

One integer kernel, :func:`_rule_kernel`, applies the rule in bulk: one
``searchsorted`` finds every agent's target under every row of level
indices, in int64 when :attr:`IntegerGrid.fits_int64` holds and in exact
``object`` integers otherwise.  :func:`batch_group_totals` sums its gains by
group over subsets of the grid; :func:`improvement_report` and
:func:`group_welfare` reach it through :func:`_apply_rule`, which extends
the agents' integer view by the denominators of any target levels.  The
scalar reference it is tested against is :func:`improvement_at`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
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
    refuses_exhaustion,
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
    # Text first: a str is tested by its type, while ``Fraction``'s test
    # goes through its abstract base class.
    if isinstance(value, str):
        # Plain digits, or digits "/" digits: the same value as Fraction's
        # own parse (its \d is str.isdecimal's set), without its regex.
        num, slash, den = value.partition("/")
        if num.isdecimal() and (den.isdecimal() or not slash):
            return Fraction(int(num), int(den) if slash else 1)
        if "e" in value or "E" in value:
            exponent = _EXPONENT.search(value)
            digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
            if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
                raise ValueError(f"decimal exponent beyond {_MAX_EXPONENT} in {value[:40]!r}")
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
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


# The keys under which an instance keeps, in its own __dict__, its integer
# view and a passed validation.
_GRID, _VALID = "_grid", "_valid"


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
        if type(self.position) is not Fraction:
            object.__setattr__(self, "position", rational(self.position))
        if type(self.capacity) is not Fraction:
            object.__setattr__(self, "capacity", rational(self.capacity))

    @property
    def reach(self) -> Fraction:
        """Highest level this agent can move to."""
        return self.position + self.capacity


@dataclass(frozen=True)
class Instance:
    """A collection of agents split into ``num_groups`` groups.

    Construction only coerces field types; call :func:`validate_instance`
    to enforce the full invariants (solvers do it on entry).  The integer
    view (:func:`integer_grid`) and a passed validation are cached in the
    instance's ``__dict__`` on first use.  They are not fields, so they take
    no part in equality, hashing or ``repr``, and they die with the
    instance.
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
    ) -> "Instance":
        """Build a common-capacity instance from bare positions; the group
        count is one more than the largest label (1 with no agents)."""
        cap = rational(capacity)
        pos = [rational(p) for p in positions]
        grp = list(groups) if groups is not None else [0] * len(pos)
        if len(grp) != len(pos):
            raise ValueError("groups and positions must have equal length")
        agents = tuple(Agent(p, cap, gi) for p, gi in zip(pos, grp))
        return cls(agents, max(grp) + 1 if grp else 1, CapacityModel.COMMON)

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
        return integer_grid(self).scale == 1

    def group_members(self, group: int) -> tuple[Agent, ...]:
        return tuple(a for a in self.agents if a.group == group)

    def isolate_group(self, group: int) -> "Instance":
        """Sub-instance containing one group's agents, relabeled to group 0.

        Its integer view is built from the parent's scaled rows of those
        agents, brought to their own least common denominator, and it counts
        as validated when the parent does: a valid instance's groups are
        valid instances."""
        scale, held, caps, _, _ = integer_grid(self)
        rows = [i for i, a in enumerate(self.agents) if a.group == group]
        agents = self.agents
        sub = Instance(tuple(Agent(agents[i].position, agents[i].capacity, 0)
                             for i in rows), 1, self.capacity_model)
        positions = [held[i] for i in rows]
        capacities = [caps[i] for i in rows]
        # A member's denominator is scale / gcd(scale, its scaled value), so
        # the members' least common multiple is scale / gcd of them all.
        common = gcd(scale, *positions, *capacities)
        vars(sub)[_GRID] = _grid(scale // common, tuple(p // common for p in positions),
                                 tuple(c // common for c in capacities))
        if _VALID in vars(self):
            vars(sub)[_VALID] = True
        return sub


def validate_instance(instance: Instance) -> Instance:
    """Check all field invariants and return the instance unchanged.

    Raises NegativePosition, NegativeCapacity, GroupIndexOutOfRange, or
    CommonCapacityViolated.  Empty groups are legal (reported as 0 welfare).
    The checks read the integer view's scaled positions and capacities; a
    pass is kept on the instance, a failure is not, so an invalid instance
    raises on every call.
    """
    if _VALID not in vars(instance):
        _check_fields(instance)
        vars(instance)[_VALID] = True
    return instance


def _check_fields(instance: Instance) -> None:
    if instance.num_groups < 1:
        raise GroupIndexOutOfRange("num_groups must be at least 1")
    grid = integer_grid(instance)
    groups = [a.group for a in instance.agents]
    # The scale is positive, so a scaled value has its value's sign.
    if not (min(grid.positions, default=0) >= 0 and min(grid.capacities, default=0) >= 0
            and min(groups, default=0) >= 0
            and max(groups, default=0) < instance.num_groups):
        _raise_first_bad_field(instance)
    if instance.capacity_model is CapacityModel.COMMON and len(set(grid.capacities)) > 1:
        shared = instance.agents[0].capacity
        for idx, agent in enumerate(instance.agents):
            if agent.capacity != shared:
                raise CommonCapacityViolated(
                    f"agent {idx} has capacity {rational_detail(agent.capacity)}, "
                    f"expected {rational_detail(shared)}"
                )


def _raise_first_bad_field(instance: Instance) -> None:
    """Raise the error of the first agent with a field out of range."""
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
    (rule,) = _apply_rule(instance.agents, levels, grid=integer_grid(instance))
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
        # Zero totals (most of them, with many groups) share one Fraction.
        tuple(Fraction(tot, scale) if tot else zero for tot in totals),
        tuple(Fraction(tot, scale * n) if tot else zero for tot, n in zip(totals, sizes)),
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
    agents: Sequence[Agent],
    *level_sets: Sequence[Fraction],
    grid: Optional["IntegerGrid"] = None,
) -> tuple[_RuleOutcome, ...]:
    """The behavior rule for every agent under each of ``level_sets`` (each
    strictly increasing), as the rows of one :func:`_rule_kernel` call.

    ``grid`` is the agents' integer view, when the caller has one (an
    instance's :func:`integer_grid`); otherwise it is built here.  Its scale
    is extended only by the levels' own denominators, because a level may
    lie off the grid.  Each row indexes the sorted union of the sets, padded
    with the union's size.
    """
    if grid is None:
        grid = _grid(*_scale(agents))
    scale = lcm(grid.scale, *(v.denominator for v in chain(*level_sets)))
    factor = scale // grid.scale
    scaled = [_in_units(levels, scale) for levels in level_sets]
    union = sorted(set().union(*scaled))
    index = {v: i for i, v in enumerate(union)}
    width = max(map(len, scaled))
    sets = np.array([[index[v] for v in row] + [len(union)] * (width - len(row))
                     for row in scaled], dtype=np.intp)
    positions, capacities = grid.positions, grid.capacities
    if factor > 1:
        positions = tuple(p * factor for p in positions)
        capacities = tuple(c * factor for c in capacities)
    # Every position and reach is a level of ``grid``, so its bound, scaled,
    # still covers them; only the new levels' ends are added.
    bound = max([grid.bound * factor, *map(abs, union[:1] + union[-1:])])
    place, gains = _rule_kernel(
        IntegerGrid(scale, positions, capacities, tuple(union), bound), sets)
    chosen = np.where(gains > 0, place, -1)
    return tuple(_RuleOutcome(scale, *row) for row in zip(chosen, gains))


# Keep headroom: a DP candidate adds two table entries plus a running value.
INT64_SAFE = 1 << 60


class IntegerGrid(NamedTuple):
    """An instance in whole units of ``1/scale``: exact Python ints, with
    ``levels`` sorted.

    ``bound`` is the largest magnitude of any level, position or reach, or
    the sum of the positive capacities (a bound on any welfare total) when
    that is larger.  It is computed once, by whoever builds the grid."""

    scale: int
    positions: tuple[int, ...]
    capacities: tuple[int, ...]
    levels: tuple[int, ...]
    bound: int

    @property
    def fits_int64(self) -> bool:
        """True when ``bound`` stays below ``INT64_SAFE``."""
        return self.bound < INT64_SAFE


def _in_units(values: Iterable[Fraction], scale: int) -> tuple[int, ...]:
    """Each value times ``scale``, a multiple of its denominator."""
    return tuple(n * (scale // d) for n, d in map(Fraction.as_integer_ratio, values))


def _grid(
    scale: int, positions: tuple[int, ...], capacities: tuple[int, ...]
) -> IntegerGrid:
    """The grid whose levels are every position and reach.  Those are
    levels, so the ends of the sorted levels bound them."""
    levels = sorted({*positions, *map(add, positions, capacities)})
    ends = max(map(abs, levels[:1] + levels[-1:]), default=0)
    return IntegerGrid(scale, positions, capacities, tuple(levels),
                       max(ends, sum(filter((0).__lt__, capacities))))


def _scale(agents: Sequence[Agent]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The agents' least common denominator, and their positions and
    capacities times it."""
    held = [a.position for a in agents]
    caps = [a.capacity for a in agents]
    scale = lcm(*{v.denominator for v in chain(held, caps)})
    return scale, _in_units(held, scale), _in_units(caps, scale)


def integer_grid(instance: Instance) -> IntegerGrid:
    """The instance's integer view: every position and capacity scaled by
    their least common denominator; ``levels`` is every scaled position and
    reach, sorted and deduplicated.  Built on first use and kept on the
    instance."""
    cache = vars(instance)
    grid = cache.get(_GRID)
    if grid is None:
        grid = cache[_GRID] = _grid(*_scale(instance.agents))
    return grid


# Bytes a character of a value's text takes as the command line forms and
# writes it: its string, its copy in the JSON text and the output buffer.
_BYTES_PER_CHAR = 16


def text_bytes(instance: Instance) -> int:
    """Bytes of the longest level, target or welfare total as text: no such
    value is longer than the digits of the grid's bound, a slash and the
    digits of its scale."""
    grid = integer_grid(instance)
    chars = sum(v.bit_length() * 31 // 100 + 1 for v in (grid.bound, grid.scale)) + 1
    return _BYTES_PER_CHAR * chars


def potential_targets(instance: Instance) -> TargetSet:
    """Every agent position and position-plus-capacity, sorted and deduplicated.

    Optimizing over subsets of this set loses nothing: shifting any target up
    to the next such breakpoint preserves who reaches it and only lengthens
    the moves.
    """
    grid = integer_grid(instance)
    return TargetSet(tuple(Fraction(v, grid.scale) for v in grid.levels))


@refuses_exhaustion("the batch kernel")
def batch_group_totals(
    instance: Instance, grid: IntegerGrid, sets: np.ndarray
) -> np.ndarray:
    """Scaled per-group improvement of a batch of target sets.

    ``grid`` is ``integer_grid(instance)`` and ``sets`` a ``(B, s)`` array
    whose rows are strictly increasing indices into ``grid.levels``.  Row
    ``b`` of the ``(B, g)`` result is the ``group_totals`` of
    :func:`improvement_report` for the levels of ``sets[b]``, times
    ``grid.scale``: the :func:`_rule_kernel` gains summed by group, in one
    scatter over the agents' group indices.  A result past physical memory
    is refused before it is allocated, and a failed allocation as well.
    """
    g = instance.num_groups
    check_memory(8 * len(sets) * g, "the group-sum array", _physical_memory())
    gains = _rule_kernel(grid, sets)[1]
    rows = len(sets)
    # Flat cell r·g + group of agent a collects the gain of agent a in row r.
    cells = np.fromiter((a.group for a in instance.agents), np.intp, instance.size)
    cells = (np.arange(rows)[:, None] * g + cells).ravel()
    totals = np.zeros(rows * g, dtype=gains.dtype)
    np.add.at(totals, cells, gains.ravel())
    return totals.reshape(rows, g)


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

