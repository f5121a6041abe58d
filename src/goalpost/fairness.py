"""A target placement that is approximately optimal for every group at once.

Natural candidates fail here: the max-min point can starve a group relative
to what it could earn alone, and the plain union of per-group optima lets one
group's targets intercept another's agents just short of their real goal.
The pipeline below sidesteps both, in four passes over a common-capacity
instance (capacity ``D``, ``g`` groups, budget ``k >= g``):

1. Solve each group alone with budget ceil(k/g), then drop middles of any
   target triple packed tighter than ``D`` (welfare-safe for that group).
2. Keep only the best residue class mod 4 of each group's targets: spacing
   grows to at least ``2 D`` per group at the cost of at most 3/4 of the
   group's welfare.
3. Within each target's catchment window ``[t - D, t)``, re-place the target
   optimally for the window's agents (it lands in ``[t, t + D]``), after
   discarding agents no target serves.
4. Merge all groups' targets and relocate clustered ones so that every
   original window keeps a target in its right part and none lands in its
   leftmost ``D/g`` sliver, which caps the welfare lost to interference.

The result uses at most ``k`` levels and every group retains at least
``1/(16 g^2)`` of its solo optimum at budget ceil(k/g), hence ``1/(16 g^3)``
of its solo optimum at budget ``k``.

Each group is solved alone once, for both budgets: one credit table and one
DP run whose budget layers hold every smaller budget
(:func:`group_optima_by_budget`).  Every re-application of the behavior
rule (scoring the residue classes, the step-3 survivors and windows, the
final report) runs on exact integers, from the cached integer view of the
isolated group or of the instance (:func:`goalpost.model.integer_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Optional, Sequence

from .errors import (
    BudgetBelowGroupCount,
    EmptyGroup,
    IndividualizedCapacityUnsupported,
    SpacingPreconditionViolated,
    rational_detail,
)
from .model import (
    Agent,
    CapacityModel,
    ImprovementReport,
    Instance,
    IntegerGrid,
    TargetSet,
    _apply_rule,
    improvement_report,
    integer_grid,
    validate_instance,
)
from .pareto import FrontierPoint, pareto_frontier
from .tables import ContributionTable
from .welfare import DpSolution, _solve_budgets, max_total_improvement


@dataclass(frozen=True)
class GroupOptima:
    """Each group's solo optimum (value and witness) at one stated budget."""

    budget: int
    per_group: tuple[DpSolution, ...]


def group_optima(instance: Instance, budget: int) -> GroupOptima:
    """Each group's solo optimum at ``budget``."""
    return group_optima_by_budget(instance, (budget,))[budget]


def group_optima_by_budget(
    instance: Instance, budgets: Sequence[int]
) -> dict[int, GroupOptima]:
    """Each group's solo optima at every one of ``budgets``, by budget.

    A group is solved once: one credit table and one DP run up to the
    largest budget, whose layers hold every smaller budget.  Each optimum
    equals ``max_total_improvement(instance.isolate_group(g), budget)``.
    """
    solos = [instance.isolate_group(g) for g in range(instance.num_groups)]
    return _solo_optima_by_budget(solos, budgets)


def _solo_optima_by_budget(
    solos: Sequence[Instance], budgets: Sequence[int]
) -> dict[int, GroupOptima]:
    """:func:`group_optima_by_budget` from the isolated groups."""
    if any(b < 0 for b in budgets):
        raise ValueError("k must be non-negative")
    solved = [_solve_budgets(ContributionTable(validate_instance(solo)), budgets)
              for solo in solos]
    return {
        budget: GroupOptima(budget, tuple(solutions[at] for solutions in solved))
        for at, budget in enumerate(budgets)
    }


def prune_every_other(targets: TargetSet, delta: Fraction) -> TargetSet:
    """Drop the middle of every target triple spanning less than ``delta``.

    Afterwards every other level is at least ``delta`` apart.  For a single
    group served in isolation this never lowers welfare: agents aimed at the
    dropped level climb to the next one instead.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    levels = list(targets.levels)
    i = 0
    while i + 2 < len(levels):
        if levels[i + 2] < levels[i] + delta:
            del levels[i + 1]
        else:
            i += 1
    return TargetSet(tuple(levels))


def distant_targets(
    targets: TargetSet,
    group_agents: Sequence[Agent],
    delta: Fraction,
    grid: Optional[IntegerGrid] = None,
) -> TargetSet:
    """Keep the residue class mod 4 of the levels that serves the agents best.

    Input levels must already have every other level ``delta`` apart; kept
    levels are then at least ``2 * delta`` apart, and the kept class earns at
    least a quarter of the input welfare on these agents.  ``grid``, when
    given, is the agents' integer view (their isolated group's
    :func:`integer_grid`).
    """
    levels = targets.levels
    for i in range(len(levels) - 2):
        if levels[i + 2] - levels[i] < delta:
            raise SpacingPreconditionViolated(
                f"levels {rational_detail(levels[i])}, "
                f"{rational_detail(levels[i + 2])} are closer than "
                f"{rational_detail(delta)}"
            )
    if len(levels) <= 1:
        return targets
    parts = [levels[r::4] for r in range(4)]
    totals = [rule.total for rule in _apply_rule(group_agents, *parts, grid=grid)]
    # max keeps the first of equal totals: ties go to the lowest class.
    return TargetSet(parts[max(range(4), key=totals.__getitem__)])


def local_reopt(
    tau: Fraction, window_agents: Sequence[Agent], delta: Fraction
) -> Fraction:
    """Optimal single target for the agents able to reach ``tau``.

    All agents must sit in ``[tau - delta, tau)``; the optimum then lies in
    ``[tau, tau + delta]``.  An empty window returns ``tau`` unchanged.
    """
    if not window_agents:
        return tau
    for agent in window_agents:
        if not tau - delta <= agent.position < tau:
            raise ValueError(
                f"agent at {agent.position} is outside [{tau - delta}, {tau})"
            )
    sub = Instance(
        tuple(Agent(a.position, delta, 0) for a in window_agents),
        1,
        CapacityModel.COMMON,
    )
    (level,) = max_total_improvement(sub, 1).targets.levels
    return level


@dataclass(frozen=True)
class MergePart:
    """One maximal run of window left-endpoints packed tighter than delta/g."""

    points: tuple[Fraction, ...]
    placed: Fraction


def resolve_interference(
    union_targets: TargetSet, delta: Fraction, g: int
) -> TargetSet:
    """Relocate clustered targets so no catchment window is undercut.

    Windows' left endpoints are grouped into maximal runs with consecutive
    gaps under ``delta / g``; each run emits one target: the first member's
    original target, capped at the next run's start.  Every original target
    ``t`` then has a final target inside ``[t - delta + delta/g, t]`` and
    none inside ``(t - delta, t - delta + delta/g)``.
    """
    parts = merge_parts(union_targets, delta, g)
    return TargetSet(tuple(part.placed for part in parts))


def merge_parts(
    union_targets: TargetSet, delta: Fraction, g: int
) -> tuple[MergePart, ...]:
    """The endpoint partition behind :func:`resolve_interference`, kept for
    tracing and invariant checks.

    One pass over the levels: each window start ``level - delta`` joins the
    current run while it lies within ``delta / g`` of the run's last start,
    and opens a new run otherwise.  Each run is placed at its first start
    plus ``delta``, capped at the next run's first start."""
    if not union_targets:
        raise ValueError("union_targets must be nonempty")
    if delta <= 0:
        raise ValueError("delta must be positive")
    gap = delta / g
    runs: list[list[Fraction]] = []
    for level in union_targets.levels:
        start = level - delta
        if runs and start - runs[-1][-1] < gap:
            runs[-1].append(start)
        else:
            runs.append([start])
    caps = [run[0] for run in runs[1:]] + [inf]
    return tuple(MergePart(tuple(run), min(run[0] + delta, cap)) for run, cap in zip(runs, caps))


@dataclass(frozen=True)
class ApproxTrace:
    """Everything the pipeline produced, step by step, plus the final report.

    ``alpha_k`` compares each group's final welfare to its solo optimum at
    budget k; ``alpha_ceil`` compares to the solo optimum at budget
    ceil(k / g) that step 1 actually used.
    """

    instance: Instance
    k: int
    split_budget: int
    step1_isolated: tuple[TargetSet, ...]
    step1_spaced: tuple[TargetSet, ...]
    step2_sparse: tuple[TargetSet, ...]
    step3_localized: tuple[TargetSet, ...]
    survivors: tuple[tuple[Agent, ...], ...]
    step4_parts: tuple[MergePart, ...]
    targets: TargetSet
    report: ImprovementReport
    alpha_k: Fraction
    alpha_ceil: Fraction


def approx_solution(instance: Instance, k: int) -> ApproxTrace:
    """Run the four-step pipeline; requires the common capacity model,
    ``k >= num_groups``, and no empty groups."""
    validate_instance(instance)
    if instance.capacity_model is not CapacityModel.COMMON:
        raise IndividualizedCapacityUnsupported(
            "per-group guarantees need the common capacity model"
        )
    g = instance.num_groups
    if k < g:
        raise BudgetBelowGroupCount(f"budget {k} is below the group count {g}")
    solos = [instance.isolate_group(gi) for gi in range(g)]
    for gi, solo in enumerate(solos):
        if not solo.agents:
            raise EmptyGroup(f"group {gi} has no agents")
    members = [instance.group_members(gi) for gi in range(g)]
    delta = instance.common_capacity
    split_budget = -(-k // g)

    # Each group is isolated once: its solo optima and every re-application
    # of the rule to its agents read the same integer view.
    grids = [integer_grid(solo) for solo in solos]
    optima = _solo_optima_by_budget(solos, (split_budget, k))
    split_optima = optima[split_budget]
    step1 = [solo.targets for solo in split_optima.per_group]
    spaced, sparse, localized, survivors = [], [], [], []
    for solo, agents, grid in zip(step1, members, grids):
        if delta > 0:
            spread = prune_every_other(solo, delta)
            sparse_set = distant_targets(spread, agents, delta, grid)
        else:
            spread = solo
            sparse_set = solo
        spaced.append(spread)
        sparse.append(sparse_set)
        (rule,) = _apply_rule(agents, sparse_set.levels, grid=grid)
        chosen = rule.chosen.tolist()
        survivors.append(tuple(a for a, j in zip(agents, chosen) if j >= 0))
        # Kept levels are at least 2·delta apart, so the served agents in the
        # window [t - delta, t) are exactly the agents that t serves.
        windows: list[list[Agent]] = [[] for _ in sparse_set.levels]
        for agent, j in zip(agents, chosen):
            if j >= 0:
                windows[j].append(agent)
        localized.append(TargetSet(tuple(
            local_reopt(level, window, delta)
            for level, window in zip(sparse_set.levels, windows)
        )))

    union = TargetSet(tuple(v for ts in localized for v in ts.levels))
    parts = merge_parts(union, delta, g) if union else ()
    final = TargetSet(tuple(p.placed for p in parts))
    assert len(final) <= k

    report = improvement_report(instance, final)
    alpha_k = _worst_ratio(report.group_totals, [s.value for s in optima[k].per_group])
    alpha_ceil = _worst_ratio(report.group_totals, [s.value for s in split_optima.per_group])
    return ApproxTrace(
        instance,
        k,
        split_budget,
        tuple(step1),
        tuple(spaced),
        tuple(sparse),
        tuple(localized),
        tuple(survivors),
        parts,
        final,
        report,
        alpha_k,
        alpha_ceil,
    )


def _worst_ratio(welfare: Sequence[Fraction], solo: Sequence[Fraction]) -> Fraction:
    """Worst over groups of welfare / solo optimum; groups whose solo optimum
    is 0 count as fully served."""
    return min(
        (Fraction(1) if best == 0 else earned / best
         for earned, best in zip(welfare, solo)),
        default=Fraction(1),
    )


def simultaneity_factor(
    instance: Instance, targets: TargetSet, budget: int
) -> Fraction:
    """Worst over groups of (welfare under ``targets``) / (solo optimum at
    ``budget``); groups whose solo optimum is 0 count as fully served."""
    validate_instance(instance)
    report = improvement_report(instance, targets)
    optima = group_optima(instance, budget)
    return _worst_ratio(report.group_totals, [solo.value for solo in optima.per_group])


def best_simultaneous_on_frontier(
    instance: Instance, k: int
) -> tuple[Fraction, FrontierPoint]:
    """Scan the exact frontier for the point with the best simultaneity
    factor at budget ``k``; beats or matches the pipeline's output.

    Each group's solo optimum at budget ``k`` is its largest welfare over the
    frontier: a group's welfare depends on its own agents alone, so some
    frontier point attains what the group earns when solved by itself."""
    points = pareto_frontier(instance, k).points
    solo = [max(welfare) for welfare in zip(*(point.welfare for point in points))]
    return max(
        ((_worst_ratio(point.welfare, solo), point) for point in points),
        key=lambda scored: scored[0],
    )
