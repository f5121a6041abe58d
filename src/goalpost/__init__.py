"""Exact and approximate solvers for placing improvement targets on a line.

Agents sit at skill positions and climb to the lowest offered target within
their capacity.  This package finds target placements that maximize total
improvement, trades groups off against each other exactly (Pareto frontier,
max-min), guarantees every group a constant fraction of its solo optimum,
and sizes samples for the learning variant.  All solver arithmetic is exact
rational; every public object is immutable and safe to share across threads.
"""

from .errors import GoalpostError
from .fairness import (
    ApproxTrace,
    approx_solution,
    best_simultaneous_on_frontier,
    distant_targets,
    group_optima,
    group_optima_by_budget,
    local_reopt,
    prune_every_other,
    resolve_interference,
    simultaneity_factor,
)
from .fptas import FptasParams, MaxMinApproximation, fptas_max_min, group_capacities
from .learning import (
    DeviationReport,
    GroupMixture,
    PositionDistribution,
    deviation_experiment,
    empirical_improvement,
    expected_improvement,
    required_samples_groups,
    required_samples_single,
)
from .model import (
    Agent,
    AgentOutcome,
    CapacityModel,
    EMPTY_TARGETS,
    ImprovementReport,
    Instance,
    TargetSet,
    eligible_target,
    improvement_at,
    improvement_report,
    potential_targets,
    rational,
    rational_str,
    validate_instance,
)
from .oracle import (
    brute_force_max_min,
    brute_force_optimum,
    brute_force_pareto,
    iter_candidate_sets,
)
from .pareto import FrontierPoint, ParetoFrontier, max_min_solution, pareto_frontier
from .tables import ContributionTable
from .welfare import (
    BudgetCurve,
    BudgetPoint,
    DpSolution,
    max_total_improvement,
    max_total_with_min_improvers,
    optimal_target_count_sweep,
)

__all__ = [
    "Agent",
    "AgentOutcome",
    "ApproxTrace",
    "BudgetCurve",
    "BudgetPoint",
    "CapacityModel",
    "ContributionTable",
    "DeviationReport",
    "DpSolution",
    "EMPTY_TARGETS",
    "FptasParams",
    "FrontierPoint",
    "GoalpostError",
    "GroupMixture",
    "ImprovementReport",
    "Instance",
    "MaxMinApproximation",
    "ParetoFrontier",
    "PositionDistribution",
    "TargetSet",
    "approx_solution",
    "best_simultaneous_on_frontier",
    "brute_force_max_min",
    "brute_force_optimum",
    "brute_force_pareto",
    "deviation_experiment",
    "distant_targets",
    "eligible_target",
    "empirical_improvement",
    "expected_improvement",
    "fptas_max_min",
    "group_capacities",
    "group_optima",
    "group_optima_by_budget",
    "improvement_at",
    "improvement_report",
    "iter_candidate_sets",
    "local_reopt",
    "max_min_solution",
    "max_total_improvement",
    "max_total_with_min_improvers",
    "optimal_target_count_sweep",
    "pareto_frontier",
    "potential_targets",
    "prune_every_other",
    "rational",
    "rational_str",
    "required_samples_groups",
    "required_samples_single",
    "resolve_interference",
    "simultaneity_factor",
    "validate_instance",
]
