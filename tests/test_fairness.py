import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalpost import (
    Agent,
    CapacityModel,
    Instance,
    TargetSet,
    approx_solution,
    best_simultaneous_on_frontier,
    brute_force_optimum,
    distant_targets,
    group_optima,
    improvement_at,
    improvement_report,
    local_reopt,
    max_total_improvement,
    pareto_frontier,
    prune_every_other,
    resolve_interference,
    simultaneity_factor,
)
from goalpost.errors import (
    BudgetBelowGroupCount,
    EmptyGroup,
    IndividualizedCapacityUnsupported,
    SpacingPreconditionViolated,
)
from goalpost import fairness
from goalpost.fairness import merge_parts
from helpers import random_common_instance, random_integral_instance

# two groups, capacity 4: each group's solo targets sit 1 above the other
# group's agents, so the naive union starves group 1
INTERFERENCE = Instance.common([4, 12, 7, 15], 4, groups=[0, 0, 1, 1])


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# -- step helpers ------------------------------------------------------------


@pytest.mark.parametrize(
    "levels, delta, expected",
    [
        ((0, F(1, 2), F(9, 10)), 1, ("0", "9/10")),
        ((1, 2, 3), 1, ("1", "2", "3")),
        ((1, 2, 3), F(5, 2), ("1", "3")),
    ],
)
def test_prune_every_other(levels, delta, expected):
    result = prune_every_other(TargetSet(levels), delta)
    assert tuple(result.as_strings()) == expected
    out = result.levels
    assert all(out[i + 2] - out[i] >= delta for i in range(len(out) - 2))


def test_prune_never_lowers_single_group_welfare(rng):
    for _ in range(40):
        inst = random_common_instance(rng, 1)
        delta = inst.common_capacity
        raw = max_total_improvement(inst, rng.randint(1, 4)).targets
        pruned = prune_every_other(raw, delta)
        assert improvement_report(inst, pruned).total >= \
            improvement_report(inst, raw).total


def test_distant_targets_single_level_passes_through():
    ts = TargetSet((5,))
    assert distant_targets(ts, [Agent(4, 1)], 1) == ts


def test_distant_targets_keeps_heaviest_part():
    # four levels, one reacher each, improvements 5,1,1,1
    agents = [Agent(5, 8), Agent(19, 8), Agent(29, 8), Agent(39, 8)]
    kept = distant_targets(TargetSet((10, 20, 30, 40)), agents, 8)
    assert kept == TargetSet((10,))


def test_distant_targets_five_levels_partition():
    # parts are {t1,t5},{t2},{t3},{t4}; the wrap-around part wins here
    agents = [Agent(9, 10), Agent(49, 10)]
    kept = distant_targets(TargetSet((10, 20, 30, 40, 50)), agents, 10)
    assert kept == TargetSet((10, 50))


def test_distant_targets_enforces_precondition():
    with pytest.raises(SpacingPreconditionViolated):
        distant_targets(TargetSet((0, 1, 2)), [], 5)


def test_distant_targets_spacing_and_quarter_welfare(rng):
    for _ in range(40):
        inst = random_common_instance(rng, 1)
        delta = inst.common_capacity
        agents = list(inst.agents)
        raw = prune_every_other(
            max_total_improvement(inst, rng.randint(1, 5)).targets, delta
        )
        kept = distant_targets(raw, agents, delta)
        out = kept.levels
        assert all(out[i + 1] - out[i] >= 2 * delta for i in range(len(out) - 1))
        assert len(kept) <= max(1, ceil_div(len(raw), 4))
        assert 4 * improvement_report(inst, kept).total >= \
            improvement_report(inst, raw).total


@pytest.mark.parametrize(
    "tau, agents, delta, expected",
    [
        (F(8), [Agent(4, 4)], F(4), F(8)),
        (F(10), [Agent(7, 3), Agent(7, 3)], F(3), F(10)),
        (F(4), [Agent(3, 1), Agent(F(39, 10), 1)], F(1), F(4)),
    ],
)
def test_local_reopt(tau, agents, delta, expected):
    assert local_reopt(tau, agents, delta) == expected


def test_local_reopt_empty_window_keeps_level():
    assert local_reopt(F(7), [], F(2)) == 7


def test_local_reopt_rejects_agents_outside_window():
    with pytest.raises(ValueError):
        local_reopt(F(4), [Agent(4, 1)], F(1))


def test_local_reopt_lands_in_upper_window(rng):
    for _ in range(60):
        delta = F(rng.randint(1, 4))
        tau = F(rng.randint(4, 12))
        agents = [
            Agent(tau - delta + F(rng.randint(0, 7), 8) * delta, delta)
            for _ in range(rng.randint(1, 5))
        ]
        agents = [a for a in agents if a.position < tau]
        if not agents:
            continue
        out = local_reopt(tau, agents, delta)
        assert tau <= out <= tau + delta
        # optimal single level for the window agents
        window_inst = Instance(tuple(agents), 1, CapacityModel.COMMON)
        assert sum(
            (improvement_at(a.position, delta, TargetSet((out,))) for a in agents),
            F(0),
        ) == max_total_improvement(window_inst, 1).value


@pytest.mark.parametrize(
    "levels, delta, g, expected",
    [
        ((8, 11), 4, 2, ("7", "11")),
        ((9,), 4, 2, ("9",)),
        ((8, 10), 4, 2, ("6", "10")),
    ],
)
def test_resolve_interference(levels, delta, g, expected):
    out = resolve_interference(TargetSet(levels), F(delta), g)
    assert tuple(out.as_strings()) == expected


def test_resolve_interference_window_properties(rng):
    for _ in range(60):
        g = rng.randint(2, 3)
        delta = F(rng.randint(1, 4))
        levels = sorted(
            {F(rng.randint(0, 40), rng.choice([1, 2])) for _ in range(rng.randint(1, 6))}
        )
        union = TargetSet(tuple(levels))
        out = resolve_interference(union, delta, g)
        for tau in union.levels:
            low = tau - delta + delta / g
            assert any(low <= t <= tau for t in out.levels), (union, out, tau)
            assert not any(tau - delta < t < low for t in out.levels)


# -- full pipeline -----------------------------------------------------------


def test_pipeline_on_interference_instance():
    trace = approx_solution(INTERFERENCE, 2)
    assert trace.targets == TargetSet((7, 11))
    assert trace.report.group_totals == (F(3), F(4))
    assert trace.alpha_k == F(3, 8)
    assert trace.alpha_k >= F(1, 16 * 2**3)
    # step snapshots: each group's solo optimum picked one target
    assert trace.step1_isolated == (TargetSet((8,)), TargetSet((11,)))
    assert trace.step3_localized == (TargetSet((8,)), TargetSet((11,)))


def test_pipeline_with_zero_capacity_places_nothing():
    # Nobody can move: no group earns anything alone, so no step keeps a
    # target and every group is fully served by the empty set.
    inst = Instance.common([0, 3, F(1, 2), 5, 2], 0, groups=[0, 1, 1, 2, 0])
    trace = approx_solution(inst, 4)
    assert trace.targets == TargetSet(())
    assert trace.alpha_k == trace.alpha_ceil == 1
    for step in (trace.step1_isolated, trace.step1_spaced, trace.step2_sparse,
                 trace.step3_localized):
        assert step == (TargetSet(()),) * 3
    assert trace.survivors == ((), (), ())
    assert trace.step4_parts == ()


def test_pipeline_rejects_individualized_capacities():
    inst = Instance((Agent(0, F(1, 10), 0), Agent(0, 1, 1)), 2)
    with pytest.raises(IndividualizedCapacityUnsupported):
        approx_solution(inst, 2)


def test_pipeline_rejects_budget_below_group_count():
    with pytest.raises(BudgetBelowGroupCount):
        approx_solution(INTERFERENCE, 1)


def test_pipeline_rejects_empty_groups():
    inst = Instance((Agent(0, 1, 0),), 2, CapacityModel.COMMON)
    with pytest.raises(EmptyGroup):
        approx_solution(inst, 2)


def test_the_lowest_empty_group_is_named_before_any_group_is_isolated(monkeypatch):
    isolate = Instance.isolate_group
    calls = []

    def counted(self, group):
        calls.append(group)
        if len(calls) > 100:
            raise AssertionError("groups were isolated past the first empty one")
        return isolate(self, group)

    monkeypatch.setattr(Instance, "isolate_group", counted)
    # Ten agents in groups 0..9 of 10^9: group 10 is the lowest empty one.
    inst = Instance.common([3 * i for i in range(10)], 4, groups=range(10))
    wide = Instance(inst.agents, 10**9, CapacityModel.COMMON)
    with pytest.raises(EmptyGroup, match="^group 10 has no agents$"):
        approx_solution(wide, 10**9)
    gap = Instance.common([0, 5, 9], 4, groups=[0, 2, 4])
    with pytest.raises(EmptyGroup, match="^group 1 has no agents$"):
        approx_solution(gap, 5)


def test_pipeline_single_group_keeps_a_sixteenth(rng):
    for _ in range(25):
        inst = random_common_instance(rng, 1)
        k = rng.randint(1, 4)
        trace = approx_solution(inst, k)
        assert 16 * trace.report.total >= brute_force_optimum(inst, k).value


def test_pipeline_guarantees_on_random_instances(rng):
    for _ in range(60):
        g = rng.choice([2, 3])
        inst = random_common_instance(rng, g)
        k = rng.randint(g, 6)
        trace = approx_solution(inst, k)
        assert len(trace.targets) <= k
        split = ceil_div(k, g)
        for gi in range(g):
            solo = inst.isolate_group(gi)
            sw = trace.report.group_totals[gi]
            assert 16 * g * g * sw >= max_total_improvement(solo, split).value
            assert 16 * g**3 * sw >= max_total_improvement(solo, k).value
        for part in trace.step4_parts:
            assert len(part.points) <= g


def test_left_mass_of_single_target_optima(rng):
    # For an optimal window target, comparing against the same target shifted
    # up by x*delta forces a share of at least x/(1+x) of the window's agents
    # below every offset x.  (The plain x bound does not hold; see the pinned
    # counterexample below.)
    for _ in range(40):
        inst = random_common_instance(rng, rng.choice([2, 3]))
        k = rng.randint(inst.num_groups, 6)
        trace = approx_solution(inst, k)
        delta = inst.common_capacity
        for gi, localized in enumerate(trace.step3_localized):
            survivors = trace.survivors[gi]
            for tau in localized.levels:
                window = [
                    a for a in survivors if tau - delta <= a.position < tau
                ]
                if not window:
                    continue
                offsets = sorted(
                    (a.position - (tau - delta)) / delta for a in window
                )
                for cut in offsets:
                    below = sum(1 for o in offsets if o < cut)
                    assert F(below, len(window)) >= cut / (1 + cut)


def test_left_mass_share_can_fall_below_the_offset():
    # pinned counterexample: 13 is the unique optimal target for agents at
    # 10 and 12 with capacity 3, yet only half of them sit below offset 2/3
    agents = [Agent(10, 3), Agent(12, 3)]
    assert local_reopt(F(13), agents, F(3)) == 13
    window_values = {
        t: sum(
            (improvement_at(a.position, F(3), TargetSet((F(t),))) for a in agents),
            F(0),
        )
        for t in (10, 12, 13, 15)
    }
    assert window_values[13] == 4 == max(window_values.values())
    cut = F(2, 3)
    below = sum(1 for a in agents if (a.position - 10) < cut * 3)
    assert F(below, len(agents)) == F(1, 2) < cut
    assert F(below, len(agents)) >= cut / (1 + cut)


def test_relocating_an_optimal_target_keeps_quadratic_share(rng):
    for _ in range(25):
        inst = random_common_instance(rng, 2)
        trace = approx_solution(inst, rng.randint(2, 5))
        delta = inst.common_capacity
        for gi, localized in enumerate(trace.step3_localized):
            survivors = trace.survivors[gi]
            for tau in localized.levels:
                window = [
                    a for a in survivors if tau - delta <= a.position < tau
                ]
                if not window:
                    continue
                optimum = sum(
                    (improvement_at(a.position, delta, TargetSet((tau,)))
                     for a in window),
                    F(0),
                )
                for x in (F(1, 4), F(1, 2), F(1)):
                    for spot in (tau - delta + x * delta, tau):
                        moved = sum(
                            (improvement_at(a.position, delta, TargetSet((spot,)))
                             for a in window),
                            F(0),
                        )
                        assert 4 * moved >= x * x * optimum


def test_merge_parts_partitions_all_window_starts():
    parts = merge_parts(TargetSet((8, 10, 11)), F(4), 2)
    assert [p.points for p in parts] == [(F(4),), (F(6), F(7))]
    assert [p.placed for p in parts] == [F(6), F(10)]


# -- factor metrics ----------------------------------------------------------


def test_simultaneity_factor_examples():
    assert simultaneity_factor(INTERFERENCE, TargetSet((7, 11)), 2) == F(3, 8)
    solo = Instance.common([0, 1, 5], 2)
    best = max_total_improvement(solo, 2).targets
    assert simultaneity_factor(solo, best, 2) == 1
    assert simultaneity_factor(INTERFERENCE, TargetSet(()), 2) == 0


def test_group_optima_matches_isolated_solves():
    optima = group_optima(INTERFERENCE, 2)
    assert [s.value for s in optima.per_group] == [F(8), F(8)]


def test_best_on_frontier_dominates_pipeline():
    alpha, point = best_simultaneous_on_frontier(INTERFERENCE, 2)
    assert alpha >= F(3, 8)
    assert alpha == simultaneity_factor(INTERFERENCE, point.targets, 2)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), k=st.integers(0, 4))
def test_each_group_optimum_is_its_largest_frontier_coordinate(seed, k):
    # A group's welfare depends on its own agents alone, so the frontier
    # holds a point where that group earns its solo optimum.
    inst = random_integral_instance(random.Random(seed), max_groups=4)
    points = pareto_frontier(inst, k).points
    optima = group_optima(inst, k)
    for g in range(inst.num_groups):
        assert max(p.welfare[g] for p in points) == optima.per_group[g].value, g


def test_best_on_frontier_solves_no_group_alone(monkeypatch):
    def refuse(*args):
        raise AssertionError("a group was solved alone")

    monkeypatch.setattr(fairness, "_solo_optima_by_budget", refuse)
    alpha, point = best_simultaneous_on_frontier(INTERFERENCE, 2)
    assert (alpha, point.welfare) == (F(1, 2), (F(4), F(5)))


def test_best_on_frontier_single_group_is_exact():
    inst = Instance.common([0, 2, 9], 3)
    alpha, _ = best_simultaneous_on_frontier(inst, 2)
    assert alpha == 1


def test_lower_bound_wall_scaled():
    # two groups at 0 and 1 with capacity 2: max-min cannot exceed half the
    # capacity, and the frontier scan confirms it at every budget
    from goalpost import brute_force_max_min

    inst = Instance((Agent(0, 2, 0), Agent(1, 2, 1)), 2, CapacityModel.COMMON)
    for k in (1, 2, 4):
        assert brute_force_max_min(inst, k) == 1
