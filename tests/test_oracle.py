import tracemalloc
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalpost import (
    Agent,
    CapacityModel,
    Instance,
    TargetSet,
    brute_force_max_min,
    brute_force_optimum,
    brute_force_pareto,
    GroupMixture,
    PositionDistribution,
    deviation_experiment,
    improvement_report,
    iter_candidate_sets,
    potential_targets,
)
from goalpost import model, oracle
from goalpost.errors import ParameterOutOfRange, SearchSpaceTooLarge
from goalpost.model import integer_grid
from helpers import random_integral_instance


def test_two_agents_two_targets():
    inst = Instance.common([0, 1], 1)
    assert brute_force_optimum(inst, 2).value == 2
    assert brute_force_optimum(inst, 0).value == 0


def test_cluster_instance_value():
    inst = Instance.common([F(0), F(1), F(3, 2), F(3, 2)], 1)
    assert brute_force_optimum(inst, 3).value == F(7, 2)


def test_pareto_two_group_and_degenerate_cases():
    two = Instance((Agent(0, 2, 0), Agent(1, 2, 1)), 2, CapacityModel.COMMON)
    assert brute_force_pareto(two, 1).welfare_set() == {(F(2), F(1)), (F(0), F(2))}
    single = Instance.common([0, 4], 1)
    assert len(brute_force_pareto(single, 2).points) == 1
    assert brute_force_pareto(two, 0).welfare_set() == {(F(0), F(0))}


def test_max_min_small_cases():
    two = Instance((Agent(0, 2, 0), Agent(1, 2, 1)), 2, CapacityModel.COMMON)
    assert brute_force_max_min(two, 1) == 1
    lone = Instance((Agent(3, F(5, 2)),), 1)
    assert brute_force_max_min(lone, 1) == F(5, 2)
    assert brute_force_max_min(Instance((), 1), 2) == 0


def test_enumeration_cap_is_enforced(monkeypatch):
    inst = Instance.common(list(range(10)), 1)
    monkeypatch.setenv("GOALPOST_MAX_SUBSETS", "10")
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_optimum(inst, 5)


def test_caps_refuse_before_any_set_is_evaluated(monkeypatch):
    def evaluated(*args):
        raise AssertionError("a set was evaluated past the cap")

    monkeypatch.setattr(oracle, "batch_group_totals", evaluated)
    inst = Instance.common(list(range(10)), 1)
    monkeypatch.setenv("GOALPOST_MAX_SUBSETS", "10")
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_optimum(inst, 5)
    with pytest.raises(SearchSpaceTooLarge):
        oracle.max_min_witness(inst, 5)
    dist = PositionDistribution(((F(0), F(1, 2)), (F(1), F(1, 2))), F(1))
    monkeypatch.setenv("GOALPOST_MAX_SUBSETS", "2")
    with pytest.raises(SearchSpaceTooLarge):
        deviation_experiment(dist, 2, F(1, 2), F(1, 2), 3, 0)
    monkeypatch.setenv("GOALPOST_MAX_SUBSETS", "3")
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_pareto(inst, 2)
    with pytest.raises(SearchSpaceTooLarge):
        deviation_experiment(GroupMixture(((F(1), dist),)), 2, F(1, 2), F(1, 2), 3, 0)


def test_cap_override_via_environment(monkeypatch):
    inst = Instance.common(list(range(4)), 1)
    monkeypatch.setenv("GOALPOST_MAX_SUBSETS", "3")
    with pytest.raises(SearchSpaceTooLarge):
        list(iter_candidate_sets(inst, 2))
    monkeypatch.delenv("GOALPOST_MAX_SUBSETS")
    assert list(iter_candidate_sets(inst, 2))


def test_cap_must_be_a_non_negative_integer(monkeypatch):
    inst = Instance.common([0, 1], 1)
    monkeypatch.setenv("GOALPOST_MAX_SUBSETS", "-1")
    with pytest.raises(ParameterOutOfRange):
        brute_force_optimum(inst, 1)
    for value in ("abc", "-5", "2.5"):
        monkeypatch.setenv("GOALPOST_MAX_SUBSETS", value)
        with pytest.raises(ParameterOutOfRange):
            list(iter_candidate_sets(inst, 1))
    monkeypatch.setenv("GOALPOST_MAX_SUBSETS", "0")
    with pytest.raises(SearchSpaceTooLarge):
        list(iter_candidate_sets(inst, 1))


def test_candidate_sets_cover_all_sizes():
    inst = Instance.common([0, 1], 1)  # grid {0, 1, 2}
    sets = list(iter_candidate_sets(inst, 2))
    assert len(sets) == 1 + 3 + 3
    assert sets[0] == TargetSet(())


def test_off_grid_placements_never_beat_the_grid_optimum(rng):
    # enumerate a finer rational lattice and confirm the grid optimum stands
    for _ in range(20):
        inst = random_integral_instance(rng, max_agents=3, max_position=3,
                                        max_capacity=2)
        k = rng.randint(1, 2)
        top = max(a.reach for a in inst.agents) + 1
        lattice = [F(num, 2) for num in range(int(2 * top) + 1)]
        best_off_grid = F(0)
        for size in range(1, k + 1):
            for subset in combinations(lattice, size):
                value = improvement_report(inst, TargetSet(subset)).total
                best_off_grid = max(best_off_grid, value)
        assert brute_force_optimum(inst, k).value >= best_off_grid


def test_enumeration_memory_does_not_grow_with_the_subset_count():
    # 40 levels and k = 4: 102,091 subsets.  Evaluated in one batch, a single
    # (subsets, agents) int64 array would take 16 MB.
    inst = Instance(tuple(Agent(2 * i, 1) for i in range(20)), 1)
    tracemalloc.start()
    try:
        value = brute_force_optimum(inst, 4).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 4
    assert peak < 4 * 2**20


def test_chunks_of_many_groups_stay_within_the_cell_budget():
    # 10 agents and 10^5 groups: a chunk sized by the agents alone would
    # hold 819 rows of 10^5 group totals.
    g = 10**5
    inst = Instance(tuple(Agent(3 * i, 4, i) for i in range(10)), g)
    grid = integer_grid(inst)
    chunks = list(oracle.evaluated_subsets(inst, grid, 1))
    assert sum(len(sets) for sets, _ in chunks) == 1 + len(grid.levels)
    for sets, totals in chunks:
        assert totals.shape == (len(sets), g)
        # One row is the least a chunk can hold.
        assert totals.size <= max(oracle._CHUNK_CELLS, g)


positions = st.fractions(min_value=0, max_value=8, max_denominator=3)


@st.composite
def oracle_instances(draw):
    """Small rational instances, some lifted past 2**62 (the ``object`` path)."""
    g = draw(st.integers(1, 3))
    lift = draw(st.sampled_from([0, 0, 2**62, F(2**70, 2**61 - 1)]))
    members = draw(st.lists(
        st.tuples(positions, st.fractions(0, 3, max_denominator=2), st.integers(0, g - 1)),
        max_size=5,
    ))
    return Instance(tuple(Agent(p + lift, c, gi) for p, c, gi in members), g)


def _first_best(reports, score):
    best, witness = F(0), TargetSet(())
    for targets, report in reports:
        if score(report) > best:
            best, witness = score(report), targets
    return best, witness


@given(oracle_instances(), st.integers(0, 3))
@settings(max_examples=120, deadline=None)
def test_oracle_matches_a_per_set_report_loop(inst, k):
    levels = potential_targets(inst).levels
    reports = [
        (TargetSet(subset), improvement_report(inst, TargetSet(subset)))
        for size in range(min(k, len(levels)) + 1)
        for subset in combinations(levels, size)
    ]
    value, targets = _first_best(reports, lambda r: r.total)
    solution = brute_force_optimum(inst, k)
    assert (solution.value, solution.targets) == (value, targets)
    assert oracle.max_min_witness(inst, k) == _first_best(
        reports, lambda r: min(r.group_totals)
    )
    first: dict = {}
    for targets, report in reports:
        first.setdefault(report.group_totals, targets)
    expected = sorted(
        (welfare, targets) for welfare, targets in first.items()
        if not any(other != welfare and all(o >= w for o, w in zip(other, welfare))
                   for other in first)
    )
    frontier = brute_force_pareto(inst, k)
    assert [(p.welfare, p.targets) for p in frontier.points] == expected


@st.composite
def many_group_instances(draw):
    """A few agents over up to 10^5 groups, so most groups are empty."""
    g = draw(st.integers(1, 10**5))
    members = draw(st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 3), st.integers(0, g - 1)),
        max_size=4,
    ))
    return Instance(tuple(Agent(p, c, gi) for p, c, gi in members), g)


@given(many_group_instances(), st.integers(0, 2), st.sampled_from([64, 10**5, 10**7]))
@settings(max_examples=40, deadline=None)
def test_the_oracle_answers_or_refuses_many_groups_within_memory(inst, k, have):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_physical_memory", lambda: have)
        for search in (brute_force_optimum, oracle.max_min_witness, brute_force_pareto):
            try:
                search(inst, k)
            except SearchSpaceTooLarge:
                pass
