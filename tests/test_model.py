from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalpost import (
    Agent,
    CapacityModel,
    Instance,
    TargetSet,
    brute_force_optimum,
    eligible_target,
    improvement_at,
    improvement_report,
    potential_targets,
    rational,
    validate_instance,
)
from goalpost.model import batch_group_totals, integer_grid
from goalpost.errors import (
    CommonCapacityViolated,
    GroupIndexOutOfRange,
    NegativeCapacity,
    NegativePosition,
)


def test_validate_accepts_minimal_instance():
    inst = Instance((Agent(0, 1, 0),), 1, CapacityModel.COMMON)
    assert validate_instance(inst) is inst


def test_validate_rejects_group_out_of_range():
    inst = Instance((Agent(0, 1, 2),), 2)
    with pytest.raises(GroupIndexOutOfRange):
        validate_instance(inst)


def test_validate_rejects_mixed_common_capacities():
    inst = Instance((Agent(0, 1), Agent(0, 2)), 1, CapacityModel.COMMON)
    with pytest.raises(CommonCapacityViolated):
        validate_instance(inst)


def test_validate_rejects_negative_fields():
    with pytest.raises(NegativePosition):
        validate_instance(Instance((Agent(-1, 1),), 1))
    with pytest.raises(NegativeCapacity):
        validate_instance(Instance((Agent(1, -1),), 1))


@pytest.mark.parametrize(
    "position, capacity, levels, expected",
    [
        (0, 1, (1, 2), F(1)),       # lowest reachable level wins
        (1, 1, (1,), None),          # a level at the position itself is out
        (0, 1, (2,), None),          # beyond capacity
        (F(1, 2), 2, (F(1, 2), 1, F(5, 2)), F(1)),
        (3, 0, (3, 4), None),        # zero capacity cannot clear a strict bound
    ],
)
def test_eligible_target(position, capacity, levels, expected):
    agent = Agent(position, capacity)
    assert eligible_target(agent, TargetSet(levels)) == expected


def test_report_on_interference_union():
    # two groups, capacity 4; the union of each group's solo optima leaves
    # the second group with crumbs: its agents get intercepted 1 short
    inst = Instance.common([4, 12, 7, 15], 4, groups=[0, 0, 1, 1])
    report = improvement_report(inst, TargetSet((8, 11, 16, 19)))
    assert report.group_totals == (F(8), F(2))
    assert report.total == F(10)
    assert report.group_averages == (F(4), F(1))


def test_report_empty_targets_is_all_zero():
    inst = Instance.common([0, 3, 7], 2)
    report = improvement_report(inst, TargetSet(()))
    assert report.total == 0
    assert all(o.chosen_target is None for o in report.per_agent)


def test_adding_a_target_can_reduce_welfare():
    inst = Instance.common([0, 1], 2)
    high = improvement_report(inst, TargetSet((2,))).total
    both = improvement_report(inst, TargetSet((1, 2))).total
    assert high == 3
    assert both == 2


def test_empty_group_average_is_zero():
    inst = Instance((Agent(0, 1, 0),), 2)
    report = improvement_report(inst, TargetSet((1,)))
    assert report.group_totals == (F(1), F(0))
    assert report.group_averages == (F(1), F(0))


@pytest.mark.parametrize(
    "agents, expected",
    [
        ([(0, 1), (1, 1)], ("0", "1", "2")),
        ([(5, 0)], ("5",)),
        ([(0, 1), (F(1, 2), 2)], ("0", "1/2", "1", "5/2")),
    ],
)
def test_potential_targets(agents, expected):
    inst = Instance(tuple(Agent(p, c) for p, c in agents), 1)
    assert tuple(potential_targets(inst).as_strings()) == expected


def test_target_set_merges_duplicates_and_sorts():
    ts = TargetSet((3, 1, 3, "1/2"))
    assert ts.as_strings() == ["1/2", "1", "3"]
    assert len(ts) == 3
    assert (F(1) in ts, 1 in ts, F(2) in ts) == (True, True, False)


level_values = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    st.fractions(min_value=-20, max_value=20, max_denominator=6).map(str),
)


@given(st.lists(level_values, max_size=8), st.sampled_from(["as is", "sorted", "doubled"]))
@settings(max_examples=200, deadline=None)
def test_target_set_normalizes_any_input(values, order):
    if order == "sorted":
        values = sorted(values, key=rational)
    elif order == "doubled":
        values = sorted(values + values, key=rational)
    expected = tuple(sorted(set(map(rational, values))))
    assert TargetSet(tuple(values)).levels == expected
    assert TargetSet(values).levels == expected
    assert TargetSet(expected).levels == expected


small_rationals = st.fractions(
    min_value=0, max_value=8, max_denominator=4
)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 5))
    g = draw(st.integers(1, 3))
    agents = tuple(
        Agent(draw(small_rationals), draw(small_rationals), draw(st.integers(0, g - 1)))
        for _ in range(n)
    )
    return Instance(agents, g)


@st.composite
def target_sets(draw):
    return TargetSet(tuple(draw(st.lists(small_rationals, max_size=5))))


@given(instances(), target_sets())
@settings(max_examples=200, deadline=None)
def test_improvement_bounds_and_minimality(inst, targets):
    report = improvement_report(inst, targets)
    for agent, outcome in zip(inst.agents, report.per_agent):
        assert 0 <= outcome.improvement <= agent.capacity
        if outcome.chosen_target is not None:
            eligible = [
                t for t in targets
                if agent.position < t <= agent.position + agent.capacity
            ]
            assert outcome.chosen_target == min(eligible)
            assert outcome.improvement == outcome.chosen_target - agent.position
        else:
            assert not any(
                agent.position < t <= agent.position + agent.capacity
                for t in targets
            )


@given(instances(), target_sets(), target_sets())
@settings(max_examples=200, deadline=None)
def test_welfare_is_subadditive(inst, first, second):
    union = improvement_report(inst, first.union(second))
    assert union.total <= (
        improvement_report(inst, first).total
        + improvement_report(inst, second).total
    )
    # groupwise too, since the argument is per agent
    for g in range(inst.num_groups):
        assert union.group_totals[g] <= (
            improvement_report(inst, first).group_totals[g]
            + improvement_report(inst, second).group_totals[g]
        )


@given(instances(), target_sets())
@settings(max_examples=100, deadline=None)
def test_grid_restriction_is_lossless(inst, targets):
    # the best grid subset of the same size does at least as well as any
    # freely placed target set
    k = len(targets)
    achieved = improvement_report(inst, targets).total
    assert brute_force_optimum(inst, k).value >= achieved


@st.composite
def lifted_instances(draw):
    """``instances()`` with every position raised by a lift.  A nonzero lift
    puts scaled levels past 2**62, which sends the batch kernel down its
    ``object`` path."""
    inst = draw(instances())
    lift = draw(st.sampled_from([0, 2**62, F(2**70, 2**61 - 1)]))
    agents = tuple(Agent(a.position + lift, a.capacity, a.group) for a in inst.agents)
    return Instance(agents, inst.num_groups), lift


@given(lifted_instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_batch_kernel_rows_are_scaled_reports(lifted, data):
    inst, lift = lifted
    grid = integer_grid(inst)
    m = len(grid.levels)
    size = data.draw(st.integers(0, min(m, 3)))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=size, max_size=size, unique=True)
        .map(sorted),
        min_size=1, max_size=6,
    ))
    sets = np.array(rows, np.intp).reshape(len(rows), size)
    totals = batch_group_totals(inst, grid, sets)
    assert totals.dtype == (object if lift else np.int64)
    assert totals.shape == (len(rows), inst.num_groups)
    levels = potential_targets(inst).levels
    for row, got in zip(rows, totals.tolist()):
        report = improvement_report(inst, TargetSet(tuple(levels[j] for j in row)))
        assert got == [total * grid.scale for total in report.group_totals]


@given(lifted_instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_batch_kernel_rows_match_the_scalar_rule(lifted, data):
    """Each row of the kernel is the scalar rule applied agent by agent,
    summed per group and scaled, on both the int64 and the object path."""
    inst, lift = lifted
    grid = integer_grid(inst)
    m = len(grid.levels)
    size = data.draw(st.integers(0, min(m, 3)))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=size, max_size=size, unique=True)
        .map(sorted),
        min_size=1, max_size=6,
    ))
    sets = np.array(rows, np.intp).reshape(len(rows), size)
    totals = batch_group_totals(inst, grid, sets)
    assert totals.dtype == (object if lift else np.int64)
    levels = potential_targets(inst).levels
    for row, got in zip(rows, totals.tolist()):
        targets = TargetSet(tuple(levels[j] for j in row))
        expected = [F(0)] * inst.num_groups
        for a in inst.agents:
            expected[a.group] += improvement_at(a.position, a.capacity, targets)
        assert got == [total * grid.scale for total in expected]
