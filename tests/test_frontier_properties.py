"""Invariances of the shared frontier DP, checked on small integral instances.

``pareto_frontier`` and ``fptas_max_min`` run the same recursion on exact and
on quantized credits, so each property is checked on both where it applies.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from goalpost import (
    Agent,
    FptasParams,
    Instance,
    brute_force_max_min,
    fptas_max_min,
    improvement_report,
    pareto_frontier,
)


@st.composite
def grouped_instances(draw, zero_capacity_group: bool = False):
    """Integral instance with one capacity per group (what the FPTAS needs)."""
    g = draw(st.integers(1, 3))
    caps = draw(st.lists(st.integers(0, 3), min_size=g, max_size=g))
    if zero_capacity_group:
        caps[draw(st.integers(0, g - 1))] = 0
    members = draw(st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, g - 1)), min_size=1, max_size=5
    ))
    return Instance(tuple(Agent(p, caps[gi], gi) for p, gi in members), g)


def _rebuild(instance, position, capacity, group=lambda gi: gi):
    return Instance(
        tuple(
            Agent(position(a.position), capacity(a.capacity), group(a.group))
            for a in instance.agents
        ),
        instance.num_groups,
    )


def _points(frontier):
    return [(p.welfare, p.targets.levels) for p in frontier.points]


@given(grouped_instances(), st.integers(0, 3), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_relabeling_groups_permutes_the_frontier(inst, k, random):
    perm = list(range(inst.num_groups))
    random.shuffle(perm)
    relabeled = _rebuild(inst, lambda p: p, lambda c: c, lambda gi: perm[gi])
    expected = set()
    for welfare in pareto_frontier(inst, k).welfare_set():
        moved = [F(0)] * inst.num_groups
        for gi, w in enumerate(welfare):
            moved[perm[gi]] = w
        expected.add(tuple(moved))
    assert pareto_frontier(relabeled, k).welfare_set() == expected


@given(grouped_instances(), st.integers(1, 3), st.integers(1, 20))
@settings(max_examples=80, deadline=None)
def test_translation_leaves_frontier_and_fptas_unchanged(inst, k, shift):
    moved = _rebuild(inst, lambda p: p + shift, lambda c: c)

    def shifted(levels: tuple) -> tuple:
        return tuple(level + shift for level in levels)

    before, after = pareto_frontier(inst, k), pareto_frontier(moved, k)
    assert [(w, shifted(t)) for w, t in _points(before)] == _points(after)
    for eps in (F(1, 2), F(1, 10)):
        a, b = fptas_max_min(inst, k, eps), fptas_max_min(moved, k, eps)
        assert (a.value, a.rounded_welfare, a.table_peak) == (
            b.value, b.rounded_welfare, b.table_peak
        )
        assert shifted(a.targets.levels) == b.targets.levels


@given(grouped_instances(), st.integers(0, 3), st.integers(2, 5))
@settings(max_examples=80, deadline=None)
def test_scaling_positions_and_capacities_scales_the_frontier(inst, k, c):
    scaled = _rebuild(inst, lambda p: c * p, lambda cap: c * cap)
    before = [welfare for welfare, _ in _points(pareto_frontier(inst, k))]
    after = [welfare for welfare, _ in _points(pareto_frontier(scaled, k))]
    assert after == [tuple(c * w for w in welfare) for welfare in before]


@given(grouped_instances(zero_capacity_group=True), st.integers(0, 2),
       st.sampled_from([F(1, 2), F(1, 10)]))
@settings(max_examples=60, deadline=None)
def test_fptas_zero_step_group_with_budget_at_least_groups(inst, extra, eps):
    k = inst.num_groups + extra
    params = FptasParams.for_instance(inst, k, eps)
    assert 0 in params.steps
    result = fptas_max_min(inst, k, eps)
    true_welfare = improvement_report(inst, result.targets).group_totals
    assert result.value == min(true_welfare) == brute_force_max_min(inst, k) == 0
    assert len(result.targets) <= k
    for stored, true_w, step in zip(result.rounded_welfare, true_welfare, params.steps):
        if step == 0:
            assert stored == true_w
        else:
            assert 0 <= true_w - stored <= k * step and stored % step == 0
