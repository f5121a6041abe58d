"""Invariances of the shared DPs, checked on small instances.

``pareto_frontier`` and ``fptas_max_min`` run the same recursion on exact and
on quantized credits, so each property is checked on both where it applies.
The welfare solve is the ``n_lb = 0`` layer of the lower-bound DP, so
``max_total_improvement`` and ``max_total_with_min_improvers`` are checked
together, on int64 and on exact object tables.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from goalpost import (
    Agent,
    ContributionTable,
    FptasParams,
    Instance,
    brute_force_max_min,
    fptas_max_min,
    improvement_report,
    max_total_improvement,
    max_total_with_min_improvers,
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


@st.composite
def rational_instances(draw):
    """Individual capacities; positions and capacities may be fractions."""
    positions = st.builds(F, st.integers(0, 12), st.sampled_from([1, 2, 3]))
    members = draw(st.lists(
        st.tuples(positions, st.builds(F, st.integers(0, 4), st.sampled_from([1, 2]))),
        min_size=1, max_size=5,
    ))
    return Instance(tuple(Agent(p, c) for p, c in members), 1)


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


def _solutions(inst, k, table=None):
    """``(value, levels)`` of the welfare solve and of every lower bound."""
    results = [max_total_improvement(inst, k, table=table)]
    results += [
        max_total_with_min_improvers(inst, k, n_lb, table=table)
        for n_lb in range(inst.size + 2)
    ]
    return [None if s is None else (s.value, s.targets.levels) for s in results]


@given(rational_instances(), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_solve_lb_agrees_on_int64_and_object_tables(inst, k):
    int64 = ContributionTable(inst, engine="numpy")
    exact = ContributionTable(inst, engine="python")
    assert int64.credits.dtype != exact.credits.dtype
    assert _solutions(inst, k, int64) == _solutions(inst, k, exact)


@given(rational_instances(), st.integers(0, 3), st.fractions(0, 20))
@settings(max_examples=80, deadline=None)
def test_translation_leaves_solve_and_solve_lb_unchanged(inst, k, shift):
    moved = _rebuild(inst, lambda p: p + shift, lambda c: c)
    expected = [
        None if s is None else (s[0], tuple(t + shift for t in s[1]))
        for s in _solutions(inst, k)
    ]
    assert _solutions(moved, k) == expected


@given(rational_instances(), st.integers(0, 3), st.integers(2, 5))
@settings(max_examples=80, deadline=None)
def test_scaling_scales_solve_and_solve_lb(inst, k, c):
    scaled = _rebuild(inst, lambda p: c * p, lambda cap: c * cap)
    expected = [
        None if s is None else (c * s[0], tuple(c * t for t in s[1]))
        for s in _solutions(inst, k)
    ]
    assert _solutions(scaled, k) == expected
