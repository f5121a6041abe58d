"""Invariances of the shared DPs, checked on small instances.

``pareto_frontier`` and ``fptas_max_min`` run the same recursion on exact and
on quantized credits, so each property is checked on both where it applies.
The welfare solve is the ``n_lb = 0`` layer of the lower-bound DP, so
``max_total_improvement`` and ``max_total_with_min_improvers`` are checked
together, on int64 and on exact object tables.  Every solver is also checked
against the brute-force oracle on both engines, and the sweep and the fair
pipeline against the bounds the paper states for them.  The skyline prune
and the back-pointer recursion are checked against the pairwise prune and
the chain-carrying recursion they replaced (``tests/helpers.py``).
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalpost import (
    Agent,
    CapacityModel,
    ContributionTable,
    FptasParams,
    Instance,
    TargetSet,
    approx_solution,
    brute_force_max_min,
    brute_force_optimum,
    brute_force_pareto,
    fptas_max_min,
    improvement_report,
    max_total_improvement,
    max_total_with_min_improvers,
    optimal_target_count_sweep,
    pareto_frontier,
)
from goalpost.fairness import merge_parts
from goalpost.pareto import frontier_dp, prune_dominated
from helpers import chain_frontier_dp, pairwise_prune, random_integral_instance

ENGINES = st.sampled_from(["numpy", "python"])


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


@st.composite
def individual_instances(draw):
    """Integral instance, individual capacities, possibly empty groups."""
    g = draw(st.integers(1, 3))
    members = draw(st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 6), st.integers(0, g - 1)),
        min_size=1, max_size=5,
    ))
    return Instance(tuple(Agent(p, c, gi) for p, c, gi in members), g)


@st.composite
def common_instances(draw):
    """Common capacity (possibly fractional), every group populated."""
    g = draw(st.integers(2, 3))
    capacity = draw(st.builds(F, st.integers(1, 4), st.sampled_from([1, 2])))
    extra = draw(st.lists(st.integers(0, g - 1), max_size=4))
    groups = list(range(g)) + extra
    positions = draw(st.lists(
        st.builds(F, st.integers(0, 16), st.sampled_from([1, 2])),
        min_size=len(groups), max_size=len(groups),
    ))
    agents = tuple(Agent(p, capacity, gi) for p, gi in zip(positions, groups))
    return Instance(agents, g, CapacityModel.COMMON)


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


@given(individual_instances(), st.integers(0, 3), ENGINES)
@settings(max_examples=80, deadline=None)
def test_welfare_and_frontier_agree_with_the_oracle(inst, k, engine):
    table = ContributionTable(inst, engine=engine)
    best = brute_force_optimum(inst, k).value
    assert max_total_improvement(inst, k, table=table).value == best
    frontier = pareto_frontier(inst, k, table=table)
    assert frontier.welfare_set() == brute_force_pareto(inst, k).welfare_set()
    for point in frontier.points:
        assert improvement_report(inst, point.targets).group_totals == point.welfare


@given(grouped_instances(), st.integers(1, 3), st.sampled_from([1, 2**61]))
@settings(max_examples=60, deadline=None)
def test_fptas_on_a_fine_grid_is_the_oracle_max_min(inst, k, c):
    # Scaling by 2**61 (and moving off 0) puts the table on the object engine.
    scaled = _rebuild(inst, lambda p: c * (p + 1), lambda cap: c * cap)
    assert ContributionTable(scaled).engine == ("numpy" if c == 1 else "python")
    # Welfare comes in multiples of c and the optimum is at most c * total,
    # so eps * optimum < c: the (1 - eps) guarantee leaves no room to round.
    total = sum(a.capacity for a in inst.agents)
    result = fptas_max_min(scaled, k, F(1, total + 2))
    assert result.value == brute_force_max_min(scaled, k)
    assert min(improvement_report(scaled, result.targets).group_totals) == result.value


@given(rational_instances(), st.integers(0, 5), ENGINES)
@settings(max_examples=60, deadline=None)
def test_sweep_is_non_decreasing_in_the_budget(inst, k_max, engine):
    curve = optimal_target_count_sweep(inst, k_max,
                                       table=ContributionTable(inst, engine=engine))
    values = [entry.value for entry in curve.entries]
    assert values == sorted(values)
    assert values[min(k_max, 2)] == brute_force_optimum(inst, min(k_max, 2)).value
    assert values[curve.min_k_for_max] == values[-1]


@given(rational_instances(), st.integers(0, 5), ENGINES, st.integers(-3, -1))
@settings(max_examples=60, deadline=None)
def test_every_solver_answers_a_budget_the_same_on_one_table(inst, k_max, engine, minus):
    table = ContributionTable(inst, engine=engine)
    curve = optimal_target_count_sweep(inst, k_max, table=table)
    for k, entry in enumerate(curve.entries):
        solve = max_total_improvement(inst, k, table=table)
        lower = max_total_with_min_improvers(inst, k, 0, table=table)
        assert (entry.value, entry.targets) == (solve.value, solve.targets) == \
            (lower.value, lower.targets)
    for call in (lambda: optimal_target_count_sweep(inst, minus, table=table),
                 lambda: max_total_improvement(inst, minus, table=table),
                 lambda: max_total_with_min_improvers(inst, minus, 0, table=table),
                 lambda: max_total_with_min_improvers(inst, k_max, minus, table=table)):
        with pytest.raises(ValueError):
            call()


@given(common_instances(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_fair_approx_keeps_each_group_a_share_of_its_split_budget_optimum(inst, extra):
    g = inst.num_groups
    k = g + extra
    trace = approx_solution(inst, k)
    split = -(-k // g)
    welfare = improvement_report(inst, trace.targets).group_totals
    for gi in range(g):
        solo = brute_force_optimum(inst.isolate_group(gi), split).value
        assert 16 * g * g * welfare[gi] >= solo
    assert trace.alpha_ceil >= F(1, 16 * g * g)


@given(
    st.lists(st.fractions(0, 20, max_denominator=4), min_size=1, max_size=8),
    st.fractions(F(1, 2), 4, max_denominator=4),
    st.integers(2, 4),
)
@settings(max_examples=100, deadline=None)
def test_step_4_runs_the_window_starts_and_caps_each_run_at_the_next(levels, delta, g):
    union = TargetSet(tuple(levels))
    parts = merge_parts(union, delta, g)
    starts = [part.points for part in parts]
    assert [s for run in starts for s in run] == [level - delta for level in union.levels]
    for run in starts:
        assert all(b - a < delta / g for a, b in zip(run, run[1:]))
    for run, after in zip(starts, starts[1:]):
        assert after[0] - run[-1] >= delta / g
    caps = [after[0] for after in starts[1:]]
    assert [p.placed for p in parts[:-1]] == [
        min(run[0] + delta, cap) for run, cap in zip(starts, caps)]
    assert parts[-1].placed == starts[-1][0] + delta


@st.composite
def keyed_candidates(draw):
    """Tuples of one length 1..5 with payloads.  Few distinct coordinates make
    ties and repeated draws collapse to one key; a draw may also make one
    coordinate equal across all keys, or every coordinate of every key."""
    g = draw(st.integers(1, 5))
    # Four values per coordinate, spread out as far as 2^70 either side.
    spread = draw(st.sampled_from([1, -1, 2**70, -(2**70)]))
    coordinate = st.integers(0, 3).map(lambda v: v * spread)
    keys = draw(st.lists(st.tuples(*[coordinate] * g), max_size=40))
    equal = draw(st.sampled_from(["none", "one", "all"]))
    if keys and equal == "one":
        c = draw(st.integers(0, g - 1))
        keys = [key[:c] + (keys[0][c],) + key[c + 1:] for key in keys]
    elif keys and equal == "all":
        keys = [(keys[0][0],) * g for _ in keys]
    return {key: index for index, key in enumerate(keys)}


@given(keyed_candidates())
@settings(max_examples=300, deadline=None)
def test_skyline_prune_matches_the_pairwise_prune(candidates):
    assert prune_dominated(candidates) == pairwise_prune(candidates)


def test_skyline_prune_matches_the_pairwise_prune_on_seeded_sets():
    # Dense sets over few values, where staircase steps get replaced often.
    rng = random.Random(7)
    for _ in range(4000):
        g = rng.randint(1, 5)
        values = rng.randint(2, 6)
        candidates = {
            tuple(rng.randrange(values) for _ in range(g)): index
            for index in range(rng.randint(0, 50))
        }
        assert prune_dominated(candidates) == pairwise_prune(candidates)


def test_prune_of_nothing_is_empty():
    assert prune_dominated({}) == pairwise_prune({}) == []


def test_back_pointer_frontier_dp_matches_the_chain_recursion():
    """Same root (keys, order and chains) and peak on exact and on coarsely
    quantized credits, where many candidates tie."""
    rng = random.Random(20221018)
    for _ in range(1000):
        inst = random_integral_instance(
            rng, max_agents=10, max_groups=5, max_position=14, max_capacity=5
        )
        table = ContributionTable(inst)
        k = rng.randint(1, 4)
        unit = rng.randint(1, 4)

        def coarse(i, j):
            return tuple(d // unit for d in table.group_credit_scaled(i, j))

        for gain in (table.group_credit_scaled, coarse):
            root, peak = frontier_dp(table, k, gain)
            expected, expected_peak = chain_frontier_dp(table, k, gain)
            assert list(root.items()) == list(expected.items())
            assert peak == expected_peak


def test_back_pointer_frontier_dp_matches_the_chain_recursion_on_long_chains():
    """As above at every budget from 5 to m - 1, where the witness chains
    run through many linked back-pointers."""
    rng = random.Random(20221019)
    budgets = 0
    for _ in range(60):
        inst = random_integral_instance(
            rng, max_agents=8, max_groups=5, max_position=14, max_capacity=5
        )
        table = ContributionTable(inst)
        unit = rng.randint(1, 4)

        def coarse(i, j):
            return tuple(d // unit for d in table.group_credit_scaled(i, j))

        for k in range(5, table.grid_size):
            budgets += 1
            for gain in (table.group_credit_scaled, coarse):
                root, peak = frontier_dp(table, k, gain)
                expected, expected_peak = chain_frontier_dp(table, k, gain)
                assert list(root.items()) == list(expected.items())
                assert peak == expected_peak
    assert budgets >= 100


def _grouped_instance(rng, g, n, max_position, max_capacity, offset=0, unit=1):
    """``n`` agents over ``g`` groups, each group populated, positions and
    capacities whole multiples of ``unit`` (positions shifted by ``offset``)."""
    groups = list(range(g)) + [rng.randrange(g) for _ in range(n - g)]
    return Instance(tuple(
        Agent(offset + unit * rng.randint(0, max_position),
              unit * rng.randint(0, max_capacity), gi)
        for gi in groups
    ), g)


def test_frontier_matches_the_oracle_with_four_to_six_groups():
    # Four or more groups take the guard-bit dominance test.
    rng = random.Random(46)
    for _ in range(60):
        g = rng.randint(4, 6)
        inst = _grouped_instance(rng, g, rng.randint(g, 8), 14, 5)
        k = rng.randint(1, 3)
        frontier = pareto_frontier(inst, k)
        assert frontier.welfare_set() == brute_force_pareto(inst, k).welfare_set()
        assert [p.welfare for p in frontier.points] == sorted(
            p.welfare for p in frontier.points)


def test_skyline_prune_matches_the_pairwise_prune_at_the_guard_bit():
    # Coordinates reach 2^(b-1) - 1 above the least one, the largest value a
    # b-bit field holds below its guard bit, for 6 to 9 coordinates.
    rng = random.Random(69)
    for _ in range(600):
        g = rng.randint(6, 9)
        top = (1 << rng.choice([7, 15, 23, 63, 71])) - 1
        low = rng.choice([0, -top, -(2**70), 2**70])
        values = [low, low + 1, low + top // 2, low + top - 1, low + top]
        candidates = {
            tuple(rng.choice(values) for _ in range(g)): index
            for index in range(rng.randint(1, 40))
        }
        # One key holds the top in every coordinate, one the least.
        candidates.setdefault((low + top,) * g, -1)
        candidates.setdefault((low,) * g, -2)
        assert prune_dominated(candidates) == pairwise_prune(candidates)


def test_back_pointer_frontier_dp_matches_the_chain_recursion_past_64_bits():
    """Positions near 2^62 and capacities up to 6·2^60 make an exact (object)
    table whose welfare fields span more than 64 bits."""
    rng = random.Random(2**62)
    largest = 0
    for _ in range(40):
        g = rng.randint(1, 5)
        inst = _grouped_instance(rng, g, rng.randint(g, 8), 12, 6,
                                 offset=2**62, unit=2**60 + 1)
        table = ContributionTable(inst)
        assert table.engine == "python"
        k = rng.randint(1, 4)
        root, peak = frontier_dp(table, k, table.group_credit_scaled)
        expected, expected_peak = chain_frontier_dp(table, k, table.group_credit_scaled)
        assert list(root.items()) == list(expected.items())
        assert peak == expected_peak
        largest = max(largest, *map(max, root))
    assert largest >= 2**64
