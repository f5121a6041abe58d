import gc
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from goalpost import (
    Agent,
    CapacityModel,
    Instance,
    TargetSet,
    brute_force_max_min,
    brute_force_pareto,
    improvement_report,
    max_min_solution,
    max_total_improvement,
    pareto_frontier,
    simultaneity_factor,
)
from goalpost.errors import NonIntegralInstance
from goalpost.tables import ContributionTable
from helpers import random_integral_instance

TWO_GROUPS = Instance((Agent(0, 2, 0), Agent(1, 2, 1)), 2, CapacityModel.COMMON)


def test_two_group_frontier():
    frontier = pareto_frontier(TWO_GROUPS, 1)
    assert frontier.welfare_set() == {(F(0), F(2)), (F(2), F(1))}
    by_welfare = {p.welfare: p.targets for p in frontier.points}
    assert by_welfare[(F(2), F(1))] == TargetSet((2,))
    assert by_welfare[(F(0), F(2))] == TargetSet((3,))


def test_single_group_frontier_is_the_optimum():
    inst = Instance.common([0, 1, 5], 2)
    frontier = pareto_frontier(inst, 2)
    assert len(frontier.points) == 1
    assert frontier.points[0].welfare == (max_total_improvement(inst, 2).value,)


def test_zero_budget_frontier():
    frontier = pareto_frontier(TWO_GROUPS, 0)
    assert frontier.welfare_set() == {(F(0), F(0))}
    assert frontier.points[0].targets == TargetSet(())


def test_rejects_non_integral_instances():
    inst = Instance((Agent(F(1, 2), 1, 0),), 1)
    with pytest.raises(NonIntegralInstance):
        pareto_frontier(inst, 1)
    with pytest.raises(NonIntegralInstance):
        max_min_solution(inst, 1)


def test_frontier_matches_oracle(rng):
    for _ in range(80):
        inst = random_integral_instance(rng)
        k = rng.randint(0, 3)
        frontier = pareto_frontier(inst, k)
        oracle = brute_force_pareto(inst, k)
        assert frontier.welfare_set() == oracle.welfare_set()
        # points sorted, achievable, within budget
        assert [p.welfare for p in frontier.points] == sorted(
            p.welfare for p in frontier.points
        )
        for point in frontier.points:
            assert len(point.targets) <= k
            assert improvement_report(inst, point.targets).group_totals == \
                point.welfare


def test_every_achievable_tuple_is_dominated_by_the_frontier(rng):
    from goalpost import iter_candidate_sets

    for _ in range(15):
        inst = random_integral_instance(rng, max_agents=5)
        k = rng.randint(0, 2)
        frontier = pareto_frontier(inst, k).welfare_set()
        for targets in iter_candidate_sets(inst, k):
            welfare = improvement_report(inst, targets).group_totals
            assert any(
                all(f >= w for f, w in zip(front, welfare)) for front in frontier
            )


def test_max_min_two_groups():
    value, point = max_min_solution(TWO_GROUPS, 1)
    assert value == 1
    assert point.welfare == (F(2), F(1))


def test_max_min_single_group_equals_optimum():
    inst = Instance.common([0, 1, 5], 2)
    value, _ = max_min_solution(inst, 2)
    assert value == max_total_improvement(inst, 2).value


def test_max_min_matches_oracle_and_grows_with_budget(rng):
    for _ in range(40):
        inst = random_integral_instance(rng)
        last = None
        for k in range(4):
            value, point = max_min_solution(inst, k)
            assert value == brute_force_max_min(inst, k)
            assert min(point.welfare) == value
            if last is not None:
                assert value >= last
            last = value


def test_no_placement_serves_both_groups_beyond_the_wall():
    # one agent per group at 0 and 1, capacity 2: any level low enough to let
    # the second agent pass 1 also intercepts it, so min welfare caps at 1
    value, _ = max_min_solution(TWO_GROUPS, 4)
    assert value == 1
    assert brute_force_max_min(TWO_GROUPS, 4) == 1


def max_min_starves_group_b_family() -> Instance:
    """Two groups, capacity 3: group A spread at 3,6,...,18, group B bundled
    at 19 and 22 (three agents each).  Even-handed placements must sit low,
    which costs group B nearly all of its solo optimum."""
    positions = [3, 6, 9, 12, 15, 18] + [19] * 3 + [22] * 3
    groups = [0] * 6 + [1] * 6
    return Instance.common(positions, 3, groups=groups)


def test_max_min_is_not_simultaneously_near_optimal():
    inst = max_min_starves_group_b_family()
    k = 2
    value, point = max_min_solution(inst, k)
    assert value == 6
    maxmin_alpha = simultaneity_factor(inst, point.targets, k)
    frontier = pareto_frontier(inst, k)
    best_alpha = max(
        simultaneity_factor(inst, p.targets, k) for p in frontier.points
    )
    assert maxmin_alpha == F(1, 3)
    assert best_alpha == F(1, 2)
    assert maxmin_alpha < best_alpha


def _one_agent_per_group(g: int) -> Instance:
    return Instance(tuple(Agent(3 * i, 4, i) for i in range(g)), g)


def test_frontier_tuples_past_physical_memory_are_refused(monkeypatch):
    from goalpost import fptas_max_min, pareto
    from goalpost.errors import SearchSpaceTooLarge

    inst = _one_agent_per_group(10)
    # The gains fit in 10,000 bytes; the states the budgets need do not.
    monkeypatch.setattr(pareto, "_physical_memory", lambda: 10_000)
    with pytest.raises(SearchSpaceTooLarge, match="10000 bytes"):
        pareto_frontier(inst, 3)
    with pytest.raises(SearchSpaceTooLarge, match="10000 bytes"):
        fptas_max_min(inst, 10, F(1, 2))
    monkeypatch.setattr(pareto, "_physical_memory", lambda: 64)
    with pytest.raises(SearchSpaceTooLarge, match="welfare tuples"):
        pareto_frontier(inst, 1)
    monkeypatch.setattr(pareto, "_physical_memory", lambda: None)
    assert len(pareto_frontier(inst, 3).points) > 1


def test_a_failed_frontier_allocation_is_refused(monkeypatch):
    from goalpost import pareto
    from goalpost.errors import SearchSpaceTooLarge

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(pareto, "_pruned", exhausted)
    with pytest.raises(SearchSpaceTooLarge, match="ran out of memory"):
        pareto_frontier(_one_agent_per_group(3), 2)


def test_a_zero_budget_frontier_packs_gains_wider_than_a_byte():
    # No layer runs at k = 0, but the gains read are still packed: the
    # fields must hold them (four groups pack through bytes).
    for g in (2, 3, 4):
        inst = Instance((Agent(0, 1000, 0), Agent(5, 300, g - 1)), g)
        frontier = pareto_frontier(inst, 0)
        assert [p.welfare for p in frontier.points] == [(0,) * g]


def test_frontier_dp_holds_less_than_the_need_it_counts(monkeypatch):
    from goalpost import pareto

    needs = []
    check = pareto.check_memory

    def counted(need, what, have):
        needs.append(need)
        check(need, what, have)

    monkeypatch.setattr(pareto, "check_memory", counted)
    rng = random.Random(12)
    # One group: the band's gains are most of what is held.
    cases = [(1, 400, 4000, 20, 2)] + [(g, 5 * g + 5, 30 * g, 8, 2 + (g < 4))
                                        for g in range(1, 6)]
    for g, n, max_position, max_capacity, k in cases:
        inst = Instance(tuple(
            Agent(rng.randint(0, max_position), rng.randint(1, max_capacity), i % g)
            for i in range(n)), g)
        table = ContributionTable(inst)
        needs.clear()
        tracemalloc.start()
        try:
            pareto.frontier_dp(table, k, table.group_credit_scaled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < max(needs)


def test_the_frontier_states_past_physical_memory_are_refused(monkeypatch):
    from goalpost import pareto
    from goalpost.errors import SearchSpaceTooLarge

    needs = []
    check = pareto.check_memory

    def counted(need, what, have):
        needs.append(need)
        check(need, what, have)

    monkeypatch.setattr(pareto, "check_memory", counted)
    inst = _one_agent_per_group(10)
    frontier = pareto_frontier(inst, 3)
    # The gains as read, then with their packed keys: the needs before the
    # first layer.  The states of the layers need more.
    gains = max(needs[:2])
    assert max(needs[2:-1]) > gains
    monkeypatch.setattr(pareto, "_physical_memory", lambda: gains)
    needs.clear()
    with pytest.raises(SearchSpaceTooLarge, match="welfare tuples needs"):
        pareto_frontier(inst, 3)
    assert len(needs) > 2 and max(needs[:-1]) <= gains < needs[-1]
    monkeypatch.setattr(pareto, "_physical_memory", lambda: None)
    assert pareto_frontier(inst, 3) == frontier


def test_frontier_points_past_physical_memory_are_refused(monkeypatch):
    from goalpost import pareto
    from goalpost.errors import SearchSpaceTooLarge

    # Ten agents, one per group, among 2,000 groups: each point holds 2,000
    # coordinates, nearly all 0.
    inst = Instance(tuple(Agent(3 * i, 4, i) for i in range(10)), 2000)
    need = {}
    check = pareto.check_memory

    def counted(n, what, have):
        need[what] = max(n, need.get(what, 0))
        check(n, what, have)

    monkeypatch.setattr(pareto, "check_memory", counted)
    tracemalloc.start()
    try:
        frontier = pareto_frontier(inst, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = need["the frontier's points"]
    assert peak < points
    assert points > need["the frontier DP's welfare tuples"]
    # Every zero coordinate is one shared Fraction.
    zeros = {id(w) for p in frontier.points for w in p.welfare if w == 0}
    assert len(zeros) == 1
    monkeypatch.setattr(pareto, "_physical_memory", lambda: points - 1)
    with pytest.raises(SearchSpaceTooLarge, match="the frontier's points"):
        pareto_frontier(inst, 3)
    monkeypatch.setattr(pareto, "_physical_memory", lambda: points)
    assert pareto_frontier(inst, 3) == frontier


def test_brute_force_points_past_physical_memory_are_refused(monkeypatch):
    from goalpost import oracle, pareto
    from goalpost.errors import SearchSpaceTooLarge

    # The oracle forms its points with the exact frontier's builder, so the
    # same count guards them.
    inst = Instance(tuple(Agent(3 * i, 4, i) for i in range(10)), 2000)
    need = {}
    check = pareto.check_memory

    def counted(n, what, have):
        need[what] = n
        check(n, what, have)

    monkeypatch.setattr(pareto, "check_memory", counted)
    frontier = brute_force_pareto(inst, 2)
    points = need["the frontier's points"]
    assert frontier == pareto_frontier(inst, 2)

    def evaluated(*args):
        raise AssertionError("the oracle's points were formed past their count")

    monkeypatch.setattr(pareto, "_physical_memory", lambda: points - 1)
    monkeypatch.setattr(oracle, "_target_set", evaluated)
    with pytest.raises(SearchSpaceTooLarge, match="the frontier's points"):
        brute_force_pareto(inst, 2)
    monkeypatch.undo()
    monkeypatch.setattr(pareto, "_physical_memory", lambda: points)
    assert brute_force_pareto(inst, 2) == frontier


def test_band_gains_read_what_the_table_reads(rng):
    from goalpost.pareto import band_gains

    for _ in range(30):
        inst = random_integral_instance(rng, max_agents=8, max_position=12, max_capacity=5)
        for engine in ("numpy", "python"):
            table = ContributionTable(inst, engine=engine)
            gain = band_gains(table)
            doubled = band_gains(table, lambda cell: tuple(2 * v for v in cell))
            m = table.grid_size
            for i in range(m):
                for j in range(i + 1, m):
                    cell = table.group_credit_scaled(i, j)
                    assert gain(i, j) == cell
                    assert doubled(i, j) == tuple(2 * v for v in cell)


def test_frontier_dp_on_a_band_reader_holds_less_than_it_counts(monkeypatch):
    from goalpost import pareto

    # The largest count so far, and the most the peak held up to a count
    # exceeded the counts before it; updated in place, so that recording
    # them holds nothing that grows.
    seen = [0, -1]

    def counted(need, *_):
        if seen[0]:
            seen[1] = max(seen[1], tracemalloc.get_traced_memory()[1] - seen[0])
        seen[0] = max(seen[0], need)

    monkeypatch.setattr(pareto, "check_memory", counted)
    rng = random.Random(13)
    # The reader's lists are most of what is held with one group or many.
    cases = [(1, 400, 4000, 20, 2), (3, 30, 90, 8, 3), (200, 10, 30, 4, 2)]
    for g, n, max_position, max_capacity, k in cases:
        inst = Instance(tuple(
            Agent(rng.randint(0, max_position), rng.randint(1, max_capacity), i % g)
            for i in range(n)), g)
        table = ContributionTable(inst)
        seen[:] = [0, -1]
        tracemalloc.start()
        try:
            pareto.frontier_dp(table, k, pareto.band_gains(table))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < seen[0]
        # The lists are formed after the first count, which covers them.
        assert seen[1] < 0


def test_frontier_dp_holds_no_more_than_any_count(monkeypatch):
    from goalpost import pareto

    # The most memory traced past a count when it is taken; updated in
    # place, so that recording it holds nothing that grows.
    short = [0]

    def counted(need, *_):
        short[0] = max(short[0], tracemalloc.get_traced_memory()[0] - need)

    monkeypatch.setattr(pareto, "check_memory", counted)
    rng = random.Random(13)
    inst = Instance(tuple(Agent(rng.randint(0, 4000), rng.randint(1, 20), 0)
                          for _ in range(400)), 1)
    table = ContributionTable(inst)
    assert table.grid_size == 723
    tracemalloc.start()
    try:
        pareto.frontier_dp(table, 2, pareto.band_gains(table))
    finally:
        tracemalloc.stop()
    # The last count, at the root, covers the cumulative count of the
    # back-pointers formed and comes after the last layer's other states
    # are released.
    assert short[0] == 0


def test_frontier_dp_with_three_or_twenty_groups_holds_no_more_than_any_count(monkeypatch):
    from goalpost import pareto

    # As above, with more groups.  CPython keeps up to 2,000 freed tuples of
    # each length up to 20 for reuse, still allocated: the pairs the layers
    # release, and the read gains once packed (more than 2,000 of them in
    # the one-layer cases).
    short = [0]

    def counted(need, *_):
        short[0] = max(short[0], tracemalloc.get_traced_memory()[0] - need)

    monkeypatch.setattr(pareto, "check_memory", counted)
    cases = [(3, 30, 90, 8, 3, 42), (3, 100, 300, 30, 1, 144), (20, 100, 300, 30, 1, 144)]
    for g, n, max_position, max_capacity, k, m in cases:
        rng = random.Random(13)
        inst = Instance(tuple(
            Agent(rng.randint(0, max_position), rng.randint(1, max_capacity), i % g)
            for i in range(n)), g)
        table = ContributionTable(inst)
        assert table.grid_size == m
        short[0] = 0
        # A full collection empties those free lists, so the run starts from
        # none: every tuple that it forms is traced, whatever ran before.
        gc.collect()
        tracemalloc.start()
        try:
            pareto.frontier_dp(table, k, pareto.band_gains(table))
        finally:
            tracemalloc.stop()
        assert short[0] == 0, (g, n)


def test_the_last_frontier_layer_prunes_only_the_root(monkeypatch):
    from goalpost import pareto

    # A full layer prunes m - W - 1 suffix unions and m - 1 states; the last
    # one prunes the root's candidates once.
    calls = []
    pruned = pareto._pruned
    monkeypatch.setattr(pareto, "_pruned", lambda *args: calls.append(1) or pruned(*args))
    rng = random.Random(19)
    inst = Instance(tuple(Agent(rng.randint(0, 90), rng.randint(1, 8), i % 3)
                          for i in range(30)), 3)
    table = ContributionTable(inst)
    m, w = table.grid_size, table.width
    assert m - w - 1 > 0
    for k in (1, 2, 3):
        calls.clear()
        pareto.frontier_dp(table, k, pareto.band_gains(table))
        assert len(calls) == (k - 1) * ((m - 1) + (m - w - 1)) + 1


def test_frontier_dp_memory_does_not_grow_with_the_budget():
    from goalpost import pareto

    # A back-pointer no state reaches is freed with the states that held it,
    # so once the states stop growing the traced peak stays flat up to the
    # longest chain, m - 1 targets.
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        inst = Instance(tuple(Agent(rng.randint(0, 110), (3, 5, 7)[i % 3], i % 3)
                              for i in range(30)), 3)
        table = ContributionTable(inst)
        peaks = []
        for k in (12, table.grid_size - 1):
            gc.collect()
            tracemalloc.start()
            try:
                pareto.frontier_dp(table, k, pareto.band_gains(table))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], (seed, table.grid_size, peaks)
