import gc
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from goalpost import (
    Agent,
    Instance,
    TargetSet,
    brute_force_optimum,
    group_optima_by_budget,
    improvement_report,
    iter_candidate_sets,
    max_total_improvement,
    max_total_with_min_improvers,
    optimal_target_count_sweep,
    pareto_frontier,
    potential_targets,
    welfare,
)
from goalpost.tables import ContributionTable
from helpers import random_integral_instance


def consecutive_cluster_instance(m: int) -> Instance:
    """One agent at 0, one at 1, and m agents at 1 + 1/m, all with capacity 1.

    The optimum serves the cluster from just above it, forcing two targets
    1/m apart; frozen values below were recomputed with the brute-force
    oracle in test_matches_oracle_on_cluster.
    """
    positions = [F(0), F(1)] + [1 + F(1, m)] * m
    return Instance.common(positions, 1)


def test_cluster_instance_m2():
    sol = max_total_improvement(consecutive_cluster_instance(2), 3)
    assert sol.value == F(7, 2)
    assert sol.targets == TargetSet((1, F(3, 2), F(5, 2)))


def test_cluster_instance_m10_has_tight_gap():
    sol = max_total_improvement(consecutive_cluster_instance(10), 3)
    assert sol.targets == TargetSet((1, F(11, 10), F(21, 10)))
    levels = sol.targets.levels
    assert levels[1] - levels[0] == F(1, 10)


def test_matches_oracle_on_cluster():
    inst = consecutive_cluster_instance(2)
    assert brute_force_optimum(inst, 3).value == F(7, 2)


def test_zero_budget_and_empty_instance():
    inst = Instance.common([0, 1], 1)
    assert max_total_improvement(inst, 0).value == 0
    assert max_total_improvement(inst, 0).targets == TargetSet(())
    empty = Instance((), 1)
    assert max_total_improvement(empty, 3).value == 0


def test_two_agents_budget_one_vs_two():
    inst = Instance.common([0, 1], 1)
    assert max_total_improvement(inst, 1).value == 1
    two = max_total_improvement(inst, 2)
    assert two.value == 2
    assert two.targets == TargetSet((1, 2))


def test_value_reproduced_by_reevaluation(rng):
    for _ in range(50):
        inst = random_integral_instance(rng)
        k = rng.randint(0, 3)
        sol = max_total_improvement(inst, k)
        assert len(sol.targets) <= k
        assert improvement_report(inst, sol.targets).total == sol.value


def test_budget_monotonicity(rng):
    for _ in range(30):
        inst = random_integral_instance(rng)
        values = [max_total_improvement(inst, k).value for k in range(5)]
        assert values == sorted(values)


def test_engines_agree(rng):
    for _ in range(40):
        inst = random_integral_instance(rng)
        k = rng.randint(0, 4)
        python, numpy = (ContributionTable(inst, engine=e) for e in ("python", "numpy"))
        assert max_total_improvement(inst, k, table=python) == \
            max_total_improvement(inst, k, table=numpy)


def test_rational_data_stays_exact():
    inst = Instance(
        (Agent(F(1, 3), F(1, 7)), Agent(F(2, 3), F(5, 7))), 1
    )
    sol = max_total_improvement(inst, 2)
    assert sol.value == brute_force_optimum(inst, 2).value


# -- lower bound on the number of improving agents --------------------------


def test_min_improvers_zero_matches_unconstrained(rng):
    for _ in range(20):
        inst = random_integral_instance(rng)
        k = rng.randint(0, 3)
        assert max_total_with_min_improvers(inst, k, 0) == \
            max_total_improvement(inst, k)


def test_min_improvers_infeasible_when_agents_far_apart():
    inst = Instance.common([0, 10], 1)
    assert max_total_with_min_improvers(inst, 1, 2) is None


def test_min_improvers_bound_above_agent_count_is_infeasible(rng):
    for _ in range(20):
        inst = random_integral_instance(rng)
        assert max_total_with_min_improvers(inst, 3, inst.size + 1) is None
        # A bound this large could never be tabulated; it is rejected up front.
        assert max_total_with_min_improvers(inst, 3, 10**12) is None
    assert max_total_with_min_improvers(Instance.common([0, 1], 1), 2, 2) is not None


def test_min_improvers_tradeoff():
    # serving both agents caps the value at 3/2; alone, the far target earns 2
    inst = Instance((Agent(0, 1), Agent(F(1, 2), 2)), 1)
    constrained = max_total_with_min_improvers(inst, 1, 2)
    assert constrained is not None
    assert constrained.value == F(3, 2)
    assert constrained.targets == TargetSet((1,))
    assert max_total_improvement(inst, 1).value == 2


def _oracle_min_improvers(inst, k, n_lb):
    best = None
    for targets in iter_candidate_sets(inst, k):
        report = improvement_report(inst, targets)
        improvers = sum(1 for o in report.per_agent if o.improvement > 0)
        if improvers >= n_lb and (best is None or report.total > best):
            best = report.total
    return best


def test_min_improvers_matches_enumeration(rng):
    for _ in range(60):
        inst = random_integral_instance(rng)
        k = rng.randint(0, 3)
        n_lb = rng.randint(0, inst.size + 1)
        expected = _oracle_min_improvers(inst, k, n_lb)
        got = max_total_with_min_improvers(inst, k, n_lb)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.value == expected
            report = improvement_report(inst, got.targets)
            assert report.total == got.value
            assert sum(1 for o in report.per_agent if o.improvement > 0) >= n_lb



def _improvers(inst, targets):
    return sum(1 for o in improvement_report(inst, targets).per_agent if o.improvement > 0)


def test_min_improvers_matches_oracle_for_every_bound(rng):
    outcomes = set()
    for _ in range(40):
        inst = random_integral_instance(rng)
        k = rng.randint(0, 3)
        unconstrained = brute_force_optimum(inst, k)
        for n_lb in range(inst.size + 2):
            expected = _oracle_min_improvers(inst, k, n_lb)
            got = max_total_with_min_improvers(inst, k, n_lb)
            outcomes.add(expected is None)
            if expected is None:
                assert got is None
                continue
            assert got.value == expected
            assert _improvers(inst, got.targets) >= n_lb
            if n_lb <= _improvers(inst, unconstrained.targets):
                assert got.value == unconstrained.value
    assert outcomes == {True, False}  # both feasible and infeasible bounds ran

def test_min_improvers_weakly_decreasing_in_bound(rng):
    for _ in range(20):
        inst = random_integral_instance(rng)
        k = rng.randint(1, 3)
        last = None
        for n_lb in range(inst.size + 2):
            sol = max_total_with_min_improvers(inst, k, n_lb)
            if sol is None:
                break
            if last is not None:
                assert sol.value <= last
            last = sol.value
        assert sol is None or sol.value <= max_total_improvement(inst, k).value


# -- budget sweep ------------------------------------------------------------


def test_sweep_prefers_fewer_targets_when_possible():
    curve = optimal_target_count_sweep(Instance.common([0, 1], 2), 2)
    assert [e.value for e in curve.entries] == [0, 3, 3]
    assert curve.min_k_for_max == 1


def test_sweep_needs_full_budget_when_spread_out():
    curve = optimal_target_count_sweep(Instance.common([0, 1], 1), 2)
    assert [e.value for e in curve.entries] == [0, 1, 2]
    assert curve.min_k_for_max == 2


def test_sweep_zero_budget():
    curve = optimal_target_count_sweep(Instance.common([0, 1], 1), 0)
    assert len(curve.entries) == 1
    assert curve.entries[0].value == 0
    assert curve.min_k_for_max == 0


def test_sweep_entries_match_individual_solves(rng):
    for _ in range(10):
        inst = random_integral_instance(rng)
        curve = optimal_target_count_sweep(inst, 4)
        for entry in curve.entries:
            assert entry.value == max_total_improvement(inst, entry.k).value


def test_a_budget_past_the_longest_chain_uses_every_level():
    # Levels 0..4 and every level above 0 serves one agent, so the optimum
    # needs all m - 1 = 4 targets, at k = 4 and at any larger k.
    inst = Instance.common([0, 1, 2, 3], 1, groups=[0, 1, 0, 1])
    every_level = TargetSet((1, 2, 3, 4))
    for k in (4, 10**9):
        solution = max_total_improvement(inst, k)
        assert (solution.value, solution.targets) == (4, every_level)
        assert max_total_with_min_improvers(inst, k, 4).targets == every_level
        frontier = pareto_frontier(inst, k)
        assert [(p.welfare, p.targets) for p in frontier.points] == [
            ((F(2), F(2)), every_level)
        ]
    assert max_total_improvement(inst, 3).value == 3


def test_sweep_runs_no_layer_past_the_longest_chain(monkeypatch):
    # Every sweep entry past m - 1 repeats entry m - 1 with its own k, and
    # only the first m - 1 budget layers are computed.
    inst = Instance.common([0, 1, 2, 3], 1, groups=[0, 1, 0, 1])
    layers = []
    dp_rows = welfare._dp_rows
    monkeypatch.setattr(
        welfare, "_dp_rows",
        lambda table, k, n_lb: layers.append(k) or dp_rows(table, k, n_lb),
    )
    curve = optimal_target_count_sweep(inst, 10**5)
    assert layers == [4]
    assert len(curve.entries) == 10**5 + 1
    assert [e.value for e in curve.entries[:6]] == [0, 1, 2, 3, 4, 4]
    assert all(
        (e.k, e.value, e.targets) == (k, 4, TargetSet((1, 2, 3, 4)))
        for k, e in enumerate(curve.entries[4:], 4)
    )
    assert curve.min_k_for_max == 4


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        max_total_improvement(Instance.common([0], 1), -1)


@pytest.mark.parametrize("inst", [
    Instance.common([], 1),  # no levels
    Instance.common([3], 0),  # one level
    Instance.common([0, 1, 3], 1),  # five levels
])
def test_zero_budget_meets_only_an_empty_lower_bound(inst):
    empty = max_total_with_min_improvers(inst, 0, 0)
    assert (empty.value, empty.targets) == (0, TargetSet(()))
    assert max_total_with_min_improvers(inst, 0, 1) is None


def test_unsorted_repeated_budgets_match_single_budget_solves(rng):
    for _ in range(20):
        inst = random_integral_instance(rng, max_agents=7)
        m = len(potential_targets(inst))
        budgets = [3, 0, m + 2, 1, 3, max(m - 1, 0), 0, 10**6]
        rng.shuffle(budgets)
        optima = group_optima_by_budget(inst, budgets)
        assert sorted(optima) == sorted(set(budgets))
        for b in budgets:
            for g, solution in enumerate(optima[b].per_group):
                solo = max_total_improvement(inst.isolate_group(g), b)
                assert (solution.value, solution.targets) == (solo.value, solo.targets)
        # The driver itself, with a lower bound: infeasible budgets are None.
        table = ContributionTable(inst)
        for n_lb in range(inst.size + 1):
            solved = welfare._solve_budgets(table, budgets, n_lb)
            for b, solution in zip(budgets, solved):
                assert solution == max_total_with_min_improvers(inst, b, n_lb)


def test_a_failed_welfare_allocation_is_refused(monkeypatch):
    from goalpost.errors import SearchSpaceTooLarge

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(welfare, "_best_targets", exhausted)
    inst = Instance.common([0, 1, 3], 1)
    for solve in (lambda: max_total_improvement(inst, 2),
                  lambda: max_total_with_min_improvers(inst, 2, 1),
                  lambda: optimal_target_count_sweep(inst, 2)):
        with pytest.raises(SearchSpaceTooLarge, match="ran out of memory"):
            solve()


def test_dp_rows_hold_two_value_layers_besides_the_choices():
    rng = random.Random(5)
    inst = Instance(tuple(Agent(rng.randint(0, 2000), rng.randint(1, 50))
                          for _ in range(200)), 1)
    table = ContributionTable(inst)
    k, n_lb = 30, 60
    m, w = table.grid_size, table.width
    tracemalloc.start()
    try:
        welfare._dp_rows(table, k, n_lb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    choices, layer = 8 * k * (n_lb + 1) * m, 8 * (n_lb + 1) * (m + w)
    # Two value layers, the roots and the scratch of one row; every layer
    # kept would add k more.
    assert peak < choices + 5 * layer


@pytest.mark.parametrize("cells", [17, 257, 1 << 17])
def test_dp_rows_hold_no_more_than_the_need_they_count(monkeypatch, cells):
    needs = []
    check = welfare.check_memory

    def counted(need, what, have):
        needs.append(need)
        check(need, what, have)

    monkeypatch.setattr(welfare, "check_memory", counted)
    # At 17 cells a wide band makes one block of each level.
    monkeypatch.setattr(welfare, "_BLOCK_CELLS", cells)
    rng = random.Random(21)
    # Small runs, where the arrays' headers are most of what is held, then
    # large ones, where a row's arrays and the run's own are.
    runs = [(2, 80, 4, 20)] * 10 + [(400, 600, 2, 2)] * 3
    for low, high, k_max, n_lb_max in runs:
        n = rng.randint(low, high)
        top = rng.choice([n, 10 * n, 100 * n])
        reach = max(1, top // rng.choice([2, 5, 20, 100]))
        inst = Instance(tuple(Agent(rng.randint(0, top), rng.randint(1, reach))
                              for _ in range(n)), 1)
        table = ContributionTable(inst)
        m = table.grid_size
        k, n_lb = rng.randint(1, min(k_max, m - 1)), rng.randint(0, min(n, n_lb_max))
        needs.clear()
        # A full collection first, so that the run forms every object it
        # holds, whatever ran before.
        gc.collect()
        tracemalloc.start()
        try:
            welfare._dp_rows(table, k, n_lb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(needs), (m, table.width, k, n_lb)


def test_exact_engine_dp_rows_hold_no_more_than_the_need_they_count(monkeypatch):
    needs = []
    check = welfare.check_memory

    def counted(need, what, have):
        needs.append(need)
        check(need, what, have)

    monkeypatch.setattr(welfare, "check_memory", counted)
    rng = random.Random(3)
    # Positions near 10^30 do not fit int64, so each value cell points to an
    # int of its own; at k >= 2 whole value layers of them are held.
    for n, top, reach, k, n_lb in [(200, 2000, 20, 3, 20), (400, 4000, 20, 2, 5),
                                   (100, 1000, 50, 3, 10), (300, 3000, 10, 4, 30)]:
        inst = Instance(tuple(Agent(10**30 + rng.randint(0, top), rng.randint(1, reach))
                              for _ in range(n)), 1)
        table = ContributionTable(inst)
        assert table.engine == "python"
        needs.clear()
        gc.collect()
        tracemalloc.start()
        try:
            welfare._dp_rows(table, k, n_lb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(needs), (table.grid_size, table.width, k, n_lb)


def test_a_sweep_whose_curve_cannot_fit_runs_no_dp_layer(monkeypatch):
    from goalpost.errors import SearchSpaceTooLarge

    def no_layer(*args):
        raise AssertionError("a DP layer ran")

    monkeypatch.setattr(welfare, "_best_targets", no_layer)
    # Four levels: every layer below the top one reads _best_targets.
    inst = Instance.common([0, 1, 3], 1)
    with pytest.raises(SearchSpaceTooLarge, match="the sweep's curve"):
        optimal_target_count_sweep(inst, 10**12)


def test_the_top_welfare_layer_holds_one_column():
    rng = random.Random(8)
    inst = Instance(tuple(Agent(rng.randint(0, 4000), rng.randint(1, 40))
                          for _ in range(400)), 1)
    table = ContributionTable(inst)
    m, w = table.grid_size, table.width
    assert (m, w) == (733, 15)
    n_lb = 100
    tracemalloc.start()
    try:
        welfare._dp_rows(table, 1, n_lb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The layer below, which the top one reads; a whole top layer would
    # hold one more value layer and its choices.
    assert peak < 1.5 * 8 * (n_lb + 1) * (m + w)


def _plain_solve(table, k, n_lb):
    """The budget recursion over every pair ``i < j``, O(m²) a row and
    O(k·m²) a lower bound: None marks an infeasible state, and a tie goes to
    the lowest ``j``.  Returns the value and served targets with at most
    ``k`` targets and at least ``n_lb`` improvers, or None."""
    m = table.grid_size
    prev = [[0 if eta == 0 else None] * m for eta in range(n_lb + 1)]
    picks = []
    for _ in range(k):
        cur = [[None] * m for _ in range(n_lb + 1)]
        pick = [[None] * m for _ in range(n_lb + 1)]
        for eta in range(n_lb + 1):
            for i in range(m):
                for j in range(i + 1, m):
                    below = prev[max(eta - table.reach_count(i, j), 0)][j]
                    if below is None:
                        continue
                    value = table.credit_scaled(i, j) + below
                    if cur[eta][i] is None or value > cur[eta][i]:
                        cur[eta][i], pick[eta][i] = value, j
        cur[0][m - 1] = 0  # the top level: nothing above it to place
        picks.append(pick)
        prev = cur
    if prev[n_lb][0] is None:
        return None
    chain, i, eta = [], 0, n_lb
    for budget in range(k, 0, -1):
        if i == m - 1:
            break
        j = picks[budget - 1][eta][i]
        eta = max(eta - table.reach_count(i, j), 0)
        chain.append(j)
        i = j
    return F(prev[n_lb][0], table.scale), table.served_targets(chain)


def _assert_matches_the_plain_recursion(inst, budgets):
    for engine in ("numpy", "python"):
        table = ContributionTable(inst, engine=engine)
        for n_lb in range(4):
            solved = welfare._solve_budgets(table, budgets, n_lb)
            for b, solution in zip(budgets, solved):
                got = None if solution is None else (solution.value, solution.targets)
                assert got == _plain_solve(table, b, n_lb), (engine, b, n_lb)


def test_solve_budgets_match_the_plain_recursion_on_both_engines(rng):
    for _ in range(25):
        inst = random_integral_instance(rng, max_agents=7, max_position=10, max_capacity=4)
        m = len(potential_targets(inst))
        _assert_matches_the_plain_recursion(inst, [0, 1, 2, 3, m - 1, m + 1])


@pytest.mark.parametrize("inst, width", [
    # Every capacity 0: W = 0, and the candidates are the suffix alone.
    (Instance((Agent(0, 0), Agent(2, 0), Agent(2, 0), Agent(5, 0)), 1), 0),
    # One agent spans the grid: W = m - 1, and no level is past any band.
    (Instance((Agent(0, 12), Agent(1, 2), Agent(4, 1), Agent(4, 3), Agent(9, 1)), 1), -1),
    # Common capacity, agents stacked on few positions: ties everywhere.
    (Instance.common([0, 0, 1, 1, 2, 2, 3, 3, 4, 4], 1), 1),
    (Instance.common([0, 0, 0, 2, 2, 2, 4, 4, 4, 6], 2), 1),
])
def test_solve_budgets_match_the_plain_recursion_at_the_band_edges(inst, width):
    m = ContributionTable(inst).grid_size
    assert ContributionTable(inst).width == width % m
    _assert_matches_the_plain_recursion(inst, list(range(m + 1)))


def test_tie_heavy_common_instances_match_the_plain_recursion(rng):
    from helpers import random_common_instance

    for _ in range(15):
        inst = random_common_instance(rng, 1, max_agents=10, max_position=4, max_capacity=2)
        m = len(potential_targets(inst))
        _assert_matches_the_plain_recursion(inst, [1, 2, 3, m])


def test_a_budget_alone_matches_the_plain_recursion_on_both_engines(rng):
    # Each budget is the top layer of its own run, which fills only its root.
    for _ in range(12):
        inst = random_integral_instance(rng, max_agents=6, max_position=10, max_capacity=4)
        for engine in ("numpy", "python"):
            table = ContributionTable(inst, engine=engine)
            m = table.grid_size
            for b in range(1, m + 1):
                for n_lb in range(inst.size + 2):
                    solved = welfare._solve_budgets(table, (b,), n_lb)[0]
                    got = None if solved is None else (solved.value, solved.targets)
                    assert got == _plain_solve(table, b, n_lb), (engine, b, n_lb)


def test_the_top_welfare_layer_fills_only_its_root(monkeypatch):
    calls = []
    best_targets = welfare._best_targets
    monkeypatch.setattr(welfare, "_best_targets",
                        lambda *args: calls.append(1) or best_targets(*args))
    # One target at 6 improves every agent: every row is live.
    inst = Instance(tuple(Agent(p, 6) for p in (0, 1, 1, 2, 3, 5)), 1)
    table = ContributionTable(inst)
    for k in (1, 2, 4):
        for n_lb in (0, 3, 6):
            calls.clear()
            welfare._dp_rows(table, k, n_lb)
            # One call fills every row of a layer below the top.
            assert len(calls) == k - 1, (k, n_lb)


@pytest.mark.parametrize("cells", [1, 2, 5, 17])
def test_column_blocks_leave_the_dp_rows_unchanged(monkeypatch, rng, cells):
    for _ in range(10):
        inst = random_integral_instance(rng, max_agents=9, max_groups=1,
                                        max_position=30, max_capacity=12)
        for engine in ("numpy", "python"):
            table = ContributionTable(inst, engine=engine)
            for n_lb in (0, 2):
                whole = welfare._dp_rows(table, 4, n_lb)
                monkeypatch.setattr(welfare, "_BLOCK_CELLS", cells)
                blocked = welfare._dp_rows(table, 4, n_lb)
                monkeypatch.undo()
                for expected, got in zip(whole, blocked):
                    assert len(expected) == len(got)
                    for a, b in zip(expected, got):
                        assert a.dtype == b.dtype and np.array_equal(a, b)
                assert all(pick.dtype == np.int32 for pick in blocked[1])


# run_rows = 1 copies runs in every block; by default these few agents'
# blocks gather cells.
@pytest.mark.parametrize("run_rows", [1, welfare._RUN_ROWS])
@pytest.mark.parametrize("cells", [1, 17, welfare._BLOCK_CELLS])
def test_batched_eta_rows_match_the_row_by_row_reference(monkeypatch, rng, cells, run_rows):
    from helpers import random_common_instance, rowwise_dp_rows

    monkeypatch.setattr(welfare, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(welfare, "_RUN_ROWS", run_rows)
    for t in range(12):
        if t % 2:  # common capacity on few positions: ties everywhere
            inst = random_common_instance(rng, 1, max_agents=10, max_position=4,
                                          max_capacity=2)
        else:
            inst = random_integral_instance(rng, max_agents=9, max_groups=1,
                                            max_position=30, max_capacity=12)
        for engine in ("numpy", "python"):
            table = ContributionTable(inst, engine=engine)
            if table.grid_size < 2:
                continue
            for n_lb in range(inst.size + 2):
                for k in range(1, 7):
                    roots, choices = welfare._dp_rows(table, k, n_lb)
                    ref_roots, ref_choices, layers = rowwise_dp_rows(table, k, n_lb)
                    assert len(roots) == len(ref_roots) and len(choices) == len(ref_choices)
                    if n_lb == 0:
                        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                                   for a, b in zip(roots, ref_roots))
                        assert all(np.array_equal(a.T, b) for a, b in zip(choices, ref_choices))
                        continue
                    for got, ref in zip(roots, ref_roots):
                        either = (got >= 0) | (ref >= 0)
                        assert np.array_equal(got[either], ref[either]), (engine, n_lb, k)
                    # Only a feasible state's choice is ever followed.
                    for pick, ref, layer in zip(choices, ref_choices, layers[1:]):
                        feasible = layer[:, : pick.shape[0]] >= 0
                        assert np.array_equal(pick.T[feasible], ref[feasible]), (engine, n_lb, k)


@pytest.mark.parametrize("run_rows", [1, welfare._RUN_ROWS])
@pytest.mark.parametrize("cells", [1, 17, welfare._BLOCK_CELLS])
def test_states_with_fewer_agents_above_than_eta_hold_the_floor(monkeypatch, rng, cells,
                                                                 run_rows):
    from goalpost.model import integer_grid

    filled = []
    best_targets = welfare._best_targets

    def kept(band, prev, value, pick):
        best_targets(band, prev, value, pick)
        filled.append((band.pad, value.copy(), pick.copy()))

    monkeypatch.setattr(welfare, "_best_targets", kept)
    monkeypatch.setattr(welfare, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(welfare, "_RUN_ROWS", run_rows)
    checked = 0
    for _ in range(12):
        inst = random_integral_instance(rng, max_agents=12, max_groups=1,
                                        max_position=30, max_capacity=12)
        floor = -1 - integer_grid(inst).bound
        for engine in ("numpy", "python"):
            table = ContributionTable(inst, engine=engine)
            m = table.grid_size
            if m < 2:
                continue
            above = np.array([sum(a.position >= table.level(i) for a in inst.agents)
                              for i in range(m)])
            for n_lb in sorted({1, 3, inst.size, inst.size + 1}):
                filled.clear()
                welfare._dp_rows(table, 4, n_lb)
                dead = np.arange(n_lb + 1) > above[:, None]
                for pad, value, pick in filled:
                    assert (value[:m, pad:][dead] == floor).all(), (engine, n_lb)
                    assert (pick[dead] == 0).all(), (engine, n_lb)
                checked += int(dead.sum()) * len(filled)
    assert checked > 0


def test_dp_rows_with_far_more_eta_rows_than_offsets_hold_no_more_than_their_need(
        monkeypatch):
    needs = []
    check = welfare.check_memory

    def counted(need, what, have):
        needs.append(need)
        check(need, what, have)

    monkeypatch.setattr(welfare, "check_memory", counted)
    rng = random.Random(34)
    # Half the agents sit on four levels and all reach the fifth, so one
    # target improves them all: no layer forms fewer than n_lb + 1 rows.
    for n, n_lb, base in [(400, 150, 0), (120, 50, 10**30)]:
        agents = [Agent(base + rng.randint(0, 3), 4) for _ in range(n // 2)]
        agents += [Agent(base + rng.randint(10, 4000), rng.randint(1, 40))
                   for _ in range(n // 2)]
        table = ContributionTable(Instance(tuple(agents), 1))
        assert n_lb > 5 * table.width and table.count0.max() >= n_lb
        needs.clear()
        gc.collect()
        tracemalloc.start()
        try:
            welfare._dp_rows(table, 3, n_lb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(needs), (table.engine, table.grid_size, table.width)


def test_an_int64_bound_just_under_the_guard_never_wraps_the_floor():
    from goalpost.model import INT64_SAFE, integer_grid

    top = INT64_SAFE - 1
    cases = [
        # The top level sits just under the guard.
        Instance((Agent(top - 9, 4), Agent(top - 7, 7), Agent(top - 3, 2)), 1),
        # The capacities sum to just under it: one chain can credit nearly all.
        Instance((Agent(0, top // 3), Agent(5, top // 3), Agent(top // 3, top // 3)), 1),
    ]
    for inst in cases:
        assert integer_grid(inst).bound > INT64_SAFE - 2**32
        fast = ContributionTable(inst, engine="numpy")
        exact = ContributionTable(inst, engine="python")
        assert fast.credits.dtype == np.int64
        m = fast.grid_size
        for n_lb in range(inst.size + 2):
            # The exact engine holds the same floor, so a wrap would show.
            roots, picks = welfare._dp_rows(fast, m - 1, n_lb)
            exact_roots, exact_picks = welfare._dp_rows(exact, m - 1, n_lb)
            assert [r.tolist() for r in roots] == [r.tolist() for r in exact_roots]
            assert all(np.array_equal(a, b) for a, b in zip(picks, exact_picks))
            budgets = list(range(m + 1))
            assert (welfare._solve_budgets(fast, budgets, n_lb)
                    == welfare._solve_budgets(exact, budgets, n_lb))
            assert [None if s is None else (s.value, s.targets)
                    for s in welfare._solve_budgets(fast, budgets[:3], n_lb)] == [
                        _plain_solve(exact, b, n_lb) for b in budgets[:3]]


def test_the_exact_engine_floor_sits_below_every_credit_sum():
    # Credits past 2^62: no fixed floor would stay below their sums.
    big = 2**70
    inst = Instance((Agent(0, big), Agent(3, big), Agent(big, 2 * big), Agent(5 * big, 1)), 1)
    table = ContributionTable(inst)
    assert table.engine == "python"
    budgets = list(range(table.grid_size + 1))
    for n_lb in range(inst.size + 2):
        solved = welfare._solve_budgets(table, budgets, n_lb)
        assert [None if s is None else (s.value, s.targets) for s in solved] == [
            _plain_solve(table, b, n_lb) for b in budgets]
