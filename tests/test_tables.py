import random
import tracemalloc
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goalpost import Agent, ContributionTable, Instance, max_total_improvement
from goalpost import brute_force_optimum, max_total_with_min_improvers
from goalpost import potential_targets, tables
from goalpost.errors import SearchSpaceTooLarge
from goalpost.model import integer_grid
from helpers import random_integral_instance


def test_engines_build_identical_tables(rng):
    for _ in range(30):
        inst = random_integral_instance(rng)
        py = ContributionTable(inst, engine="python")
        np_ = ContributionTable(inst, engine="numpy")
        m = py.grid_size
        assert py.levels == np_.levels
        assert py.scale == np_.scale
        for i in range(m):
            for j in range(m):
                assert py.credit_scaled(i, j) == np_.credit_scaled(i, j)
                assert py.reach_count(i, j) == np_.reach_count(i, j)
                assert py.group_credit_scaled(i, j) == np_.group_credit_scaled(i, j)


def test_credit_definition_matches_direct_count():
    # agents between two grid levels that can reach the upper one
    inst = Instance(
        (Agent(0, 2, 0), Agent(1, 2, 1), Agent(1, 0, 1)), 2
    )
    table = ContributionTable(inst, engine="python")
    levels = table.levels
    i, j = levels.index(F(0)), levels.index(F(2))
    # agents at 0 and 1 reach level 2; the capacity-0 agent does not
    assert table.credit(i, j) == F(3)
    assert table.reach_count(i, j) == 2
    assert table.group_credit(i, j) == (F(2), F(1))


def test_rational_data_scales_exactly():
    inst = Instance((Agent(F(1, 3), F(1, 2)), Agent(F(5, 6), F(1, 2))), 1)
    table = ContributionTable(inst)
    assert table.scale == 6
    i = table.levels.index(F(1, 3))
    j = table.levels.index(F(5, 6))
    assert table.credit(i, j) == F(1, 2)


def test_shared_table_across_solves(rng):
    inst = random_integral_instance(rng)
    table = ContributionTable(inst, engine="python")
    for k in range(3):
        assert max_total_improvement(inst, k, table=table) == \
            max_total_improvement(inst, k)
    assert max_total_with_min_improvers(inst, 2, 1, table=table) == \
        max_total_with_min_improvers(inst, 2, 1)


def test_oversized_values_refuse_the_int64_engine():
    inst = Instance((Agent(0, 2**62),), 1)
    with pytest.raises(ValueError):
        ContributionTable(inst, engine="numpy")
    table = ContributionTable(inst)  # auto falls back to python
    assert table.engine == "python"
    assert max_total_improvement(inst, 1).value == 2**62


def _direct_cell(inst, levels, i, j):
    """Credit, head count and group credits of cell (i, j), summed agent by
    agent from the definition."""
    movers = [
        a for a in inst.agents
        if i < j and levels[i] <= a.position < levels[j] <= a.reach
    ]
    gains = [(levels[j] - a.position, a.group) for a in movers]
    return (
        sum((d for d, _ in gains), F(0)),
        len(movers),
        tuple(sum((d for d, g in gains if g == gi), F(0)) for gi in range(inst.num_groups)),
    )


def _random_rational_instance(rng):
    g = rng.randint(1, 3)
    agents = tuple(
        Agent(F(rng.randint(0, 24), rng.choice([1, 2, 3])),
              F(rng.randint(0, 10), rng.choice([1, 2])), rng.randint(0, g - 1))
        for _ in range(rng.randint(1, 7))
    )
    return Instance(agents, g)


def _assert_matches_definition(table):
    inst, levels = table.instance, table.levels
    for i in range(table.grid_size):
        for j in range(table.grid_size):
            credit, count, groups = _direct_cell(inst, levels, i, j)
            assert table.credit(i, j) == credit
            assert table.reach_count(i, j) == count
            assert table.group_credit(i, j) == groups


def test_banded_accessors_match_the_definition_on_both_engines(rng):
    for _ in range(40):
        inst = _random_rational_instance(rng)
        for engine in ("numpy", "python"):
            table = ContributionTable(inst, engine=engine)
            assert table.credits.shape == (table.grid_size, table.width)
            _assert_matches_definition(table)


def test_agent_spanning_the_grid_widens_the_band_to_all_levels():
    inst = Instance((Agent(0, 20, 0), Agent(3, 2, 1), Agent(F(15, 2), 1, 1), Agent(12, 4, 0)), 2)
    table = ContributionTable(inst)
    assert table.width == table.grid_size - 1
    _assert_matches_definition(table)
    assert max_total_improvement(inst, 3).value == brute_force_optimum(inst, 3).value


def test_zero_capacities_leave_an_empty_band():
    inst = Instance((Agent(0, 0), Agent(4, 0), Agent(F(9, 2), 0)), 1)
    table = ContributionTable(inst)
    assert table.width == 0
    assert table.credits.shape == (table.grid_size, 0)
    _assert_matches_definition(table)
    assert max_total_improvement(inst, 2).value == 0
    assert max_total_with_min_improvers(inst, 2, 0).value == 0
    assert max_total_with_min_improvers(inst, 2, 1) is None


def test_table_cells_grow_with_the_band_not_the_grid_squared():
    rng = random.Random(4000)
    agents = tuple(
        Agent(rng.randint(0, 10**6), rng.randint(1, 10**4), rng.randint(0, 2))
        for _ in range(4000)
    )
    table = ContributionTable(Instance(agents, 3))
    m, w, g = table.grid_size, table.width, 3
    cells = sum(v.size for v in vars(table).values() if isinstance(v, np.ndarray))
    assert cells <= m * (w + 1) * (g + 2)
    assert 20 * (w + 1) < m  # the band is narrow here, so the bound is far below m^2


@pytest.mark.parametrize("g", [1, 3])
def test_the_build_peak_stays_within_its_counted_need(monkeypatch, g):
    rng = random.Random(4000 + g)
    inst = Instance(tuple(
        Agent(rng.randint(0, 10**6), rng.randint(0, 10**4), rng.randrange(g))
        for _ in range(4000)
    ), g)
    integer_grid(inst)  # the instance's own view, kept apart from the build
    needs = []
    monkeypatch.setattr(tables, "check_memory", lambda need, *_: needs.append(need))
    tracemalloc.start()
    try:
        table = ContributionTable(inst, engine="numpy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(needs) == 1 and peak <= needs[0]
    # The g + 1 column tables and the g + 1 bands copied out of them are
    # never all held at once.
    m, w = table.grid_size, table.width
    assert peak < 2 * (g + 1) * 8 * m * (w + 1)


# Large primes make the common denominator, and with it the scaled values,
# too large for int64 once two of them meet.
DENOMINATORS = st.one_of(
    st.integers(1, 6), st.sampled_from([2**31 - 1, 2**61 - 1, 10**9 + 7, 10**9 + 9])
)
RATIONALS = st.builds(F, st.integers(0, 60), DENOMINATORS)


@st.composite
def rational_instances(draw):
    g = draw(st.integers(1, 3))
    agents = draw(st.lists(
        st.builds(Agent, RATIONALS, RATIONALS, st.integers(0, g - 1)), max_size=6
    ))
    return Instance(tuple(agents), g)


@settings(max_examples=150, deadline=None)
@given(rational_instances())
@example(Instance((), 1))
@example(Instance((Agent(F(3, 2**61 - 1), F(7, 10**9 + 7)),), 1))
def test_table_grid_is_the_scaled_potential_target_grid(inst):
    table = ContributionTable(inst)
    grid = integer_grid(inst)
    assert table.levels == potential_targets(inst).levels
    denominators = [v.denominator for a in inst.agents for v in (a.position, a.capacity)]
    assert table.scale == grid.scale == lcm(*denominators)
    assert grid.levels == tuple(v * table.scale for v in table.levels)
    assert all(type(v) is int for v in grid.levels)


def test_huge_common_denominators_take_the_object_engine():
    inst = Instance(tuple(Agent(F(1, d), F(2, d)) for d in (2**61 - 1, 10**9 + 7)), 1)
    table = ContributionTable(inst)
    assert table.engine == "python"
    assert table.levels == potential_targets(inst).levels
    _assert_matches_definition(table)


def test_a_table_that_cannot_fit_in_memory_is_refused(monkeypatch):
    inst = Instance(tuple(Agent(p, 5) for p in range(40)), 1)
    monkeypatch.setattr(tables, "_physical_memory", lambda: 1000)
    with pytest.raises(SearchSpaceTooLarge, match="1000 bytes"):
        ContributionTable(inst)
    with pytest.raises(SearchSpaceTooLarge):
        max_total_improvement(inst, 2)
    monkeypatch.setattr(tables, "_physical_memory", lambda: None)
    assert ContributionTable(inst).width == 5


@pytest.mark.parametrize("g", [1, 3])
def test_bands_are_transposed_views_of_offset_major_arrays(rng, g):
    for _ in range(10):
        inst = Instance(tuple(
            Agent(rng.randint(0, 40), rng.randint(0, 9), rng.randrange(g)) for _ in range(12)
        ), g)
        for engine in ("numpy", "python"):
            table = ContributionTable(inst, engine=engine)
            m, w = table.grid_size, table.width
            assert table.credits.shape == table.counts.shape == (m, w)
            assert table.group_credits.shape == (g, m, w)
            # Offset d is one contiguous row of m levels.
            assert table.credits.T.flags.c_contiguous and table.counts.T.flags.c_contiguous
            assert table.group_credits.swapaxes(1, 2).flags.c_contiguous
            # A cell past the top of the grid is 0.
            past = np.add.outer(np.arange(m), np.arange(w)) >= m - 1
            for band in (table.credits, table.counts, *table.group_credits):
                assert not band[past].any()
                assert not band.flags.writeable
