"""The one integer view per instance: the cached grid and validity, the
group split that derives them, the int64 guard computed once per grid, and
the instance's lifetime; and the parser's shortcut for plain "num/den"
strings.

Each property compares the cached value with a computation from scratch on
a freshly built instance, on random instances with rational values, empty
groups, invalid fields and values above 2^60.
"""

import gc
import weakref
from fractions import Fraction as F
from itertools import chain
from math import lcm
from operator import add
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goalpost import (
    Agent,
    CapacityModel,
    Instance,
    TargetSet,
    approx_solution,
    improvement_report,
    max_total_improvement,
    potential_targets,
    rational,
    validate_instance,
)
from goalpost import model, welfare
from goalpost.errors import GoalpostError
from goalpost.io import parse_instance
from goalpost.model import INT64_SAFE, _apply_rule, integer_grid
from goalpost.tables import ContributionTable

# Small rationals, values around 2^60 (the int64 guard's edge), values far
# past it, and rationals with large prime denominators.
SMALL = st.builds(F, st.integers(0, 40), st.sampled_from([1, 2, 3, 4, 7]))
EDGE = st.builds(F, st.integers(2**60 - 40, 2**60 + 40))
HUGE = st.builds(F, st.integers(2**62, 2**66), st.sampled_from([1, 3]))
PRIME = st.builds(F, st.integers(0, 60), st.sampled_from([2**31 - 1, 10**9 + 7]))
VALUES = st.one_of(SMALL, SMALL, EDGE, HUGE, PRIME)


@st.composite
def instances(draw, valid=True):
    """Instances of up to 8 agents in up to 4 groups, some groups empty.
    With ``valid=False`` a field may be negative, a label out of range, or a
    common capacity mixed."""
    g = draw(st.integers(1, 4))
    common = draw(st.booleans())
    shared = draw(VALUES)
    values = VALUES if valid else st.one_of(VALUES, VALUES.map(lambda v: -v - 1))
    labels = st.integers(0, g - 1) if valid else st.integers(-1, g)
    agents = [
        Agent(p, shared if common else c, gi)
        for p, c, gi in draw(st.lists(st.tuples(values, values, labels), max_size=8))
    ]
    if common and agents and not valid and draw(st.booleans()):
        agents[-1] = Agent(agents[-1].position, shared + 1, agents[-1].group)
    model_ = CapacityModel.COMMON if common else CapacityModel.INDIVIDUALIZED
    return Instance(tuple(agents), g, model_)


def fresh(instance: Instance) -> Instance:
    """The same instance, built again: nothing cached."""
    return Instance(tuple(Agent(a.position, a.capacity, a.group) for a in instance.agents),
                    instance.num_groups, instance.capacity_model)


def full_bound(grid) -> int:
    """The int64 guard's bound by a scan of every level end, position and
    reach, and the positive capacity sum."""
    values = chain(grid.levels[:1], grid.levels[-1:], grid.positions,
                   map(add, grid.positions, grid.capacities))
    return max(max(map(abs, values), default=0), sum(c for c in grid.capacities if c > 0))


def scratch_grid(agents):
    """(scale, positions, capacities, levels) of agents, from their fields."""
    values = [v for a in agents for v in (a.position, a.capacity)]
    scale = lcm(*(v.denominator for v in values))
    positions = tuple(int(a.position * scale) for a in agents)
    capacities = tuple(int(a.capacity * scale) for a in agents)
    levels = tuple(sorted({*positions, *map(add, positions, capacities)}))
    return scale, positions, capacities, levels


def outcome(call):
    """A call's result, or its error type and message."""
    try:
        return call()
    except GoalpostError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(instances(valid=False))
@example(Instance((), 1))
@example(Instance((Agent(2**60 - 1, 1), Agent(0, 0)), 1))
def test_cached_grid_and_validity_equal_a_fresh_computation(inst):
    grid = integer_grid(inst)
    assert integer_grid(inst) is grid  # one view per instance
    assert grid == integer_grid(fresh(inst))
    assert grid[:4] == scratch_grid(inst.agents)
    assert grid.bound == full_bound(grid)
    assert grid.fits_int64 == (full_bound(grid) < INT64_SAFE)
    assert potential_targets(inst).levels == tuple(F(v, grid.scale) for v in grid.levels)
    expected = outcome(lambda: validate_instance(fresh(inst)))
    for _ in range(3):  # a failure is not cached: it raises every time
        got = outcome(lambda: validate_instance(inst))
        assert got is inst if isinstance(expected, Instance) else got == expected


@settings(max_examples=200, deadline=None)
@given(instances(valid=False), st.booleans())
def test_an_isolated_group_has_the_grid_and_validity_of_a_fresh_one(inst, validated):
    parent_ok = validated and isinstance(outcome(lambda: validate_instance(inst)), Instance)
    for gi in range(-1, inst.num_groups + 1):
        sub = inst.isolate_group(gi)
        members = tuple(Agent(a.position, a.capacity, 0)
                        for a in inst.agents if a.group == gi)
        scratch = Instance(members, 1, inst.capacity_model)
        assert sub == scratch
        assert integer_grid(sub) == integer_grid(scratch)
        assert integer_grid(sub)[:4] == scratch_grid(members)
        assert integer_grid(sub).bound == full_bound(integer_grid(sub))
        expected = outcome(lambda: validate_instance(scratch))
        assert outcome(lambda: validate_instance(sub)) == (
            sub if expected is scratch else expected)
        if parent_ok:
            assert expected is scratch  # a valid instance's groups are valid


def _rule_grid(agents, levels, grid=None):
    """The grid that ``_apply_rule`` hands to the kernel."""
    with mock.patch.object(model, "_rule_kernel", wraps=model._rule_kernel) as kernel:
        (rule,) = _apply_rule(agents, levels, grid=grid)
    return kernel.call_args.args[0], rule


OFF_GRID = st.one_of(VALUES, VALUES.map(lambda v: -v), st.just(F(-2**70)),
                     st.builds(F, st.integers(-300, 300), st.integers(1, 97)))


@settings(max_examples=200, deadline=None)
@given(instances(valid=False), st.lists(OFF_GRID, max_size=5))
@example(Instance((Agent(2**61, 1),), 1), [F(1, 2)])  # an agent past every level
@example(Instance((Agent(0, 2**59), Agent(0, 2**59)), 1), [F(1, 3)])  # the capacity sum
def test_the_rule_grid_keeps_the_full_bound(inst, levels):
    targets = TargetSet(tuple(levels))
    with_view, rule = _rule_grid(inst.agents, targets.levels, integer_grid(inst))
    without, bare = _rule_grid(inst.agents, targets.levels)
    assert with_view == without
    assert with_view.bound == full_bound(with_view)
    assert with_view.fits_int64 == (full_bound(with_view) < INT64_SAFE)
    assert rule.chosen.tolist() == bare.chosen.tolist()
    assert rule.gains.tolist() == bare.gains.tolist()
    denominators = [v.denominator for a in inst.agents for v in (a.position, a.capacity)]
    scale = lcm(*denominators, *(v.denominator for v in targets.levels))
    assert with_view.scale == scale
    assert with_view.positions == tuple(int(a.position * scale) for a in inst.agents)
    assert with_view.capacities == tuple(int(a.capacity * scale) for a in inst.agents)
    assert with_view.levels == tuple(int(v * scale) for v in targets.levels)


def test_a_table_forms_only_the_levels_it_reads():
    inst = Instance(tuple(Agent(F(3 * i, 2), F(5, 3)) for i in range(50)), 1)
    table = ContributionTable(inst)
    solution = max_total_improvement(inst, 2, table=table)
    assert len(table._fractions) <= len(solution.targets) <= 2
    assert table.levels == potential_targets(inst).levels
    assert all(table.level(j) is level for j, level in enumerate(table.levels))


def test_the_welfare_dp_stores_its_choices_as_int32():
    table = ContributionTable(Instance(tuple(Agent(i, 3) for i in range(20)), 1))
    _, choices = welfare._dp_rows(table, 3, 2)
    assert [c.dtype for c in choices] == [np.int32] * 3


def test_an_instance_dies_with_its_last_reference():
    """Nothing outside the instance keeps its view: after it is solved,
    validated, split and reported on, dropping it frees it."""
    inst = parse_instance({
        "agents": [{"position": p, "capacity": 3, "group": p % 2} for p in range(12)],
        "num_groups": 2, "capacity_model": "common",
    })
    ref = weakref.ref(inst)
    validate_instance(inst)
    max_total_improvement(inst, 2)
    solo = inst.isolate_group(1)
    max_total_improvement(solo, 1)
    improvement_report(inst, TargetSet((3, 7)))
    approx_solution(inst, 2)
    del inst, solo
    gc.collect()
    assert ref() is None


# Pieces of text that Fraction reads or refuses.  No exponent marker:
# rational() refuses exponents past 4300 on purpose.
RATIONAL_TEXT = st.lists(
    st.sampled_from(["1", "0", "37", "/", " ", "_", "-", "+", ".", "\u0663", "\u00b2"]),
    max_size=6,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(RATIONAL_TEXT)
@example("12/0")
@example("1/ 2")
@example("1 /2")
@example(" 1/2 ")
@example("1_0/3")
@example("\u0663/4")  # an Arabic-Indic digit: a decimal digit to both
@example("\u00b2/3")  # a superscript two: a digit, but not a decimal one
@example("1" * 4301 + "/3")  # past the digit limit
def test_rational_text_reads_as_fraction_reads_it(text):
    def read(parse):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc)

    assert read(rational) == read(F)
