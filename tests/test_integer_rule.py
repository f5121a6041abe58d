"""The behavior rule on scaled integers, the one-pass group optima, and the
limits on decimal exponents and on the digits of a result.

``improvement_report`` and ``group_welfare`` apply the rule to every agent
at once on exact integers; they are checked field by field against the
scalar rule (``eligible_target``, ``improvement_at``) applied agent by
agent.  ``group_optima_by_budget`` solves every budget of a group from one
table and one DP run; it is checked against independent solo solves.
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalpost import (
    Agent,
    CapacityModel,
    Instance,
    TargetSet,
    eligible_target,
    group_optima,
    group_optima_by_budget,
    improvement_at,
    improvement_report,
    max_total_improvement,
    potential_targets,
    rational,
)
from goalpost.cli import main
from goalpost.errors import ParameterOutOfRange, rational_detail
from goalpost.model import _apply_rule, group_welfare, rational_str
from helpers import random_common_instance

# Small rationals, and values past 2^60 that force exact object arithmetic.
SMALL = st.builds(F, st.integers(0, 30), st.sampled_from([1, 2, 3, 5, 7]))
HUGE = st.builds(F, st.integers(2**60, 2**64), st.sampled_from([1, 3]))
VALUES = st.one_of(SMALL, SMALL, SMALL, HUGE)


@st.composite
def rule_cases(draw):
    """An instance (some groups possibly empty) and a target set mixing grid
    levels with off-grid and rational levels; either may be empty."""
    g = draw(st.integers(1, 4))
    agents = tuple(
        Agent(p, c, gi)
        for p, c, gi in draw(st.lists(
            st.tuples(VALUES, VALUES, st.integers(0, g - 1)), max_size=8))
    )
    instance = Instance(agents, g)
    grid = potential_targets(instance).levels if agents else ()
    on_grid = draw(st.lists(st.sampled_from(grid), max_size=4)) if grid else []
    off_grid = draw(st.lists(
        st.one_of(VALUES, st.builds(F, st.integers(0, 300), st.integers(1, 97))),
        max_size=4,
    ))
    return instance, TargetSet(tuple(on_grid + off_grid))


@given(rule_cases())
@settings(max_examples=300, deadline=None)
def test_report_matches_the_scalar_rule_agent_by_agent(case):
    instance, targets = case
    report = improvement_report(instance, targets)
    expected = [
        (eligible_target(a, targets), improvement_at(a.position, a.capacity, targets))
        for a in instance.agents
    ]
    assert [(o.chosen_target, o.improvement) for o in report.per_agent] == expected
    for outcome in report.per_agent:
        assert outcome.chosen_target is None or type(outcome.chosen_target) is F
        assert type(outcome.improvement) is F
    totals = [F(0)] * instance.num_groups
    sizes = [0] * instance.num_groups
    for agent, (_, gain) in zip(instance.agents, expected):
        totals[agent.group] += gain
        sizes[agent.group] += 1
    assert report.group_totals == tuple(totals)
    assert report.group_averages == tuple(
        t / s if s else F(0) for t, s in zip(totals, sizes))
    assert report.total == sum(totals, F(0))
    assert group_welfare(instance.agents, targets) == report.total
    for gi in range(instance.num_groups):
        assert group_welfare(instance.group_members(gi), targets) == totals[gi]


def test_values_past_int64_take_the_exact_object_path():
    big = 2**62
    agents = (Agent(big, 3), Agent(F(big, 3), big), Agent(0, 1))
    targets = TargetSet((F(big, 3) + 1, big + 2, F(1, 2)))
    (rule,) = _apply_rule(agents, targets.levels)
    assert rule.gains.dtype == object
    report = improvement_report(Instance(agents, 1), targets)
    assert [o.improvement for o in report.per_agent] == [2, 1, F(1, 2)]
    assert report.total == F(7, 2)
    (small,) = _apply_rule(agents[2:], (F(1, 2),))
    assert small.gains.dtype == "int64"


def test_a_negative_level_past_int64_takes_the_exact_object_path():
    # No level is above 2^60, but one is far below -2^63: the int64 guard
    # compares magnitudes.
    agents = (Agent(0, 1), Agent(5, 1))
    targets = TargetSet((-2**70, F(1, 3), 6))
    (rule,) = _apply_rule(agents, targets.levels)
    assert rule.gains.dtype == object
    assert rule.chosen.tolist() == [1, 2]
    assert group_welfare(agents, targets) == F(4, 3)
    report = improvement_report(Instance(agents, 1), targets)
    assert [o.chosen_target for o in report.per_agent] == [F(1, 3), 6]


def test_empty_agents_and_empty_targets():
    assert group_welfare((), TargetSet((1, 2))) == 0
    report = improvement_report(Instance((), 2), TargetSet(()))
    assert report.per_agent == () and report.group_totals == (0, 0)
    report = improvement_report(Instance((Agent(0, 1, 1),), 3), TargetSet(()))
    assert report.per_agent[0].chosen_target is None
    assert report.group_averages == (0, 0, 0)
    assert group_welfare((Agent(0, 1),), TargetSet(())) == 0


def _common(rng, g):
    instance = random_common_instance(rng, g, max_agents=10)
    if rng.random() < 0.5:  # rational positions and capacity
        instance = Instance(
            tuple(Agent(F(a.position, 3), F(a.capacity, 2), a.group)
                  for a in instance.agents),
            g, CapacityModel.COMMON,
        )
    return instance


def test_one_pass_optima_match_independent_solo_solves(rng):
    for _ in range(60):
        g = rng.randint(1, 4)
        instance = _common(rng, g)
        m = len(potential_targets(instance))
        # Budgets past m - 1 included: every layer past it repeats.
        for k in (g, rng.randint(g, 2 * g + 2), m + rng.randint(0, 5)):
            budgets = (-(-k // g), k)
            optima = group_optima_by_budget(instance, budgets)
            assert sorted(optima) == sorted(set(budgets))
            for b in budgets:
                assert optima[b].budget == b
                assert group_optima(instance, b) == optima[b]
                for gi, solution in enumerate(optima[b].per_group):
                    solo = max_total_improvement(instance.isolate_group(gi), b)
                    assert (solution.value, solution.targets) == (solo.value, solo.targets)


def test_one_pass_optima_reject_negative_budgets():
    with pytest.raises(ValueError):
        group_optima_by_budget(Instance((Agent(0, 1),), 1), (2, -1))


@pytest.fixture
def default_digit_limit():
    """Python's default int/str digit limit, whatever the environment set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def test_decimal_exponents_are_bounded():
    assert rational("1e3") == 1000
    assert rational("1e-3") == F(1, 1000)
    assert rational(" 2.5E+2 ") == 250
    assert rational("1e-4300") == F(1, 10**4300)
    for text in ("1e-4301", "1e4301", "1e-1000000", "1E+1_000_000", "3.5e00009999"):
        with pytest.raises(ValueError):
            rational(text)


def test_huge_exponents_fail_as_documented(capsys, tmp_path):
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps({"agents": [{"position": "1e-1000000", "capacity": 1}]}))
    assert main(["solve", "--instance", str(path), "--k", "1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "InstanceParseError"
    assert "agents[0].position" in payload["detail"]
    for flag in ("--epsilon", "--delta"):
        argv = ["learn-bound", "--instance", str(path), "--k", "1",
                "--epsilon", "1/2", "--delta", "1/2"]
        argv[argv.index(flag) + 1] = "1e-1000000"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_results_past_the_digit_limit_are_an_error_envelope(
    capsys, tmp_path, default_digit_limit
):
    with pytest.raises(ParameterOutOfRange):
        rational_str(F(1, 10**4300))
    assert rational_str(F(1, 10**4299)) == f"1/{10**4299}"
    cases = {
        # The optimum adds two capacities with coprime 2501-digit denominators.
        "sum.json": [{"position": 0, "capacity": f"1/{10**2500 + 1}"},
                     {"position": 1, "capacity": f"1/{10**2500 + 3}"}],
        # The only target, 1 + 10^-4300, has a 4301-digit numerator.
        "decimal.json": [{"position": "1e-4300", "capacity": 1}],
    }
    for name, agents in cases.items():
        path, out = tmp_path / name, tmp_path / f"out-{name}"
        path.write_text(json.dumps({"agents": agents}))
        code = main(["solve", "--instance", str(path), "--k", "2", "--out", str(out)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1, name
        assert payload["error"] == "ParameterOutOfRange", name
        assert not out.exists(), name


def test_error_details_never_raise(default_digit_limit):
    assert rational_detail(F(-3, 4)) == "-3/4"
    assert rational_detail(F(10**4299)) == str(10**4299)
    assert rational_detail(F(-1, 10**4300)) == (
        "-(a 1-bit numerator over a 14285-bit denominator)")


def test_negative_position_past_the_digit_limit_is_an_error_envelope(
    capsys, tmp_path, default_digit_limit
):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"agents": [{"position": "-1e-4300", "capacity": 1}]}))
    assert main(["solve", "--instance", str(path), "--k", "1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "NegativePosition"
    assert payload["detail"].startswith("agent 0 has position -(a 1-bit numerator")


def test_learn_bound_parameter_past_the_digit_limit_is_an_error_envelope(
    capsys, default_digit_limit
):
    uniform = Path(__file__).parent / "data" / "uniform01.json"
    code = main(["learn-bound", "--instance", str(uniform), "--k", "2",
                 "--epsilon=-1e-4300", "--delta", "1/10"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["error"] == "ParameterOutOfRange"
    assert payload["detail"].startswith("epsilon must be positive, got -(a 1-bit")
