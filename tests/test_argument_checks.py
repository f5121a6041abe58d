"""Each argument check that the other tests and the CLI digest never reach
raises its documented error."""

from fractions import Fraction as F

import pytest

from goalpost import (
    Agent,
    ContributionTable,
    Instance,
    TargetSet,
    fptas_max_min,
    pareto_frontier,
    prune_every_other,
    rational,
)
from goalpost import errors
from goalpost.errors import InstanceParseError, ParameterOutOfRange
from goalpost.fairness import merge_parts
from goalpost.io import parse_instance
from goalpost.learning import required_samples_groups, required_samples_single

TWO = Instance((Agent(0, 2, 0), Agent(1, 2, 1)), 2)
LEVELS = TargetSet((F(1), F(2), F(3)))


@pytest.mark.parametrize("call, error, detail", [
    (lambda: prune_every_other(LEVELS, 0), ValueError, "delta must be positive"),
    (lambda: merge_parts(LEVELS, F(-1), 2), ValueError, "delta must be positive"),
    (lambda: merge_parts(TargetSet(()), 1, 2), ValueError, "union_targets must be nonempty"),
    (lambda: fptas_max_min(TWO, 0, F(1, 2)), ValueError, "k must be at least 1"),
    (lambda: parse_instance({"agents": {}}), InstanceParseError, "agents: expected an array"),
    (lambda: required_samples_single(F(1, 2), F(1, 10), 2, -1), ParameterOutOfRange,
     "delta_max must be non-negative"),
    (lambda: required_samples_groups(F(1, 2), F(1, 10), 2, -1, 2, F(1, 2)),
     ParameterOutOfRange, "delta_max must be non-negative"),
    (lambda: rational(True), TypeError, "bool is not a rational value"),
    (lambda: Instance.common([0, 1], 1, groups=[0]), ValueError,
     "groups and positions must have equal length"),
    (lambda: TWO.common_capacity, ValueError, "does not use the common capacity model"),
    (lambda: pareto_frontier(TWO, -1), ValueError, "k must be non-negative"),
    (lambda: ContributionTable(TWO, engine="gpu"), ValueError, "unknown engine 'gpu'"),
], ids=[
    "prune_every_other delta", "merge_parts delta", "merge_parts empty", "fptas k",
    "agents object", "single delta_max", "groups delta_max", "rational bool",
    "common groups", "common_capacity", "pareto k", "table engine",
])
def test_an_argument_out_of_range_is_refused(call, error, detail):
    with pytest.raises(error, match=detail):
        call()


def test_physical_memory_is_unknown_when_the_system_reports_none(monkeypatch):
    monkeypatch.setattr(errors.os, "sysconf", lambda name: 0)
    assert errors._physical_memory() is None
