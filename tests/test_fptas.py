from fractions import Fraction as F

import pytest

from goalpost import (
    Agent,
    CapacityModel,
    FptasParams,
    Instance,
    brute_force_max_min,
    fptas_max_min,
    improvement_report,
    max_min_solution,
)
from goalpost import fptas
from goalpost.errors import EpsilonOutOfRange, GroupCapacityNonUniform, SearchSpaceTooLarge
from helpers import random_group_capacity_instance

TWO_GROUPS = Instance((Agent(0, 2, 0), Agent(1, 2, 1)), 2, CapacityModel.COMMON)


def test_params_grid_steps():
    params = FptasParams.for_instance(TWO_GROUPS, 2, F(1, 100))
    assert params.steps == (F(2, 100 * 16 * 2 * 8), F(2, 100 * 16 * 2 * 8))


def test_small_budget_branch_is_exact():
    result = fptas_max_min(TWO_GROUPS, 1, F(1, 2))
    assert result.value == 1
    assert result.value == brute_force_max_min(TWO_GROUPS, 1)


def test_rounded_branch_on_two_groups():
    result = fptas_max_min(TWO_GROUPS, 2, F(1, 100))
    assert result.value >= (1 - F(1, 100)) * 1
    assert result.value == 1  # grid this fine recovers the exact optimum


def test_rejects_bad_epsilon():
    for eps in (0, 1, F(3, 2), -1):
        with pytest.raises(EpsilonOutOfRange):
            fptas_max_min(TWO_GROUPS, 2, eps)


def test_rejects_mixed_capacities_within_a_group():
    inst = Instance((Agent(0, 1, 0), Agent(1, 2, 0)), 1)
    with pytest.raises(GroupCapacityNonUniform):
        fptas_max_min(inst, 1, F(1, 2))


def test_the_exact_branch_forms_no_rounding_step(monkeypatch):
    formed = []
    for_instance = FptasParams.for_instance.__func__

    def spy(cls, *args):
        formed.append(args)
        return for_instance(cls, *args)

    monkeypatch.setattr(FptasParams, "for_instance", classmethod(spy))
    fptas_max_min(TWO_GROUPS, 1, F(1, 2))
    assert formed == []
    fptas_max_min(TWO_GROUPS, 2, F(1, 2))
    assert len(formed) == 1


def test_the_exact_branch_checks_epsilon_then_memory_then_capacities(monkeypatch):
    mixed = Instance((Agent(0, 1, 0), Agent(1, 2, 0)), 2)
    monkeypatch.setattr(fptas, "_physical_memory", lambda: 16)
    with pytest.raises(EpsilonOutOfRange):
        fptas_max_min(mixed, 1, 2)
    with pytest.raises(SearchSpaceTooLarge, match="step table"):
        fptas_max_min(mixed, 1, F(1, 2))
    monkeypatch.setattr(fptas, "_physical_memory", lambda: None)
    with pytest.raises(GroupCapacityNonUniform):
        fptas_max_min(mixed, 1, F(1, 2))


def test_zero_capacity_group_is_carried_exactly():
    inst = Instance((Agent(0, 0, 0), Agent(0, 1, 1)), 2)
    params = FptasParams.for_instance(inst, 2, F(1, 2))
    assert params.steps[0] == 0
    result = fptas_max_min(inst, 2, F(1, 2))
    assert result.value == 0  # the stuck group pins the minimum


def test_approximation_guarantee_random(rng):
    for _ in range(100):
        inst = random_group_capacity_instance(rng)
        k = rng.randint(1, 4)
        opt = brute_force_max_min(inst, k)
        for eps in (F(1, 10), F(1, 2)):
            result = fptas_max_min(inst, k, eps)
            assert result.value >= (1 - eps) * opt
            assert len(result.targets) <= k
            report = improvement_report(inst, result.targets)
            assert min(report.group_totals) == result.value
            if k < inst.num_groups:
                assert result.value == opt


def test_small_budget_branch_matches_exact_dp(rng):
    for _ in range(30):
        inst = random_group_capacity_instance(rng)
        if inst.num_groups < 2 or not inst.is_integral:
            continue
        k = inst.num_groups - 1
        result = fptas_max_min(inst, k, F(1, 2))
        assert result.value == max_min_solution(inst, k)[0]


def test_stored_tuple_undershoots_truth_by_at_most_k_steps(rng):
    for _ in range(30):
        inst = random_group_capacity_instance(rng)
        k = max(inst.num_groups, 2)
        eps = F(1, 2)
        params = FptasParams.for_instance(inst, k, eps)
        result = fptas_max_min(inst, k, eps)
        true_welfare = improvement_report(inst, result.targets).group_totals
        for stored, true_w, step in zip(
            result.rounded_welfare, true_welfare, params.steps
        ):
            assert stored <= true_w
            assert true_w - stored <= k * step
            if step:
                assert stored % step == 0


def test_table_size_soft_cap(rng):
    for _ in range(20):
        inst = random_group_capacity_instance(rng)
        g = inst.num_groups
        k = max(g, 2)
        eps = F(1, 2)
        result = fptas_max_min(inst, k, eps)
        cap = 1
        for _ in range(g):
            cap *= 16 * inst.size * k * g**3 * eps.denominator // eps.numerator + 1
        assert result.table_peak <= cap
