from fractions import Fraction as F
from itertools import accumulate, combinations
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goalpost import learning
from goalpost import (
    GroupMixture,
    PositionDistribution,
    TargetSet,
    deviation_experiment,
    empirical_improvement,
    expected_improvement,
    required_samples_groups,
    required_samples_single,
)
from goalpost.errors import EmptySample, ParameterOutOfRange

UNIFORM_01 = PositionDistribution(((F(0), F(1, 2)), (F(1), F(1, 2))), F(1))
POINT_MASS = PositionDistribution(((F(0), F(1)),), F(1))
MIXTURE = GroupMixture(
    (
        (F(1, 2), PositionDistribution(((F(0), F(1)),), F(1))),
        (F(1, 2), PositionDistribution(((F(1), F(1)),), F(1))),
    )
)


def test_required_samples_single_values():
    assert required_samples_single(F(1, 2), F(1, 2), 1, 1) == 3
    assert required_samples_single(F(1, 2), F(1, 2), 2, 2) == 34


def test_required_samples_single_clamps_to_one():
    # k ln k vanishes at k=1 and ln(1/delta) ~ 0 near delta=1
    assert required_samples_single(F(1, 2), F(999_999, 1_000_000), 1, 1) == 1


def test_required_samples_groups_value():
    assert required_samples_groups(1, F(1, 2), 1, 1, 2, F(1, 2)) == 42


def test_required_samples_groups_single_group_reduction():
    # with g=1 and full weight the expression is the single bound with
    # 2/delta inside the logs plus the Chernoff cushion, times two
    import math

    got = required_samples_groups(F(1, 2), F(1, 2), 1, 1, 1, 1)
    expected = 2 * (4 * math.log(4) + 4 * math.log(4))
    assert got == math.ceil(expected)


def test_required_samples_groups_doubles_with_halved_alpha():
    import math

    log_term = math.log(2 * 2 / 0.5)
    inner = 4 * (math.log(1) + log_term) + 4 * log_term
    assert required_samples_groups(F(1, 2), F(1, 2), 1, 1, 2, F(1, 2)) == \
        math.ceil(4 * inner)
    assert required_samples_groups(F(1, 2), F(1, 2), 1, 1, 2, F(1, 4)) == \
        math.ceil(8 * inner)


def test_bound_monotonicity():
    base = required_samples_single(F(1, 4), F(1, 4), 2, 2)
    assert required_samples_single(F(1, 8), F(1, 4), 2, 2) > base
    assert required_samples_single(F(1, 4), F(1, 8), 2, 2) > base
    assert required_samples_single(F(1, 4), F(1, 4), 4, 2) > base
    assert required_samples_single(F(1, 4), F(1, 4), 2, 4) > base
    gbase = required_samples_groups(F(1, 4), F(1, 4), 2, 2, 2, F(1, 2))
    assert required_samples_groups(F(1, 4), F(1, 4), 2, 2, 4, F(1, 2)) > gbase
    assert required_samples_groups(F(1, 4), F(1, 4), 2, 2, 2, F(1, 4)) > gbase


def test_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        required_samples_single(0, F(1, 2), 1, 1)
    with pytest.raises(ParameterOutOfRange):
        required_samples_single(F(1, 2), 1, 1, 1)
    with pytest.raises(ParameterOutOfRange):
        required_samples_single(F(1, 2), F(1, 2), 0, 1)
    with pytest.raises(ParameterOutOfRange):
        required_samples_groups(F(1, 2), F(1, 2), 1, 1, 0, F(1, 2))
    with pytest.raises(ParameterOutOfRange):
        required_samples_groups(F(1, 2), F(1, 2), 1, 1, 2, 0)


def test_overflowing_bounds_are_out_of_range():
    huge = 10**400
    for args in ((F(1, 2), F(1, 2), 2, huge), (F(1, 2), F(1, huge), 2, 1),
                 (F(1, huge), F(1, 2), 2, 1)):
        with pytest.raises(ParameterOutOfRange):
            required_samples_single(*args)
        with pytest.raises(ParameterOutOfRange):
            required_samples_groups(*args, 2, F(1, 2))
    with pytest.raises(ParameterOutOfRange):
        required_samples_groups(F(1, 2), F(1, 2), 2, 1, 2, F(1, huge))
    # Large but finite bounds are still answered.
    assert required_samples_single(F(1, 2), F(1, 2), 2, 10**100) > 10**200


def test_distribution_validation():
    with pytest.raises(ParameterOutOfRange):
        PositionDistribution(((F(0), F(1, 3)),), F(1))  # probabilities != 1
    with pytest.raises(ParameterOutOfRange):
        PositionDistribution(((F(0), F(1, 2)), (F(0), F(1, 2))), F(1))
    with pytest.raises(ParameterOutOfRange):
        GroupMixture(((F(1, 2), POINT_MASS),))


def test_expected_improvement_examples():
    assert expected_improvement(POINT_MASS, TargetSet((1,))) == 1
    halves = PositionDistribution(((F(0), F(1, 2)), (F(1, 2), F(1, 2))), F(1))
    assert expected_improvement(halves, TargetSet((1,))) == F(3, 4)
    assert expected_improvement(UNIFORM_01, TargetSet(())) == 0


def test_empirical_improvement_examples():
    assert empirical_improvement([F(0)], F(1), TargetSet((1,))) == 1
    assert empirical_improvement([F(0), F(2)], F(1), TargetSet((1,))) == F(1, 2)
    with pytest.raises(EmptySample):
        empirical_improvement([], F(1), TargetSet((1,)))


def test_exact_proportion_sample_matches_expectation():
    dist = PositionDistribution(((F(0), F(1, 3)), (F(2), F(2, 3))), F(2))
    sample = [F(0), F(2), F(2)]
    for levels in ((1,), (2,), (1, 4)):
        targets = TargetSet(levels)
        assert empirical_improvement(sample, F(2), targets) == \
            expected_improvement(dist, targets)


def test_point_mass_has_zero_deviation():
    report = deviation_experiment(POINT_MASS, 1, F(1, 2), F(1, 2), 25, 7)
    assert report.worst_deviation == 0
    assert report.success_fraction == 1


def test_uniform_distribution_meets_the_bound():
    report = deviation_experiment(UNIFORM_01, 1, F(1, 2), F(1, 2), 200, 99)
    assert report.n == 3
    assert report.success_fraction >= F(1, 2)


def test_mixture_meets_the_bound_per_group():
    report = deviation_experiment(MIXTURE, 1, F(1, 2), F(1, 2), 200, 99)
    assert report.n == 67
    assert report.success_fraction >= F(1, 2)


def test_experiments_are_reproducible():
    a = deviation_experiment(UNIFORM_01, 1, F(1, 2), F(1, 2), 30, 1234)
    b = deviation_experiment(UNIFORM_01, 1, F(1, 2), F(1, 2), 30, 1234)
    assert a == b
    c = deviation_experiment(UNIFORM_01, 1, F(1, 2), F(1, 2), 30, 4321)
    assert c.seed != a.seed


def test_tolerance_factor_knob():
    strict = deviation_experiment(
        UNIFORM_01, 1, F(1, 100), F(1, 2), 20, 5, tolerance_factor=F(1, 100)
    )
    loose = deviation_experiment(
        UNIFORM_01, 1, F(1, 100), F(1, 2), 20, 5, tolerance_factor=100
    )
    assert strict.success_fraction <= loose.success_fraction
    assert loose.success_fraction == 1


def test_a_group_without_draws_fails_the_trial(monkeypatch):
    # One draw for two groups: the other group is always empty, while the
    # drawn point mass has no gap at all.
    monkeypatch.setattr(learning, "required_samples_groups", lambda *args: 1)
    report = deviation_experiment(MIXTURE, 1, F(1, 2), F(1, 2), 5, 0,
                                  tolerance_factor=100)
    assert (report.n, report.worst_deviation) == (1, 0)
    assert report.success_fraction == 0


def test_chunked_draws_tally_like_one_draw(monkeypatch):
    # Chunks of 7 split every sample below; the generator's stream, and so
    # every tally, must not depend on the split.
    monkeypatch.setattr(learning, "DRAW_CHUNK", 7)
    rng = np.random.default_rng(2022)
    for denom in [2, 3, 97, 2**31 - 1, 2**32, 2**32 + 1, 2**53 + 5, 2**62 - 1] * 4:
        cuts = sorted({int(c) for c in rng.integers(1, denom, size=3)})
        thresholds = cuts + [denom]
        n = int(rng.integers(0, 60))
        seed = int(rng.integers(0, 2**32))
        got = learning._tally_draws([np.random.default_rng(seed)], n, denom, thresholds)[0]
        draws = np.random.default_rng(seed).integers(0, denom, size=n)
        want = np.bincount(
            np.searchsorted(thresholds, draws, side="right"), minlength=len(thresholds)
        )
        assert got.tolist() == want.tolist(), (denom, n)


def test_chunked_experiment_reports_like_one_chunk(monkeypatch):
    single = PositionDistribution(((F(0), F(1, 3)), (F(1), F(2, 3))), F(2))
    reports = [
        deviation_experiment(dist, 1, F(1, 2), F(1, 10), 4, 7)
        for dist in (single, MIXTURE)
    ]
    monkeypatch.setattr(learning, "DRAW_CHUNK", 5)
    assert [
        deviation_experiment(dist, 1, F(1, 2), F(1, 10), 4, 7)
        for dist in (single, MIXTURE)
    ] == reports
    assert all(report.n > 5 for report in reports)


@pytest.mark.parametrize("lift", [0, 2**62])
def test_blocks_of_trials_report_like_one_trial_at_a_time(monkeypatch, lift):
    # A lift past 2**62 sends the gain matrix down the object path.
    def dist(*support):
        return PositionDistribution(tuple((F(p + lift), q) for p, q in support), F(2))

    single = dist((0, F(1, 3)), (1, F(2, 3)))
    mixture = GroupMixture(((F(1, 3), dist((0, F(1)))),
                            (F(2, 3), dist((1, F(1, 2)), (3, F(1, 2))))))
    for d in (single, mixture):
        want = deviation_experiment(d, 1, F(1, 2), F(1, 10), 7, 11)
        # Each sample outnumbers the cells of the gains matrix (at most 5
        # sets by 3 outcomes here), so a chunk of rows · n draws makes blocks
        # of `rows` trials; the unpatched run holds all 7 in one block.
        assert want.n > 15
        for rows in (1, 2, 3, 7):
            monkeypatch.setattr(learning, "DRAW_CHUNK", rows * want.n)
            assert deviation_experiment(d, 1, F(1, 2), F(1, 10), 7, 11) == want
        monkeypatch.undo()


def test_a_sample_too_large_to_tally_is_refused_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(learning, "_tally_draws", no_draws)
    dist = PositionDistribution(((F(0), F(1, 2)), (F(1), F(1, 2))), F(2**40))
    assert learning.required_samples(dist, F(1, 2), F(1, 10), 1) >= 2**62
    with pytest.raises(ParameterOutOfRange, match="too large to tally"):
        deviation_experiment(dist, 1, F(1, 2), F(1, 10), 1, 0)


def test_the_memory_need_covers_what_a_block_of_trials_holds(monkeypatch):
    # 300 one-point groups over 600 levels: a block's (rows, sets, groups)
    # sums and its draws are as large as the gains matrix or larger.
    import gc
    import tracemalloc

    from goalpost import model

    needs = []
    check = learning.check_memory

    def record(need, what, have):
        needs.append(need)
        check(need, what, have)

    monkeypatch.setattr(learning, "check_memory", record)
    monkeypatch.setattr(model, "check_memory", record)
    mixture = GroupMixture(tuple(
        (F(1, 300), PositionDistribution(((F(2 * i), F(1)),), F(1))) for i in range(300)
    ))
    # numpy.random is imported on the first draw and stays; it is no part
    # of what an experiment holds.
    deviation_experiment(POINT_MASS, 1, F(1, 2), F(1, 2), 1, 0)
    for trials in (1, 5):
        needs.clear()
        gc.collect()
        tracemalloc.start()
        try:
            deviation_experiment(mixture, 1, F(1, 2), F(1, 10), trials, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(needs), (trials, peak, max(needs))


def test_report_serialization_shape():
    report = deviation_experiment(POINT_MASS, 1, F(1, 2), F(1, 2), 5, 3)
    payload = report.to_jsonable()
    assert sorted(payload) == [
        "n", "seed", "success_fraction", "trials", "worst_deviation",
    ]


@st.composite
def distributions(draw):
    positions = draw(st.lists(
        st.builds(F, st.integers(0, 30), st.integers(1, 4)), min_size=1, max_size=5,
        unique=True,
    ))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(positions),
                            max_size=len(positions)))
    capacity = draw(st.builds(F, st.integers(0, 10), st.integers(1, 3)))
    support = tuple((p, F(w, sum(weights))) for p, w in zip(positions, weights))
    return PositionDistribution(support, capacity)


@settings(max_examples=100, deadline=None)
@given(st.lists(distributions(), min_size=1, max_size=3))
def test_grids_are_the_support_positions_and_reaches(dists):
    def levels(ds):
        return tuple(sorted({v for d in ds for p, _ in d.support
                             for v in (p, p + d.capacity)}))

    assert dists[0].grid() == levels(dists[:1])
    mixture = GroupMixture(tuple((F(1, len(dists)), d) for d in dists))
    assert mixture.grid() == levels(dists)


def reference_deviation(dist, k, epsilon, delta, trials, seed):
    """The experiment written out per set and per trial in Fractions, with
    the public expectation and sample-mean functions."""
    if isinstance(dist, GroupMixture):
        mixture = dist
        n = required_samples_groups(epsilon, delta, k, dist.delta_max,
                                    dist.num_groups, dist.alpha_min)
    else:
        mixture = GroupMixture(((F(1), dist),))
        n = required_samples_single(epsilon, delta, k, dist.capacity)
    outcomes = [(gi, p, w * q) for gi, (w, d) in enumerate(mixture.components)
                for p, q in d.support]
    denom = lcm(*(w.denominator for _, _, w in outcomes))
    thresholds = list(accumulate(int(w * denom) for _, _, w in outcomes))
    grid = mixture.grid()
    candidates = [TargetSet(subset) for size in range(1, k + 1)
                  for subset in combinations(grid, size)]
    successes, worst = 0, F(0)
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
        drawn = np.searchsorted(thresholds, rng.integers(0, denom, size=n), side="right")
        samples = [[] for _ in mixture.components]
        for u in drawn:
            gi, p, _ = outcomes[u]
            samples[gi].append(p)
        gap = max(
            (abs(empirical_improvement(sample, d.capacity, targets)
                 - expected_improvement(d, targets))
             for targets in candidates
             for (_, d), sample in zip(mixture.components, samples) if sample),
            default=F(0),
        )
        worst = max(worst, gap)
        successes += all(samples) and gap <= epsilon
    return n, F(successes, trials), worst


def _point_masses(*entries):
    return PositionDistribution(tuple((F(p), F(q, 7)) for p, q in entries), F(1))


@settings(max_examples=40, deadline=None)
# The worst gap sits in a group other than the one with the largest
# numerator, so only a cross-multiplied comparison finds it.
@example(dists=[_point_masses((5, 4), (8, 2), (0, 1)), _point_masses((5, 7)),
                _point_masses((8, 5), (1, 2))],
         single=False, lift=0, k=1, epsilon_per_capacity=F(1, 2), trials=2, seed=417)
@given(st.lists(distributions(), min_size=1, max_size=3), st.booleans(),
       st.sampled_from([0, 2**62]), st.integers(1, 2),
       st.sampled_from([F(1, 2), F(1), F(2)]), st.integers(1, 3),
       st.integers(0, 2**32))
def test_deviation_experiment_matches_a_per_set_reference(
    dists, single, lift, k, epsilon_per_capacity, trials, seed
):
    # A lift past 2**62 sends the gain matrix down the object path.
    dists = [PositionDistribution(tuple((p + lift, q) for p, q in d.support), d.capacity)
             for d in dists]
    if single:
        dist = dists[0]
    else:
        weights = [F(i + 1) for i in range(len(dists))]
        dist = GroupMixture(tuple((w / sum(weights), d) for w, d in zip(weights, dists)))
    top = max(d.capacity for d in dists[:1 if single else None])
    # An epsilon on the capacity's scale keeps the sample size small.
    epsilon = epsilon_per_capacity * max(top, F(1))
    report = deviation_experiment(dist, k, epsilon, F(1, 4), trials, seed)
    n, success_fraction, worst = reference_deviation(dist, k, epsilon, F(1, 4),
                                                     trials, seed)
    assert (report.n, report.success_fraction, report.worst_deviation) == (
        n, success_fraction, worst
    )


def test_a_gains_matrix_past_physical_memory_is_refused_before_any_set(monkeypatch):
    from goalpost import oracle
    from goalpost.errors import SearchSpaceTooLarge

    kernel_calls = []
    batch_group_totals = oracle.batch_group_totals

    def spy(*args):
        kernel_calls.append(args)
        return batch_group_totals(*args)

    monkeypatch.setattr(oracle, "batch_group_totals", spy)
    dist = PositionDistribution(tuple((F(p), F(1, 50)) for p in range(50)), F(1))
    # 51 one-level sets over 50 outcomes: two 8-byte words a cell.
    monkeypatch.setattr(learning, "_physical_memory", lambda: 16 * 51 * 50 - 1)
    with pytest.raises(SearchSpaceTooLarge, match="gains matrix needs 40800 bytes"):
        deviation_experiment(dist, 1, F(1, 2), F(1, 2), 1, 0)
    assert kernel_calls == []
    monkeypatch.setattr(learning, "_physical_memory", lambda: 16 * 51 * 50)
    deviation_experiment(dist, 1, F(1, 2), F(1, 2), 1, 0)
    assert kernel_calls


def test_a_trial_forms_no_outcomes_by_groups_array():
    # 3,000 one-point groups: an outcomes × groups int64 array alone would
    # take 8 · 3000² bytes (72 MB), while every gain here is 0.
    import tracemalloc

    point = PositionDistribution(((F(0), F(1)),), F(0))
    mixture = GroupMixture(tuple((F(1, 3000), point) for _ in range(3000)))
    tracemalloc.start()
    try:
        report = deviation_experiment(mixture, 1, F(1, 2), F(1, 10), 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.worst_deviation == 0
    assert peak < 8 * 3000**2 // 4
