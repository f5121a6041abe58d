import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from goalpost import potential_targets
from goalpost.cli import main
from goalpost.io import load_instance

DATA = Path(__file__).parent / "data"
CLUSTER = str(DATA / "cluster.json")
TWO_GROUPS = str(DATA / "two_groups.json")
INTERFERENCE = str(DATA / "interference.json")
UNIFORM = str(DATA / "uniform01.json")
MIXTURE = str(DATA / "mixture.json")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_solve_golden(capsys):
    code, out = run(capsys, "solve", "--instance", CLUSTER, "--k", "3")
    assert code == 0
    assert out == (
        '{\n'
        '  "command": "solve",\n'
        '  "k": 3,\n'
        '  "targets": [\n'
        '    "1",\n'
        '    "3/2",\n'
        '    "5/2"\n'
        '  ],\n'
        '  "value": "7/2"\n'
        '}\n'
    )


def test_solve_zero_budget(capsys):
    code, payload = run_json(capsys, "solve", "--instance", CLUSTER, "--k", "0")
    assert code == 0
    assert payload["targets"] == []
    assert payload["value"] == "0"


@pytest.mark.parametrize("argv", [
    ("solve", "--instance", CLUSTER),
    ("solve-lb", "--instance", CLUSTER, "--n-lb", "2"),
    ("pareto", "--instance", TWO_GROUPS),
    ("maxmin", "--instance", TWO_GROUPS),
])
def test_budgets_past_the_longest_chain_cost_nothing(capsys, argv):
    # No chain holds more than m - 1 targets, so a larger budget repeats it.
    m = len(potential_targets(load_instance(argv[2])).levels)
    _, longest = run_json(capsys, *argv, "--k", str(m - 1))
    start = time.perf_counter()
    code, huge = run_json(capsys, *argv, "--k", str(10**9))
    assert time.perf_counter() - start < 10
    assert code == 0
    assert huge.pop("k") == 10**9
    longest.pop("k")
    assert huge == longest


def test_sweep_past_the_longest_chain_repeats_its_last_entry(capsys):
    m = len(potential_targets(load_instance(CLUSTER)).levels)
    _, longest = run_json(capsys, "sweep", "--instance", CLUSTER, "--k", str(m - 1))
    start = time.perf_counter()
    code, huge = run_json(capsys, "sweep", "--instance", CLUSTER, "--k", "20000")
    assert time.perf_counter() - start < 10
    assert code == 0
    curve = huge["curve"]
    assert len(curve) == 20001
    assert curve[: m] == longest["curve"]
    last = dict(longest["curve"][-1])
    for k, entry in enumerate(curve[m:], m):
        last["k"] = k
        assert entry == last
    assert huge["min_k_for_max"] == longest["min_k_for_max"]


def test_output_is_byte_identical_across_runs(capsys):
    _, first = run(capsys, "pareto", "--instance", TWO_GROUPS, "--k", "2")
    _, second = run(capsys, "pareto", "--instance", TWO_GROUPS, "--k", "2")
    assert first == second


def test_maxmin_golden(capsys):
    code, payload = run_json(capsys, "maxmin", "--instance", TWO_GROUPS, "--k", "1")
    assert code == 0
    assert payload == {
        "command": "maxmin",
        "k": 1,
        "value": "1",
        "welfare": ["2", "1"],
        "targets": ["2"],
    }


def test_solve_lb_feasible_and_infeasible(capsys, tmp_path):
    instance = tmp_path / "lb.json"
    instance.write_text(json.dumps({
        "agents": [
            {"position": 0, "capacity": 1, "group": 0},
            {"position": "1/2", "capacity": 2, "group": 0},
        ],
    }))
    code, payload = run_json(
        capsys, "solve-lb", "--instance", str(instance), "--k", "1", "--n-lb", "2"
    )
    assert code == 0
    assert payload["feasible"] is True
    assert payload["value"] == "3/2"
    assert payload["targets"] == ["1"]

    far = tmp_path / "far.json"
    far.write_text(json.dumps({
        "agents": [
            {"position": 0, "capacity": 1, "group": 0},
            {"position": 10, "capacity": 1, "group": 0},
        ],
    }))
    code, payload = run_json(
        capsys, "solve-lb", "--instance", str(far), "--k", "1", "--n-lb", "2"
    )
    assert code == 0
    assert payload == {
        "command": "solve-lb", "k": 1, "n_lb": 2,
        "feasible": False, "targets": None, "value": None,
    }


def test_sweep_json_and_csv(capsys, tmp_path):
    instance = tmp_path / "pair.json"
    instance.write_text(json.dumps({
        "agents": [
            {"position": 0, "capacity": 2, "group": 0},
            {"position": 1, "capacity": 2, "group": 0},
        ],
        "capacity_model": "common",
    }))
    code, payload = run_json(capsys, "sweep", "--instance", str(instance), "--k", "2")
    assert code == 0
    assert [e["value"] for e in payload["curve"]] == ["0", "3", "3"]
    assert payload["min_k_for_max"] == 1

    code, out = run(
        capsys, "sweep", "--instance", str(instance), "--k", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "k,value,targets"
    assert out.splitlines()[1] == "0,0,"


def test_pareto_csv(capsys):
    code, out = run(
        capsys, "pareto", "--instance", TWO_GROUPS, "--k", "1", "--format", "csv"
    )
    assert code == 0
    assert out == "group_0,group_1,targets\n0,2,3\n2,1,2\n"


def test_fptas_command(capsys):
    code, payload = run_json(
        capsys, "fptas", "--instance", TWO_GROUPS, "--k", "2",
        "--epsilon", "1/100",
    )
    assert code == 0
    assert payload["value"] == "1"


def test_fair_approx_with_trace(capsys):
    code, payload = run_json(
        capsys, "fair-approx", "--instance", INTERFERENCE, "--k", "2"
    )
    assert code == 0
    assert payload["targets"] == ["7", "11"]
    assert payload["report"]["group_totals"] == ["3", "4"]
    assert payload["alpha_k"] == "3/8"
    assert payload["trace"]["step1_isolated"] == [["8"], ["11"]]
    assert payload["trace"]["step4_parts"] == [
        {"window_starts": ["4"], "target": "7"},
        {"window_starts": ["7"], "target": "11"},
    ]


def test_fair_approx_with_zero_capacity(capsys, tmp_path):
    instance = tmp_path / "flat.json"
    instance.write_text(json.dumps({"agents": [
        {"position": 0, "capacity": 0, "group": 0},
        {"position": 3, "capacity": 0, "group": 1},
    ], "num_groups": 2, "capacity_model": "common"}))
    code, payload = run_json(
        capsys, "fair-approx", "--instance", str(instance), "--k", "2"
    )
    assert code == 0
    assert payload["targets"] == []
    assert payload["alpha_k"] == payload["alpha_ceil"] == "1"
    trace = payload["trace"]
    assert trace.pop("split_budget") == 1
    assert all(step in ([], [[], []]) for step in trace.values())


def test_factor_command(capsys):
    code, payload = run_json(
        capsys, "factor", "--instance", INTERFERENCE, "--k", "2"
    )
    assert code == 0
    assert payload["alpha"] == "1/2"


def test_oracle_objectives(capsys):
    code, payload = run_json(
        capsys, "oracle", "--instance", CLUSTER, "--k", "3",
    )
    assert code == 0
    assert payload["value"] == "7/2"
    code, payload = run_json(
        capsys, "oracle", "--instance", TWO_GROUPS, "--k", "1",
        "--objective", "maxmin",
    )
    assert payload["value"] == "1"
    code, payload = run_json(
        capsys, "oracle", "--instance", TWO_GROUPS, "--k", "1",
        "--objective", "pareto",
    )
    assert {tuple(p["welfare"]) for p in payload["frontier"]} == {
        ("0", "2"), ("2", "1"),
    }


def test_learn_bound_single_and_mixture(capsys):
    code, payload = run_json(
        capsys, "learn-bound", "--instance", UNIFORM, "--k", "1",
        "--epsilon", "1/2", "--delta", "1/2",
    )
    assert code == 0
    assert payload["n"] == 3
    code, payload = run_json(
        capsys, "learn-bound", "--instance", MIXTURE, "--k", "1",
        "--epsilon", "1/2", "--delta", "1/2",
    )
    assert payload["n"] == 67


def test_learn_experiment(capsys):
    code, payload = run_json(
        capsys, "learn-experiment", "--instance", UNIFORM, "--k", "1",
        "--epsilon", "1/2", "--delta", "1/2", "--trials", "25", "--seed", "11",
    )
    assert code == 0
    assert payload["n"] == 3
    assert payload["seed"] == 11
    assert payload["trials"] == 25


def test_out_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, out = run(
        capsys, "solve", "--instance", CLUSTER, "--k", "3",
        "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["value"] == "7/2"


def test_round_trip_reevaluation(capsys, tmp_path):
    # emitted targets, parsed back in, reproduce the emitted value exactly
    from goalpost import TargetSet, improvement_report, rational
    from goalpost.io import load_instance

    code, payload = run_json(capsys, "solve", "--instance", CLUSTER, "--k", "3")
    targets = TargetSet(tuple(rational(t) for t in payload["targets"]))
    instance = load_instance(CLUSTER)
    assert improvement_report(instance, targets).total == rational(payload["value"])


# -- error envelopes ----------------------------------------------------------


def error_case(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_domain_errors_exit_one(capsys, tmp_path):
    cases = [
        (
            ["solve", "--k", "1", "--instance", error_case(
                tmp_path, "neg.json",
                {"agents": [{"position": -1, "capacity": 1, "group": 0}]},
            )],
            "NegativePosition",
        ),
        (
            ["solve", "--k", "1", "--instance", error_case(
                tmp_path, "negcap.json",
                {"agents": [{"position": 1, "capacity": -1, "group": 0}]},
            )],
            "NegativeCapacity",
        ),
        (
            ["solve", "--k", "1", "--instance", error_case(
                tmp_path, "grp.json",
                {"agents": [{"position": 0, "capacity": 1, "group": 2}],
                 "num_groups": 2},
            )],
            "GroupIndexOutOfRange",
        ),
        (
            ["solve", "--k", "1", "--instance", error_case(
                tmp_path, "common.json",
                {"agents": [{"position": 0, "capacity": 1, "group": 0},
                            {"position": 0, "capacity": 2, "group": 0}],
                 "capacity_model": "common"},
            )],
            "CommonCapacityViolated",
        ),
        (
            ["pareto", "--k", "1", "--instance", error_case(
                tmp_path, "rat.json",
                {"agents": [{"position": "1/2", "capacity": 1, "group": 0}]},
            )],
            "NonIntegralInstance",
        ),
        (
            ["fptas", "--k", "1", "--epsilon", "1/2", "--instance", error_case(
                tmp_path, "mixedcap.json",
                {"agents": [{"position": 0, "capacity": 1, "group": 0},
                            {"position": 1, "capacity": 2, "group": 0}]},
            )],
            "GroupCapacityNonUniform",
        ),
        (
            ["fptas", "--k", "1", "--epsilon", "2", "--instance", TWO_GROUPS],
            "EpsilonOutOfRange",
        ),
        (
            ["fair-approx", "--k", "2", "--instance", error_case(
                tmp_path, "indiv.json",
                {"agents": [{"position": 0, "capacity": 1, "group": 0},
                            {"position": 0, "capacity": 2, "group": 1}],
                 "num_groups": 2},
            )],
            "IndividualizedCapacityUnsupported",
        ),
        (
            ["fair-approx", "--k", "1", "--instance", TWO_GROUPS],
            "BudgetBelowGroupCount",
        ),
        (
            ["fair-approx", "--k", "2", "--instance", error_case(
                tmp_path, "emptygrp.json",
                {"agents": [{"position": 0, "capacity": 1, "group": 0}],
                 "num_groups": 2, "capacity_model": "common"},
            )],
            "EmptyGroup",
        ),
        (
            ["learn-bound", "--k", "1", "--epsilon", "1/2", "--delta", "2",
             "--instance", UNIFORM],
            "ParameterOutOfRange",
        ),
        (
            ["solve", "--k", "1", "--instance", error_case(
                tmp_path, "junk.json",
                {"agents": [{"position": 1.5, "capacity": 1, "group": 0}]},
            )],
            "InstanceParseError",
        ),
        (
            ["solve", "--k", "1", "--instance", str(tmp_path / "missing.json")],
            "InstanceParseError",
        ),
    ]
    for argv, expected_code in cases:
        code, payload = run_json(capsys, *argv)
        assert code == 1, argv
        assert payload["error"] == expected_code, argv
        assert "detail" in payload


def test_search_space_cap_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GOALPOST_MAX_SUBSETS", "2")
    code, payload = run_json(capsys, "oracle", "--instance", CLUSTER, "--k", "2")
    assert code == 1
    assert payload["error"] == "SearchSpaceTooLarge"


def test_table_too_large_for_memory_is_an_error_envelope(capsys, monkeypatch):
    from goalpost import tables

    monkeypatch.setattr(tables, "_physical_memory", lambda: 64)
    code, payload = run_json(capsys, "solve", "--instance", CLUSTER, "--k", "2")
    assert code == 1
    assert payload["error"] == "SearchSpaceTooLarge"
    assert "64 bytes" in payload["detail"]


def test_huge_group_count_is_refused_before_allocation(capsys, tmp_path):
    from goalpost.errors import _physical_memory

    if _physical_memory() is None:
        pytest.skip("this system does not report its physical memory")
    path = error_case(tmp_path, "groups.json", {
        "agents": [{"position": 0, "capacity": 1}], "num_groups": 10**12})
    # A label past int64 implies a group count just as large.
    label = error_case(tmp_path, "label.json", {
        "agents": [{"position": 0, "capacity": 1, "group": 2**64}]})
    for argv in (["oracle", "--k", "1", "--objective", "maxmin", "--instance", path],
                 ["fptas", "--k", "2", "--epsilon", "1/2", "--instance", path],
                 ["solve", "--k", "1", "--instance", label]):
        code, payload = run_json(capsys, *argv)
        assert code == 1, argv
        assert payload["error"] == "SearchSpaceTooLarge", argv
        assert "bytes of physical memory" in payload["detail"], argv


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", CLUSTER])  # missing --k
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", CLUSTER, "--k", "1", "--format", "csv"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_field_precise_parse_errors(capsys, tmp_path):
    path = error_case(
        tmp_path, "badfield.json",
        {"agents": [
            {"position": 0, "capacity": 1, "group": 0},
            {"position": 0, "capacity": True, "group": 0},
        ]},
    )
    code, payload = run_json(capsys, "solve", "--instance", path, "--k", "1")
    assert code == 1
    assert "agents[1].capacity" in payload["detail"]


def test_out_of_range_counts_are_usage_errors(capsys):
    cases = [
        ["solve", "--k", "-1"],
        ["sweep", "--k", "-1"],
        ["solve-lb", "--k", "-1", "--n-lb", "1"],
        ["solve-lb", "--k", "1", "--n-lb", "-1"],
        ["pareto", "--k", "-1"],
        ["maxmin", "--k", "-1"],
        ["factor", "--k", "-1"],
        ["factor", "--k", "1", "--budget", "-1"],
        ["fptas", "--k", "0", "--epsilon", "1/2"],
        ["oracle", "--k", "-1"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--instance", TWO_GROUPS])
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


def test_bad_subset_cap_environment_is_an_error_envelope(capsys, monkeypatch):
    for value in ("abc", "-5", "1.5"):
        monkeypatch.setenv("GOALPOST_MAX_SUBSETS", value)
        code, payload = run_json(capsys, "oracle", "--instance", CLUSTER, "--k", "2")
        assert code == 1, value
        assert payload["error"] == "ParameterOutOfRange", value
        assert "GOALPOST_MAX_SUBSETS" in payload["detail"]


def test_learn_bound_overflow_is_an_error_envelope(capsys, tmp_path):
    huge = str(10**400)
    single = error_case(tmp_path, "huge.json", {
        "capacity": huge,
        "support": [{"position": 0, "probability": "1/2"},
                    {"position": 1, "probability": "1/2"}],
    })
    mixture = error_case(tmp_path, "hugemix.json", {"components": [
        {"weight": "1/2", "dist": {"capacity": huge, "support": [
            {"position": 0, "probability": 1}]}},
        {"weight": "1/2", "dist": {"capacity": 1, "support": [
            {"position": 1, "probability": 1}]}},
    ]})
    for path in (single, mixture):
        code, payload = run_json(
            capsys, "learn-bound", "--instance", path, "--k", "2",
            "--epsilon", "1/2", "--delta", "1/2",
        )
        assert code == 1, path
        assert payload["error"] == "ParameterOutOfRange", path



POINT = {"capacity": 1, "support": [{"position": 0, "probability": 1}]}
LEARN_BOUND = ["learn-bound", "--k", "1", "--epsilon", "1/2", "--delta", "1/2"]
LEARN_EXPERIMENT = ["learn-experiment", "--k", "1", "--epsilon", "1/2", "--delta", "1/2"]


@pytest.mark.parametrize("argv, document, error", [
    (["solve", "--k", "1"], {"agents": [{"position": 0, "capacity": 1}],
                             "capacity_model": "shared"}, "InstanceParseError"),
    (["solve", "--k", "1"], {"agents": [{"position": 0, "capacity": 1}], "num_groups": 0},
     "GroupIndexOutOfRange"),
    (LEARN_BOUND, {"capacity": 1, "support": []}, "ParameterOutOfRange"),
    (LEARN_BOUND, {"capacity": 1, "support": [{"position": -1, "probability": 1}]},
     "ParameterOutOfRange"),
    (LEARN_BOUND, {"capacity": -1, "support": [{"position": 0, "probability": 1}]},
     "ParameterOutOfRange"),
    (LEARN_BOUND, {"capacity": 1, "support": [{"position": 0, "probability": 0},
                                              {"position": 1, "probability": 1}]},
     "ParameterOutOfRange"),
    (LEARN_BOUND, {"components": []}, "ParameterOutOfRange"),
    (LEARN_BOUND, {"components": [{"weight": 0, "dist": POINT}, {"weight": 1, "dist": POINT}]},
     "ParameterOutOfRange"),
    (["learn-bound", "--k", "0", "--epsilon", "1/2", "--delta", "1/2"],
     {"components": [{"weight": "1/2", "dist": POINT}, {"weight": "1/2", "dist": POINT}]},
     "ParameterOutOfRange"),
    ([*LEARN_EXPERIMENT, "--trials", "0", "--seed", "0"], POINT, "ParameterOutOfRange"),
    ([*LEARN_EXPERIMENT, "--trials", "1", "--seed", "-1"], POINT, "ParameterOutOfRange"),
    # A denominator past 2^62 does not fit the experiment's integer draws.
    ([*LEARN_EXPERIMENT, "--trials", "1", "--seed", "0"], {"capacity": 1, "support": [
        {"position": 0, "probability": f"1/{2**63}"},
        {"position": 1, "probability": f"{2**63 - 1}/{2**63}"}]}, "ParameterOutOfRange"),
], ids=["capacity-model", "no-groups", "empty-support", "negative-support-position",
        "negative-distribution-capacity", "zero-probability", "no-components",
        "zero-weight", "mixture-k-0", "no-trials", "negative-seed", "wide-denominator"])
def test_each_input_refusal_is_an_error_envelope(capsys, tmp_path, argv, document, error):
    path = error_case(tmp_path, "refused.json", document)
    code, payload = run_json(capsys, *argv, "--instance", path)
    assert code == 1
    assert payload["error"] == error


def test_a_sample_too_large_to_tally_is_refused_at_once(capsys, tmp_path):
    # Capacity 2^40 asks for about 1.1 · 10^25 draws: learn-bound states
    # the count, and learn-experiment refuses it rather than draw for ever.
    path = error_case(tmp_path, "huge-sample.json", {"capacity": 2**40, "support": [
        {"position": 0, "probability": "1/2"}, {"position": 1, "probability": "1/2"}]})
    flags = ["--instance", path, "--k", "1", "--epsilon", "1/2", "--delta", "1/10"]
    code, bound = run_json(capsys, "learn-bound", *flags)
    assert code == 0
    assert bound["n"] >= 2**62
    start = time.perf_counter()
    code, payload = run_json(capsys, "learn-experiment", *flags, "--trials", "1",
                             "--seed", "0")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert payload["error"] == "ParameterOutOfRange"


def mostly(good, bad):
    """``good`` nine times in ten, so most documents get past the parser."""
    return st.integers(0, 9).flatmap(lambda roll: bad if roll == 9 else good)


# JSON values a hand-written instance could hold where a rational belongs.
FUZZ_NUMBERS = mostly(
    st.one_of(
        st.integers(0, 12),
        st.sampled_from([1, 2, "3/2", "7/3", "1e3", "1e-3", 2**62, 10**30]),
    ),
    st.one_of(
        st.integers(-3, -1),
        st.integers(-2**80, 2**80),
        st.floats(),
        st.sampled_from(["1/0", "-1/2", "abc", "", "0.5", None, True]),
    ),
)
FUZZ_GROUPS = mostly(
    st.integers(0, 3),
    st.one_of(st.integers(-3, 8), st.sampled_from([1.5, "0", None, True, [0]])),
)
FUZZ_AGENT = st.fixed_dictionaries(
    {"position": FUZZ_NUMBERS, "capacity": FUZZ_NUMBERS},
    optional={"group": FUZZ_GROUPS},
)
FUZZ_INSTANCE = mostly(
    st.fixed_dictionaries(
        {"agents": st.lists(mostly(FUZZ_AGENT, st.integers(0, 2)), max_size=5)},
        optional={
            "num_groups": mostly(
                st.integers(1, 4),
                st.one_of(st.integers(-2, 8), st.sampled_from(["2", 1.0, None, False])),
            ),
            "capacity_model": mostly(
                st.just("individualized"), st.sampled_from(["common", "bogus", 3])
            ),
        },
    ),
    st.sampled_from([[], 3, "agents", None, {"agents": {}}, {}]),
)
FUZZ_K = mostly(
    st.one_of(st.integers(0, 5).map(str), st.sampled_from(["1000000000", str(2**70)])),
    st.sampled_from(["-1", "abc", "1.5", "", "+2", "1/2"]),
)
FUZZ_EPSILON = mostly(
    st.one_of(st.fractions(0, 1).filter(lambda e: 0 < e < 1).map(str),
              st.sampled_from(["1/2", "1/10", "1e-3", f"1/{10**30}"])),
    st.sampled_from(["0", "1", "-1/2", "3/2", "1/0", "abc", "", "nan", "inf",
                     str(10**30)]),
)


@given(
    document=FUZZ_INSTANCE,
    command=st.sampled_from(["pareto", "maxmin", "fptas", "factor"]),
    k=FUZZ_K,
    epsilon=FUZZ_EPSILON,
    budget=st.one_of(st.none(), st.integers(-2, 5).map(str), st.just("abc")),
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_instance_document_answers_or_fails_as_documented(
    capsys, tmp_path, document, command, k, epsilon, budget
):
    """Exit 0 with JSON, exit 1 with a JSON error envelope, or a usage error
    (exit 2); no exception escapes ``main``."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(document))
    argv = [command, "--instance", str(path), "--k", k]
    if command == "fptas":
        argv += ["--epsilon", epsilon]
    if command == "factor" and budget is not None:
        argv += ["--budget", budget]
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        capsys.readouterr()
        return
    payload = json.loads(capsys.readouterr().out)
    if code == 1:
        assert sorted(payload) == ["detail", "error"], argv
    else:
        assert code == 0 and payload["command"] == command, argv


@given(
    document=FUZZ_INSTANCE,
    command=st.sampled_from(["solve", "solve-lb", "sweep", "fair-approx", "oracle"]),
    k=FUZZ_K,
    n_lb=FUZZ_K,
    objective=st.sampled_from(["welfare", "pareto", "maxmin"]),
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_instance_document_answers_or_fails_as_documented_in_welfare_commands(
    capsys, tmp_path, document, command, k, n_lb, objective
):
    """The same contract for the welfare, fair and brute-force commands."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(document))
    argv = [command, "--instance", str(path), "--k", k]
    if command == "solve-lb":
        argv += ["--n-lb", n_lb]
    if command == "oracle":
        argv += ["--objective", objective]
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        capsys.readouterr()
        return
    payload = json.loads(capsys.readouterr().out)
    if code == 1:
        assert sorted(payload) == ["detail", "error"], argv
    else:
        assert code == 0 and payload["command"] == command, argv


# Distribution documents: probabilities and weights are drawn as positive
# counts over their sum, so most documents are valid, and then some entries
# are replaced by a malformed value.
FUZZ_SHARE_BAD = st.sampled_from([0, "-1/2", "3/2", "1/0", "abc", None, 1.5, True,
                                  f"1/{2**63}", 10**30])
SMALL_CAPACITIES = mostly(
    st.one_of(st.integers(0, 3), st.sampled_from(["1/2", "3/2", "7/3"])),
    st.sampled_from([-1, "-1/2", "abc", "", None, 1.5, True]),
)


def shares(draw, size):
    counts = draw(st.lists(st.integers(1, 5), min_size=size, max_size=size))
    return [draw(mostly(st.just(str(Fraction(c, sum(counts)))), FUZZ_SHARE_BAD))
            for c in counts]


@st.composite
def fuzz_single_distribution(draw, capacities):
    positions = draw(st.lists(FUZZ_NUMBERS, min_size=1, max_size=4))
    support = [{"position": p, "probability": q}
               for p, q in zip(positions, shares(draw, len(positions)))]
    return draw(mostly(
        st.just({"capacity": draw(capacities), "support": support}),
        st.sampled_from([{}, {"support": {}}, {"capacity": 1, "support": [3]}, []]),
    ))


@st.composite
def fuzz_distribution(draw, capacities):
    if draw(st.booleans()):
        return draw(fuzz_single_distribution(capacities))
    dists = draw(st.lists(fuzz_single_distribution(capacities), min_size=1, max_size=3))
    components = [{"weight": w, "dist": d} for w, d in zip(shares(draw, len(dists)), dists)]
    return draw(mostly(
        st.just({"components": components}),
        st.sampled_from([{"components": []}, {"components": {}},
                         {"components": [{"weight": 1}]}, None, "components"]),
    ))


def assert_answers_or_fails_as_documented(capsys, command, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        capsys.readouterr()
        return
    payload = json.loads(capsys.readouterr().out)
    if code == 1:
        assert sorted(payload) == ["detail", "error"], argv
    else:
        assert code == 0 and payload["command"] == command, argv


@given(
    document=fuzz_distribution(FUZZ_NUMBERS),
    k=FUZZ_K,
    epsilon=FUZZ_EPSILON,
    delta=FUZZ_EPSILON,
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_distribution_document_answers_or_fails_as_documented_in_learn_bound(
    capsys, tmp_path, document, k, epsilon, delta
):
    """The same contract for ``learn-bound``, on any values."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(document))
    assert_answers_or_fails_as_documented(capsys, "learn-bound", [
        "learn-bound", "--instance", str(path), "--k", k,
        "--epsilon", epsilon, "--delta", delta,
    ])


@given(
    document=fuzz_distribution(SMALL_CAPACITIES),
    k=mostly(st.integers(0, 3).map(str), st.sampled_from(["-1", "abc", "1/2"])),
    delta=FUZZ_EPSILON,
    trials=mostly(st.sampled_from(["1", "2"]), st.sampled_from(["0", "-1", "x"])),
    seed=mostly(st.integers(0, 9).map(str), st.sampled_from(["-1", "1.5"])),
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_distribution_document_answers_or_fails_as_documented_in_learn_experiment(
    capsys, tmp_path, document, k, delta, trials, seed
):
    """The same contract for ``learn-experiment``.  Its sample size grows
    with the capacity squared over epsilon squared, so capacities stay small
    and epsilon is 1/2: a capacity of 2^62 would draw for ever."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(document))
    assert_answers_or_fails_as_documented(capsys, "learn-experiment", [
        "learn-experiment", "--instance", str(path), "--k", k, "--epsilon", "1/2",
        "--delta", delta, "--trials", trials, "--seed", seed,
    ])


# -- the command table ----------------------------------------------------------

SUBCOMMANDS = [
    ("solve", CLUSTER, []),
    ("solve-lb", CLUSTER, ["--n-lb", "1"]),
    ("sweep", CLUSTER, []),
    ("pareto", TWO_GROUPS, []),
    ("maxmin", TWO_GROUPS, []),
    ("fptas", TWO_GROUPS, ["--epsilon", "1/2"]),
    ("fair-approx", INTERFERENCE, []),
    ("factor", INTERFERENCE, ["--budget", "1"]),
    ("oracle", TWO_GROUPS, ["--objective", "pareto"]),
    ("learn-bound", UNIFORM, ["--epsilon", "1/2", "--delta", "1/2"]),
    ("learn-experiment", MIXTURE,
     ["--epsilon", "1/2", "--delta", "1/2", "--trials", "3", "--seed", "0"]),
]


@pytest.mark.parametrize("index", range(len(SUBCOMMANDS)),
                         ids=[name for name, _, _ in SUBCOMMANDS])
def test_each_subcommand_is_listed_and_answers(capsys, index):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listing = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
    assert listing.split(",") == [name for name, _, _ in SUBCOMMANDS]

    name, path, flags = SUBCOMMANDS[index]
    code, payload = run_json(capsys, name, "--instance", path, "--k", "2", *flags)
    assert code == 0
    assert (payload["command"], payload["k"]) == (name, 2)


@pytest.mark.parametrize("content", [
    b'{"agents": [{"position": 0, "capacity": 1, "group": ' + b"9" * 4400 + b"}]}",
    b"\xff\xfe{}",
    b"[" * 200000 + b"]" * 200000,
], ids=["integer-past-digit-limit", "not-utf8", "nested-past-recursion-limit"])
def test_unreadable_instance_files_are_parse_errors(capsys, tmp_path, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    for argv in (["solve", "--k", "1"],
                 ["learn-bound", "--k", "1", "--epsilon", "1/2", "--delta", "1/2"]):
        code, payload = run_json(capsys, *argv, "--instance", str(path))
        assert code == 1, argv
        assert payload["error"] == "InstanceParseError", argv
        assert str(path) in payload["detail"], argv


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    out = str(tmp_path / "missing" / "result.json")
    for argv in (["solve", "--instance", CLUSTER, "--k", "1"],
                 ["sweep", "--instance", CLUSTER, "--k", "1", "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", out])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert f"cannot write --out {out}" in captured.err, argv


def test_a_welfare_dp_past_physical_memory_is_an_envelope(capsys, monkeypatch):
    from goalpost import welfare

    monkeypatch.setattr(welfare, "_physical_memory", lambda: 64)
    for argv in (["solve-lb", "--n-lb", "1"], ["solve"], ["sweep"], ["fair-approx"]):
        code, payload = run_json(capsys, *argv, "--instance", CLUSTER, "--k", "2")
        assert code == 1, argv
        assert payload["error"] == "SearchSpaceTooLarge", argv
        assert "the welfare DP's choices and value layers" in payload["detail"], argv
    monkeypatch.setattr(welfare, "_physical_memory", lambda: None)
    assert run(capsys, "solve-lb", "--instance", CLUSTER, "--k", "2", "--n-lb", "1")[0] == 0


def test_a_sweep_whose_curve_cannot_fit_is_refused(capsys, monkeypatch, tmp_path):
    from goalpost import welfare

    # Room for the DP on this 4-agent file, not for a million curve entries.
    monkeypatch.setattr(welfare, "_physical_memory", lambda: 10**6)
    out = tmp_path / "curve.json"
    code, payload = run_json(capsys, "sweep", "--instance", CLUSTER, "--k", "1000000",
                             "--out", str(out))
    assert code == 1
    assert payload["error"] == "SearchSpaceTooLarge"
    assert "the sweep's curve" in payload["detail"]
    assert not out.exists()
    code, payload = run_json(capsys, "sweep", "--instance", CLUSTER, "--k", "50")
    assert code == 0
    assert len(payload["curve"]) == 51


def test_the_parser_is_built_once_for_every_call(capsys, monkeypatch):
    import argparse

    from goalpost import cli

    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    for _ in range(2):
        assert run(capsys, "solve", "--instance", CLUSTER, "--k", "1")[0] == 0
    # None when an earlier call already built it, else every subcommand once.
    assert built in ([], list(cli.COMMANDS))


def test_a_frontier_whose_text_cannot_fit_is_refused(capsys, monkeypatch, tmp_path):
    from goalpost import cli

    # Ten agents, one per group, among 2,000 groups: the points fit, and
    # their JSON text, 2,000 values a point, is counted before it is formed.
    path = error_case(tmp_path, "groups.json", {
        "agents": [{"position": 3 * i, "capacity": 4, "group": i} for i in range(10)],
        "num_groups": 2000})
    need = []
    check = cli.check_memory

    def counted(n, what, have):
        need.append(n)
        check(n, what, have)

    monkeypatch.setattr(cli, "check_memory", counted)
    argv = ["pareto", "--instance", path, "--k", "2"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert need[0] > len(out) * 16
    monkeypatch.setattr(cli, "_physical_memory", lambda: need[0] - 1)
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["error"] == "SearchSpaceTooLarge"
    assert "the frontier's text" in payload["detail"]
    # One point: maxmin writes no frontier, so its text is not counted.
    code, payload = run_json(capsys, "maxmin", "--instance", path, "--k", "2")
    assert code == 0
    assert len(payload["welfare"]) == 2000
