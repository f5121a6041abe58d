"""An allocation that fails below physical memory (say, under an
address-space limit) is refused like one that cannot fit: every stage that
allocates in proportion to its input turns the ``MemoryError`` into
``SearchSpaceTooLarge``, and the CLI answers with its envelope."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from goalpost import (
    ContributionTable,
    Instance,
    PositionDistribution,
    brute_force_optimum,
    deviation_experiment,
    max_total_improvement,
    pareto_frontier,
)
from goalpost import cli, learning, model, tables
from goalpost.cli import main
from goalpost.errors import SearchSpaceTooLarge

SRC = Path(__file__).resolve().parent.parent / "src" / "goalpost"
CLUSTER = str(Path(__file__).parent / "data" / "cluster.json")
INST = Instance.common([0, 1, 3], 1, groups=[0, 1, 0])


def exhausted(*args):
    raise MemoryError("Unable to allocate")


def test_a_failed_table_allocation_names_the_credit_table(monkeypatch):
    monkeypatch.setattr(tables, "_band", exhausted)
    for stage in (lambda: ContributionTable(INST),
                  lambda: max_total_improvement(INST, 2),
                  lambda: pareto_frontier(INST, 1)):
        with pytest.raises(SearchSpaceTooLarge, match="^the credit table ran out of memory$"):
            stage()


def test_a_failed_kernel_allocation_names_the_batch_kernel(monkeypatch):
    monkeypatch.setattr(model, "_rule_kernel", exhausted)
    dist = PositionDistribution(((F(0), F(1, 2)), (F(1), F(1, 2))), F(1))
    for stage in (lambda: brute_force_optimum(INST, 2),
                  lambda: deviation_experiment(dist, 1, F(1, 2), F(1, 2), 3, 0)):
        with pytest.raises(SearchSpaceTooLarge, match="^the batch kernel ran out of memory$"):
            stage()


def test_a_failed_allocation_in_the_experiment_names_the_experiment(monkeypatch):
    monkeypatch.setattr(learning, "_tally_draws", exhausted)
    dist = PositionDistribution(((F(0), F(1, 2)), (F(1), F(1, 2))), F(1))
    with pytest.raises(SearchSpaceTooLarge,
                       match="^the deviation experiment ran out of memory$"):
        deviation_experiment(dist, 1, F(1, 2), F(1, 2), 3, 0)


def test_a_failed_allocation_on_the_command_line_is_an_envelope(capsys, monkeypatch,
                                                                tmp_path):
    monkeypatch.setattr(tables, "_band", exhausted)
    out = tmp_path / "result.json"
    code = main(["solve", "--instance", CLUSTER, "--k", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {
        "error": "SearchSpaceTooLarge", "detail": "the credit table ran out of memory"}
    assert captured.err == ""
    assert not out.exists()


def test_memory_errors_are_handled_in_one_place():
    handlers = {path.name: path.read_text(encoding="utf-8").count("except MemoryError")
                for path in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in handlers.items() if n} == {"errors.py": 1}


_dumps = json.dumps


def _dumps_all_but_the_answer(obj, **options):
    """``json.dumps`` failing on the answer's payload, not on an envelope."""
    if "command" in obj:
        raise MemoryError("Unable to allocate")
    return _dumps(obj, **options)


@pytest.mark.parametrize("target, name, stand_in", [
    (cli, "_solution", exhausted),  # while the answer is formed
    (cli.json, "dumps", _dumps_all_but_the_answer),  # while its text is formed
])
def test_a_failed_allocation_past_the_solvers_is_an_envelope(capsys, monkeypatch, tmp_path,
                                                              target, name, stand_in):
    monkeypatch.setattr(target, name, stand_in)
    out = tmp_path / "result.json"
    code = main(["solve", "--instance", CLUSTER, "--k", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {
        "error": "SearchSpaceTooLarge", "detail": "the solve command ran out of memory"}
    assert captured.err == ""
    assert not out.exists()
