"""Dynamic programs for maximum total improvement.

The core solver sweeps the sorted grid of candidate levels left to right.
State ``(i, budget)`` is the best total improvement achievable for agents at
or above grid level ``i`` using at most ``budget`` targets, all placed
strictly above level ``i``.  A transition picks the lowest placed target
``j > i``, credits every agent between the two levels that can reach it, and
recurses on ``(j, budget - 1)``.  Ties always resolve to the lowest level, so
outputs are deterministic; targets that end up serving nobody are dropped
from the returned set (the budget is "at most k").

Two engines produce identical results: a vectorized int64 engine for large
grids and a plain-Python integer engine otherwise.  Both are exact.

The lower-bound variant threads a third coordinate through the same
recursion: how many agents must still improve.  Each transition subtracts
the head count reaching the chosen lowest target; exhausted (non-positive)
bounds delegate to the unconstrained table, and unsatisfiable states carry
minus infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .model import EMPTY_TARGETS, Instance, TargetSet, validate_instance
from .tables import ContributionTable


@dataclass(frozen=True)
class DpSolution:
    value: Fraction
    targets: TargetSet


@dataclass(frozen=True)
class BudgetPoint:
    k: int
    value: Fraction
    targets: TargetSet


@dataclass(frozen=True)
class BudgetCurve:
    """Optimal values for every budget 0..k_max, with the cheapest best budget."""

    entries: tuple[BudgetPoint, ...]
    min_k_for_max: int


def _dp_rows_python(table: ContributionTable, k: int):
    """All DP rows up to budget k: values[b][i] scaled, choices[b][i] or None."""
    m = table.grid_size
    credit = table.credit_matrix()
    values = [[0] * m]
    choices: list[list[Optional[int]]] = []
    for _ in range(k):
        prev = values[-1]
        cur = [0] * m
        pick: list[Optional[int]] = [None] * m
        for i in range(m - 1):
            row = credit[i]
            best = -1
            best_j = -1
            for j in range(i + 1, m):
                cand = prev[j] + row[j]
                if cand > best:
                    best = cand
                    best_j = j
            cur[i] = best
            pick[i] = best_j
        values.append(cur)
        choices.append(pick)
    return values, choices


def _dp_rows_numpy(table: ContributionTable, k: int):
    m = table.grid_size
    credit = table.credit_matrix()
    upper = np.arange(m)[None, :] > np.arange(m)[:, None]
    values = [np.zeros(m, dtype=np.int64)]
    choices = []
    for _ in range(k):
        cand = np.where(upper, credit + values[-1][None, :], np.int64(-1))
        cur = cand.max(axis=1)
        pick = cand.argmax(axis=1)
        cur[m - 1] = 0  # topmost level: nothing above it to place
        values.append(cur)
        choices.append(pick)
    return values, choices


def _reconstruct(
    table: ContributionTable, choices, budget: int, chain: Sequence[int] = ()
) -> TargetSet:
    """Extend the index chain placed so far from the root by following the
    stored choices with ``budget`` targets left; keep the targets with credit."""
    chain = list(chain)
    i = chain[-1] if chain else 0
    while budget >= 1 and i < table.grid_size - 1:
        i = int(choices[budget - 1][i])
        chain.append(i)
        budget -= 1
    return table.served_targets(chain)


def max_total_improvement(
    instance: Instance,
    k: int,
    *,
    table: Optional[ContributionTable] = None,
    engine: str = "auto",
) -> DpSolution:
    """Best total improvement over all target sets of at most ``k`` levels.

    Restricting candidates to the potential-target grid is lossless, so the
    returned value is the global optimum; the returned set achieves it.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    validate_instance(instance)
    if table is None:
        table = ContributionTable(instance, engine=engine)
    if k == 0 or table.grid_size <= 1:
        return DpSolution(Fraction(0), EMPTY_TARGETS)
    rows = _dp_rows_numpy if table.engine == "numpy" else _dp_rows_python
    values, choices = rows(table, k)
    value = table.to_fraction(int(values[k][0]))
    targets = _reconstruct(table, choices, k)
    return DpSolution(value, targets)


def optimal_target_count_sweep(
    instance: Instance, k_max: int, *, engine: str = "auto"
) -> BudgetCurve:
    """Optimal value for every budget 0..k_max plus the least budget
    attaining the overall maximum (values are weakly increasing)."""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    validate_instance(instance)
    table = ContributionTable(instance, engine=engine)
    if table.grid_size <= 1:
        entries = tuple(
            BudgetPoint(k, Fraction(0), EMPTY_TARGETS) for k in range(k_max + 1)
        )
        return BudgetCurve(entries, 0)
    rows = _dp_rows_numpy if table.engine == "numpy" else _dp_rows_python
    values, choices = rows(table, k_max)
    entries = []
    for k in range(k_max + 1):
        entries.append(
            BudgetPoint(
                k,
                table.to_fraction(int(values[k][0])),
                _reconstruct(table, choices, k),
            )
        )
    best = entries[-1].value
    min_k = next(e.k for e in entries if e.value == best)
    return BudgetCurve(tuple(entries), min_k)


def max_total_with_min_improvers(
    instance: Instance,
    k: int,
    n_lb: int,
    *,
    table: Optional[ContributionTable] = None,
) -> Optional[DpSolution]:
    """Best total improvement with at least ``n_lb`` agents strictly improving.

    Returns None when no target set of size at most ``k`` can make that many
    agents improve.  With ``n_lb == 0`` this is exactly
    :func:`max_total_improvement`.
    """
    if k < 0 or n_lb < 0:
        raise ValueError("k and n_lb must be non-negative")
    validate_instance(instance)
    if n_lb == 0:
        return max_total_improvement(instance, k, table=table)
    if table is None:
        table = ContributionTable(instance, engine="python")
    m = table.grid_size
    if m <= 1 or k == 0:
        return None  # nobody can improve, but n_lb >= 1
    # Unconstrained rows serve the delegated (bound exhausted) states.
    free_values, free_choices = _dp_rows_python(table, k)

    NEG = None  # stands in for minus infinity

    # values[b][eta][i]; eta ranges 1..n_lb (eta <= 0 delegates to free rows).
    values: list[list[list[Optional[int]]]] = [
        [[NEG] * m for _ in range(n_lb + 1)]
    ]
    choices: list[list[list[Optional[int]]]] = []
    for b in range(1, k + 1):
        layer = [[NEG] * m for _ in range(n_lb + 1)]
        pick_layer: list[list[Optional[int]]] = [
            [None] * m for _ in range(n_lb + 1)
        ]
        for eta in range(1, n_lb + 1):
            for i in range(m - 1):
                best: Optional[int] = NEG
                best_j = None
                for j in range(i + 1, m):
                    reached = table.reach_count(i, j)
                    remaining = eta - reached
                    if remaining <= 0:
                        tail: Optional[int] = free_values[b - 1][j]
                    else:
                        tail = values[b - 1][remaining][j]
                    if tail is NEG:
                        continue
                    cand = tail + table.credit_scaled(i, j)
                    if best is NEG or cand > best:
                        best = cand
                        best_j = j
                layer[eta][i] = best
                pick_layer[eta][i] = best_j
        values.append(layer)
        choices.append(pick_layer)
    root = values[k][n_lb][0]
    if root is NEG:
        return None
    # Follow the constrained choices until the bound is met, then the free ones.
    chain: list[int] = []
    i = 0
    budget = k
    eta = n_lb
    while eta >= 1:
        j = choices[budget - 1][eta][i]
        chain.append(j)
        eta -= table.reach_count(i, j)
        i = j
        budget -= 1
    targets = _reconstruct(table, free_choices, budget, chain)
    return DpSolution(table.to_fraction(root), targets)
