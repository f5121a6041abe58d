import random
from fractions import Fraction

import numpy as np

from goalpost import Agent, CapacityModel, Instance


def random_integral_instance(
    rng: random.Random,
    max_agents: int = 6,
    max_groups: int = 3,
    max_position: int = 8,
    max_capacity: int = 3,
) -> Instance:
    """Small integer instance; group labels may leave some groups empty."""
    n = rng.randint(1, max_agents)
    g = rng.randint(1, max_groups)
    agents = tuple(
        Agent(rng.randint(0, max_position), rng.randint(0, max_capacity),
              rng.randint(0, g - 1))
        for _ in range(n)
    )
    return Instance(agents, g)


def random_common_instance(
    rng: random.Random,
    num_groups: int,
    max_agents: int = 12,
    max_position: int = 12,
    max_capacity: int = 4,
) -> Instance:
    """Common-capacity instance with every group populated."""
    n = rng.randint(num_groups, max_agents)
    delta = rng.randint(1, max_capacity)
    groups = list(range(num_groups)) + [
        rng.randint(0, num_groups - 1) for _ in range(n - num_groups)
    ]
    rng.shuffle(groups)
    agents = tuple(Agent(rng.randint(0, max_position), delta, g) for g in groups)
    return Instance(agents, num_groups, CapacityModel.COMMON)


def random_group_capacity_instance(rng: random.Random) -> Instance:
    """Per-group capacities (uniform within a group), rational data allowed."""
    g = rng.randint(1, 3)
    n = rng.randint(g, 6)
    caps = [Fraction(rng.randint(1, 3), rng.choice([1, 1, 2])) for _ in range(g)]
    agents = tuple(
        Agent(Fraction(rng.randint(0, 16), 2), caps[i % g], i % g) for i in range(n)
    )
    return Instance(agents, g)


def pairwise_prune(candidates):
    """Reference prune: every candidate against every kept key, scanned in
    descending lexicographic order; returns ``(key, payload)`` pairs sorted."""
    def dominates(a, b):
        return a != b and all(x >= y for x, y in zip(a, b))

    kept = []
    for key in sorted(candidates, reverse=True):
        if not any(dominates(prev, key) for prev, _ in kept):
            kept.append((key, candidates[key]))
    kept.reverse()
    return kept


def chain_frontier_dp(table, k, gain):
    """Reference frontier recursion: every candidate carries its whole
    witness chain, and each state is pruned with :func:`pairwise_prune`.
    Returns the root state, tuples mapped to chains, and the largest state
    of the layers below the last and the root (the last layer's other states
    are formed here but never read)."""
    def extend(merged, j, added, state):
        for welfare, chain in state.items():
            candidate = tuple(w + d for w, d in zip(welfare, added))
            if candidate not in merged:
                merged[candidate] = (j,) + chain

    m, w = table.grid_size, table.width
    near = [[gain(i, j) for j in range(i + 1, min(i + w + 1, m))] for i in range(m - 1)]
    far = {j: gain(0, j) for j in range(w + 1, m)}
    base = {(0,) * table.instance.num_groups: ()}
    prev = [base] * max(m, 1)
    depth = min(k, max(m - 1, 0))
    peak = 0
    for layer in range(1, depth + 1):
        suffix = [{}] * (m + 1)
        for s in range(m - 1, w, -1):
            merged = {}
            extend(merged, s, far[s], prev[s])
            for welfare, chain in suffix[s + 1].items():
                merged.setdefault(welfare, chain)
            suffix[s] = dict(pairwise_prune(merged))
        cur = [base] * len(prev)
        for i in range(m - 1):
            merged = {}
            for j, added in enumerate(near[i], i + 1):
                extend(merged, j, added, prev[j])
            for welfare, chain in suffix[min(i + w + 1, m)].items():
                merged.setdefault(welfare, chain)
            cur[i] = dict(pairwise_prune(merged))
            if layer < depth or i == 0:
                peak = max(peak, len(cur[i]))
        prev = cur
    return prev[0], peak


def rowwise_dp_rows(table, k, n_lb):
    """Reference welfare DP, one ``eta`` row at a time: eta-major
    ``(n_lb + 1, m + W)`` value layers, every row of a layer its own pass
    over all levels at once, and a layer that stops at its first
    all-infeasible row.  The top layer fills only ``[n_lb, 0]``.  Returns
    the roots ``[eta]``, the choices ``[eta, i]`` and every value layer."""
    from goalpost.model import integer_grid
    from numpy.lib.stride_tricks import as_strided

    def windows(row, w, m):
        step = row.strides[0]
        return as_strided(row, (w, m), (step, step), writeable=False)

    m, w = table.grid_size, table.width
    credits, counts = table.credits.T, table.counts.T
    credit0, count0 = table.credit0, table.count0
    floor = -1 - integer_grid(table.instance).bound
    levels = np.arange(m)
    cols = windows(np.arange(1, m + w), w, m)
    past = np.minimum(levels + w + 1, m)
    ranks = np.arange(w + 1, 0, -1)[:, None]

    def row(prev, eta, value, pick):
        if eta:
            tail = prev[np.maximum(eta - count0, 0), levels]
        else:
            tail = prev[0, :m]
        far = credit0 + tail
        best = np.append(np.maximum.accumulate(far[::-1])[::-1], floor)
        record = np.where(far == best[:m], levels, m)
        at = np.append(np.minimum.accumulate(record[::-1])[::-1], m)
        cand = np.empty((w + 1, m), dtype=far.dtype)
        if eta:
            cand[:w] = credits + prev[np.maximum(eta - counts, 0), cols]
        else:
            cand[:w] = credits + windows(prev[0, 1:], w, m)
        cand[w] = best[past]
        value[:] = cand.max(axis=0)
        rank = ((cand == value) * ranks).max(axis=0)
        pick[:] = np.where(rank > 1, levels + (w + 2) - rank, at[past])

    dtype = table.credits.dtype
    prev = np.full((n_lb + 1, m + w), floor, dtype=dtype)
    prev[0, :m] = 0
    roots, choices, layers = [prev[:, 0].copy()], [], [prev]
    for layer in range(1, k + 1):
        if layer == k:
            cur = np.full((n_lb + 1, 1), floor, dtype=dtype)
            pick = np.zeros((n_lb + 1, 1), dtype=np.int32)
            cand = credit0[1:] + prev[np.maximum(n_lb - count0[1:], 0), levels[1:]]
            best = int(cand.argmax())
            cur[n_lb, 0], pick[n_lb, 0] = cand[best], best + 1
        else:
            cur = np.full_like(prev, floor)
            pick = np.zeros((n_lb + 1, m), dtype=np.int32)
            for eta in range(n_lb + 1):
                row(prev, eta, cur[eta, :m], pick[eta])
                if cur[eta].max() < 0:
                    break
            cur[0, m - 1] = 0
        roots.append(cur[:, 0].copy())
        choices.append(pick)
        layers.append(cur)
        prev = cur
    return roots, choices, layers
