import random
from fractions import Fraction

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
