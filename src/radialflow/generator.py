"""Seeded synthetic network instances on small-world topologies.

Starts from a ring lattice, rewires each lattice edge with fixed probability
while refusing rewires that would disconnect the graph, then assigns supplies,
demands, and edge coefficients.  Everything is driven by one seeded RNG in a
frozen draw order, so a spec maps to exactly one network.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .exceptions import InvalidSpec
from .network_model import DistributionNetwork, build_network


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one synthetic instance.

    ``n_sources`` nodes share the total demand equally as supply; the rest
    draw a demand uniformly from ``demand_range``.  Edge cost coefficients
    come uniformly from ``resistance_range``.
    """

    n: int
    k: int = 4
    beta: float = 0.2
    n_sources: int = 1
    demand_range: tuple[float, float] = (0.5, 1.5)
    resistance_range: tuple[float, float] = (0.1, 1.0)
    seed: int = 0


def _check(spec: GenSpec) -> None:
    if spec.n < 2:
        raise InvalidSpec("need at least two nodes")
    if spec.k < 2 or spec.k % 2 != 0:
        raise InvalidSpec("lattice degree k must be even and at least 2")
    if spec.k >= spec.n:
        raise InvalidSpec("lattice degree k must be smaller than n")
    if not 0.0 <= spec.beta <= 1.0:
        raise InvalidSpec("rewiring probability must lie in [0, 1]")
    if not 1 <= spec.n_sources < spec.n:
        raise InvalidSpec("need between 1 and n-1 supply nodes")
    for label, (lo, hi) in (("demand_range", spec.demand_range),
                            ("resistance_range", spec.resistance_range)):
        if not (0 < lo <= hi):
            raise InvalidSpec(f"{label} must satisfy 0 < lo <= hi")


def generate(spec: GenSpec) -> DistributionNetwork:
    """Build the network described by ``spec``.

    Raises:
        InvalidSpec: If the parameters are out of range.
    """
    _check(spec)
    n, k = spec.n, spec.k
    rng = random.Random(spec.seed)

    edges: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(1, k // 2 + 1):
            u, v = i, (i + j) % n
            edges.add((min(u, v), max(u, v)))

    # One rewiring sweep per lattice offset.  A proposed target is scanned
    # from a random starting point; targets that self-loop, duplicate an
    # existing edge, or disconnect the graph are skipped, and the original
    # edge stays if every target fails.  Swapping (i, x) for (i, w) keeps the
    # graph connected exactly when, without (i, x), x reaches i or w.
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for j in range(1, k // 2 + 1):
        for i in range(n):
            if rng.random() >= spec.beta:
                continue
            x = (i + j) % n
            old = (min(i, x), max(i, x))
            if old not in edges:
                continue
            offset = rng.randrange(n)
            reach = None
            for step in range(n):
                w = (offset + step) % n
                cand = (min(i, w), max(i, w))
                if w == i or cand in edges:
                    continue
                reach = reach or _reach(nbrs, x, i)
                if i in reach or w in reach:
                    edges.remove(old)
                    edges.add(cand)
                    nbrs[x].remove(i)
                    nbrs[i].remove(x)
                    nbrs[i].add(w)
                    nbrs[w].add(i)
                    break

    sources = sorted(rng.sample(range(n), spec.n_sources))
    source_set = set(sources)
    p = [0.0] * n
    lo, hi = spec.demand_range
    for i in range(n):
        if i not in source_set:
            p[i] = -rng.uniform(lo, hi)
    share = -math.fsum(p) / spec.n_sources
    for s in sources:
        p[s] = share
    # The first supply absorbs the split remainder.  That can still leave a
    # sub-ulp residue when the supply sits on a coarser bit grid than the
    # residue, so push what is left onto the smallest entry, which is always
    # able to represent it, until the total is exactly zero.
    p[sources[0]] = 0.0
    p[sources[0]] = -math.fsum(p)
    for _ in range(8):
        drift = math.fsum(p)
        if drift == 0.0:
            break
        j = min(range(n), key=lambda v: (abs(p[v]), v))
        p[j] -= drift

    rlo, rhi = spec.resistance_range
    edge_list = [(u, v, rng.uniform(rlo, rhi)) for u, v in sorted(edges)]

    width = len(str(n - 1))
    names = [f"v{i:0{width}d}" for i in range(n)]
    meta = {"generator": {
        "n": n, "k": k, "beta": spec.beta, "n_sources": spec.n_sources,
        "demand_range": list(spec.demand_range),
        "resistance_range": list(spec.resistance_range), "seed": spec.seed}}
    return build_network(names, edge_list, p, meta)


def _reach(nbrs: list[set[int]], start: int, goal: int) -> set[int]:
    """Nodes a breadth-first search from ``start`` reaches without its edge
    to ``goal``, stopping at ``goal``.  Short of ``goal`` it holds the whole
    component of ``start``, so one search serves every target of a swap."""
    seen = {start}
    queue = [start]
    for u in queue:
        for y in nbrs[u]:
            if y not in seen and (u != start or y != goal):
                seen.add(y)
                if y == goal:
                    return seen
                queue.append(y)
    return seen
