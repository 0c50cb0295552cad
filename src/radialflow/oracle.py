"""Exhaustive reference optimum for small networks.

Enumerates every acyclic, node-covering edge subset by a binary include or
exclude descent with a rollback union-find, solves each candidate forest
exactly, and keeps the cheapest feasible one.  Intended for cross-checking
the greedy construction; guarded by hard size limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import ImbalanceError, TooLarge
from .network_model import DistributionNetwork, RadialConfiguration
from .tree_flow import solve_forest

DEFAULT_MAX_NODES = 12
DEFAULT_MAX_EDGES = 18


@dataclass(frozen=True)
class OracleResult:
    """Best configuration found, if any, plus enumeration counters.

    ``enumerated_count`` counts acyclic subsets covering every node,
    including multi-component forests; ``feasible_count`` those whose
    components also balance.  ``optimal_cost`` is infinite when nothing
    is feasible.
    """

    optimum: RadialConfiguration | None
    optimal_cost: float
    feasible_count: int
    enumerated_count: int


def enumerate_optimal(net: DistributionNetwork, *,
                      max_nodes: int = DEFAULT_MAX_NODES,
                      max_edges: int = DEFAULT_MAX_EDGES) -> OracleResult:
    """Find the cheapest feasible radial configuration by enumeration.

    Raises:
        TooLarge: If the network exceeds ``max_nodes`` or ``max_edges``.
    """
    if net.n > max_nodes:
        raise TooLarge(f"{net.n} nodes exceeds oracle limit {max_nodes}")
    if net.m > max_edges:
        raise TooLarge(f"{net.m} edges exceeds oracle limit {max_edges}")
    if net.n == 1:
        empty = RadialConfiguration((), (), 0.0)
        return OracleResult(empty, 0.0, 1, 1)

    n, m = net.n, net.m
    parent = list(range(n))
    size = [1] * n
    cover = [0] * n
    chosen: list[int] = []
    uncovered = n
    enumerated = 0
    feasible = 0
    best_cost = math.inf
    best: RadialConfiguration | None = None

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def dfs(idx: int) -> None:
        nonlocal uncovered, enumerated, feasible, best_cost, best
        if uncovered > 2 * (m - idx):
            return
        if idx == m:
            # the prune above has returned unless every node is covered
            enumerated += 1
            try:
                sol = solve_forest(net, chosen)
            except ImbalanceError:
                return
            feasible += 1
            if sol.cost < best_cost:
                best_cost = sol.cost
                best = RadialConfiguration(sol.oriented_edges, sol.flows,
                                           sol.cost)
            return

        u, v, _ = net.edges[idx]
        ru, rv = find(u), find(v)
        if ru != rv:
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            for w in (u, v):
                cover[w] += 1
                if cover[w] == 1:
                    uncovered -= 1
            chosen.append(idx)

            dfs(idx + 1)

            chosen.pop()
            for w in (u, v):
                cover[w] -= 1
                if cover[w] == 0:
                    uncovered += 1
            size[ru] -= size[rv]
            parent[rv] = rv
        dfs(idx + 1)

    dfs(0)
    return OracleResult(best, best_cost, feasible, enumerated)
