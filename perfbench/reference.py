"""Independent reference computations and the output checker.

Nothing here imports the program.  Networks and configurations are read from
their JSON documents, so every check rests on the public file formats alone:

* :func:`lower_bound` - the electrical-flow bound: min sum(C x^2) subject to
  conservation, without radiality, as p' L^+ p for the weighted Laplacian L.
* :func:`tree_flow_cost` - the unique flow of a tree network by subtree sums.
* :func:`exact_optimum` - the cheapest radial configuration of a small
  network, by enumerating spanning trees of balanced node sets.
* :func:`check` - the structural, flow and cost checks on one output.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

#: Relative tolerance between a declared cost and any recomputed one.
COST_RTOL = 1e-9
#: Conservation residual allowed per node, as a share of sum(|p|).
FLOW_RTOL = 1e-10
#: A node set balances when |sum(p)| is within this share of sum(|p|) over
#: the whole network, floored at 1: the model's own balance rule.
BALANCE_RTOL = 1e-9


@dataclass(frozen=True)
class Network:
    """A network document in index form; ids follow the document's order."""

    names: tuple[str, ...]
    p: tuple[float, ...]
    edges: tuple[tuple[int, int, float], ...]

    @property
    def n(self) -> int:
        return len(self.names)

    def scale(self) -> float:
        return max(1.0, math.fsum(abs(v) for v in self.p))

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1


def parse_network(text: str) -> Network:
    doc = json.loads(text)
    names = tuple(node["name"] for node in doc["nodes"])
    ids = {name: i for i, name in enumerate(names)}
    edges = tuple((ids[e["u"]], ids[e["v"]], float(e["c"])) for e in doc["edges"])
    return Network(names, tuple(float(node["p"]) for node in doc["nodes"]), edges)


def _contract_free_edges(net: Network) -> list[int]:
    """Class of each node once edges with zero coefficient are contracted."""
    parent = list(range(net.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, c in net.edges:
        if c == 0.0:
            parent[find(u)] = find(v)
    roots = sorted({find(v) for v in range(net.n)})
    index = {r: i for i, r in enumerate(roots)}
    return [index[find(v)] for v in range(net.n)]


def lower_bound(net: Network) -> float:
    """min sum(C x^2) over all conservative flows of a connected network.

    The minimiser is the electrical flow with conductances 1/C, whose cost is
    p' L^+ p.  Edges with C = 0 carry flow for free, so their endpoints are
    merged first; one node of the rest is grounded and L is solved sparsely.
    """
    cls = _contract_free_edges(net)
    size = max(cls) + 1
    if size == 1:
        return 0.0
    p = np.zeros(size)
    np.add.at(p, cls, net.p)
    rows, cols, vals = [], [], []
    for u, v, c in net.edges:
        a, b = cls[u], cls[v]
        if a == b:
            continue
        g = 1.0 / c
        rows += [a, b, a, b]
        cols += [a, b, b, a]
        vals += [g, g, -g, -g]
    lap = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(size, size))
    theta = scipy.sparse.linalg.spsolve(lap[1:, 1:], p[1:])
    return float(np.dot(p[1:], theta))


def tree_flow_cost(net: Network) -> float:
    """Cost of the only conservative flow on a tree network.

    Each edge carries the injection total of the subtree below it, found by
    visiting the nodes from node 0 outwards and summing back in reverse.
    """
    if not net.is_tree():
        raise ValueError("network is not a tree")
    adj: list[list[tuple[int, float]]] = [[] for _ in range(net.n)]
    for u, v, c in net.edges:
        adj[u].append((v, c))
        adj[v].append((u, c))
    order = [0]
    up_cost = [0.0] * net.n
    parent = [-1] * net.n
    parent[0] = 0
    for x in order:
        for y, c in adj[x]:
            if parent[y] < 0:
                parent[y] = x
                up_cost[y] = c
                order.append(y)
    if len(order) != net.n:
        raise ValueError("network is not connected")
    subtree = list(net.p)
    terms = []
    for x in reversed(order[1:]):
        terms.append(up_cost[x] * subtree[x] ** 2)
        subtree[parent[x]] += subtree[x]
    return math.fsum(terms)


def _best_spanning_tree_flow(net: Network, nodes: list[int]) -> float:
    """Cheapest tree flow over the spanning trees of the subgraph on ``nodes``.

    An edge set of size |nodes| - 1 is a spanning tree exactly when its
    reduced incidence matrix (one node dropped) is nonsingular, and then the
    matrix's determinant is +-1 and B x = p gives the tree's unique flow.
    All candidate sets are tested and solved at once.
    """
    pos = {v: i for i, v in enumerate(nodes)}
    inner = [(pos[u], pos[v], c) for u, v, c in net.edges if u in pos and v in pos]
    k = len(nodes) - 1
    if len(inner) < k:
        return math.inf
    combos = np.array(list(itertools.combinations(range(len(inner)), k)), dtype=np.intp)
    incidence = np.zeros((len(nodes), len(inner)))
    for j, (a, b, _) in enumerate(inner):
        incidence[a, j] = 1.0
        incidence[b, j] = -1.0
    mats = incidence[1:, :][:, combos].transpose(1, 0, 2)
    trees = np.abs(np.linalg.det(mats)) > 0.5
    if not trees.any():
        return math.inf
    rhs = np.array([net.p[v] for v in nodes[1:]])
    flows = np.linalg.solve(mats[trees], np.broadcast_to(rhs, (int(trees.sum()), k))[..., None])[..., 0]
    coeffs = np.array([c for _, _, c in inner])[combos[trees]]
    costs = np.sum(coeffs * flows ** 2, axis=1)
    return float(costs.min())


def exact_optimum(net: Network) -> float:
    """Cost of the cheapest radial configuration, by exhaustive search.

    A radial configuration is a forest covering every node whose trees each
    balance.  Every balanced, connected node set of two or more nodes gets
    the cheapest flow over its spanning trees; a dynamic programme over node
    subsets then picks the cheapest cover by disjoint such sets.  Meant for
    networks of a dozen nodes or fewer.  Returns ``inf`` if none is feasible.
    """
    n = net.n
    if n == 1:
        return 0.0
    tol = BALANCE_RTOL * net.scale()
    adj = [0] * n
    for u, v, _ in net.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def connected(mask: int) -> bool:
        low = mask & -mask
        seen = low
        frontier = low
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            new = adj[bit.bit_length() - 1] & mask & ~seen
            seen |= new
            frontier |= new
        return seen == mask

    groups: dict[int, float] = {}
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            continue
        nodes = [v for v in range(n) if mask >> v & 1]
        if abs(math.fsum(net.p[v] for v in nodes)) > tol or not connected(mask):
            continue
        cost = _best_spanning_tree_flow(net, nodes)
        if cost < math.inf:
            groups[mask] = cost

    best = {0: 0.0}
    for mask in range(1, 1 << n):
        low = mask & -mask
        options = [cost + best[mask ^ g] for g, cost in groups.items()
                   if g & low and g & mask == g and best.get(mask ^ g, math.inf) < math.inf]
        if options:
            best[mask] = min(options)
    return best.get((1 << n) - 1, math.inf)


def check(net: Network, text: str, *, bound: float, tree_cost: float | None = None,
          optimum: float | None = None) -> tuple[float, list[str]]:
    """Check one configuration document.

    Returns the cost recomputed as sum(C x^2) and the problems found; no
    problems means the output is correct.

    Args:
        net: The network the configuration claims to solve.
        text: The configuration document, ``{"edges": [{u, v, flow}], "cost": c}``.
        bound: :func:`lower_bound` of ``net``; the cost may not fall below it.
        tree_cost: :func:`tree_flow_cost` when ``net`` is a tree; the cost
            must equal it.
        optimum: :func:`exact_optimum`, when known; the cost may not fall
            below it, and must equal it on a tree.
    """
    problems: list[str] = []
    try:
        doc = json.loads(text)
        declared = float(doc["cost"])
        items = [(e["u"], e["v"], float(e["flow"])) for e in doc["edges"]]
    except (ValueError, KeyError, TypeError) as exc:
        return math.nan, [f"unreadable configuration: {exc!r}"]

    ids = {name: i for i, name in enumerate(net.names)}
    coeff = {(min(u, v), max(u, v)): c for u, v, c in net.edges}
    parent = list(range(net.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    outflow = [0.0] * net.n
    inflow = [0.0] * net.n
    indegree = [0] * net.n
    covered = [False] * net.n
    seen: set[tuple[int, int]] = set()
    terms = []
    for tail_name, head_name, x in items:
        if tail_name not in ids or head_name not in ids:
            problems.append(f"edge {tail_name}->{head_name} names an unknown node")
            continue
        tail, head = ids[tail_name], ids[head_name]
        key = (min(tail, head), max(tail, head))
        if key not in coeff:
            problems.append(f"edge {tail_name}->{head_name} is not a network edge")
            continue
        if key in seen or find(tail) == find(head):
            problems.append(f"edge {tail_name}->{head_name} closes a cycle")
            continue
        seen.add(key)
        parent[find(tail)] = find(head)
        if not (math.isfinite(x) and x >= 0.0):
            problems.append(f"edge {tail_name}->{head_name} carries flow {x!r}")
        covered[tail] = covered[head] = True
        indegree[head] += 1
        outflow[tail] += x
        inflow[head] += x
        terms.append(coeff[key] * x * x)
    cost = math.fsum(terms)
    if problems:
        return cost, problems

    if net.n > 1 and not all(covered):
        problems.append(f"{covered.count(False)} node(s) not covered")
    for v in range(net.n):
        if covered[v] and indegree[v] == 0 and net.p[v] < 0:
            problems.append(f"root {net.names[v]} has negative injection")
    tol = FLOW_RTOL * net.scale()
    worst = max(abs(outflow[v] - inflow[v] - net.p[v]) for v in range(net.n))
    if worst > tol:
        problems.append(f"conservation residual {worst:.3e} exceeds {tol:.3e}")
    if not math.isclose(declared, cost, rel_tol=COST_RTOL):
        problems.append(f"declared cost {declared!r} differs from sum(C x^2) = {cost!r}")
    if cost < bound * (1.0 - COST_RTOL):
        problems.append(f"cost {cost!r} is below the lower bound {bound!r}")
    if tree_cost is not None and not math.isclose(cost, tree_cost, rel_tol=COST_RTOL):
        problems.append(f"cost {cost!r} differs from the tree flow cost {tree_cost!r}")
    if optimum is not None:
        if cost < optimum * (1.0 - COST_RTOL):
            problems.append(f"cost {cost!r} is below the exhaustive optimum {optimum!r}")
        if net.is_tree() and not math.isclose(cost, optimum, rel_tol=COST_RTOL):
            problems.append(f"cost {cost!r} on a tree differs from the optimum {optimum!r}")
    return cost, problems
