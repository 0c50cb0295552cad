"""Seeded input builders for the benchmark's workloads.

Everything here is plain Python and imports nothing from the program: a
builder returns raw network data (names, ``(u, v, c)`` edges over node ids,
injections) or :class:`~radialflow.GenSpec` keyword arguments, and the worker
process hands it to the program.  Each builder takes its random source as an
argument, so a workload seed maps to exactly one set of inputs.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass

#: Seeds handed to the program's generator are drawn above 2**SEED_BITS, far
#: from the small integer seeds (0 to a few thousand) that the test suite uses.
SEED_BITS = 48
#: Feeder systems: share of buses that are substations, substations per area,
#: and the chance that a new bus continues its tree's latest chain.
SUBSTATION_SHARE = 0.01
AREA = 5
CHAIN_PROB = 0.9


def instance_rng(workload: str, seed: int, *parts: object) -> random.Random:
    """Independent random source for one instance of a workload."""
    return random.Random("/".join(map(str, (workload, seed, *parts))))


def generator_seed(rng: random.Random) -> int:
    """Integer seed for the program's own generator, disjoint from the tests'."""
    return (1 << SEED_BITS) | rng.getrandbits(SEED_BITS)


def balance(p: list[float], fix: int) -> None:
    """Make ``p`` sum to zero by setting ``p[fix]``; the rest stays as drawn."""
    p[fix] = 0.0
    p[fix] = -math.fsum(p)


def feeder(rng: random.Random, n: int, *, tie_share: float,
           scale: float = 1.0) -> tuple[list[str], list[tuple[int, int, float]], list[float]]:
    """A distribution system of ``n`` buses fed by several substations.

    ``SUBSTATION_SHARE`` of the buses are substations, in areas of ``AREA``.
    Every other bus hangs off one substation's tree: it continues the tree's
    current chain with probability ``CHAIN_PROB`` and otherwise starts a
    lateral from a random earlier bus of that tree, so the trees are long
    radial chains.  Within an area one line joins each substation's tree to
    the next one's; between areas a line joins the two substations.  That
    makes the whole system one tree.  Then ``tie_share * n`` tie lines close
    loops: the first ones add a second line between neighbouring trees of an
    area, the rest join a bus to another bus three to eight hops away.
    Demands are uniform in [0.5, 1.5] times ``scale``; the substations share
    the supply equally.
    """
    subs = max(1, round(n * SUBSTATION_SHARE))
    names = [f"b{i:05d}" for i in range(n)]
    members: list[list[int]] = [[s] for s in range(subs)]
    tree: list[tuple[int, int]] = []
    for v in range(subs, n):
        group = members[rng.randrange(subs)]
        if len(group) > 1 and rng.random() < CHAIN_PROB:
            u = group[-1]
        else:
            u = group[rng.randrange(len(group))]
        tree.append((u, v))
        group.append(v)

    def far_bus(group: list[int]) -> int:
        return group[rng.randrange(1, len(group))] if len(group) > 1 else group[0]

    ties = round(n * tie_share)
    pairs: set[tuple[int, int]] = set()
    for k in range(subs - 1):
        if (k + 1) % AREA == 0:
            tree.append((k, k + 1))
            pairs.add((k, k + 1))
            continue
        for _ in range(2 if k < ties else 1):
            while True:
                key = tuple(sorted((far_bus(members[k]), far_bus(members[k + 1]))))
                if key not in pairs:
                    break
            tree.append(key)
            pairs.add(key)
    ties -= min(ties, subs - 1)

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in tree:
        adj[u].append(v)
        adj[v].append(u)
    pairs.update(tree)
    while ties:
        u = rng.randrange(subs, n)
        depth = {u: 0}
        queue = deque([u])
        reach: list[int] = []
        while queue:
            x = queue.popleft()
            if depth[x] >= 3:
                reach.append(x)
            if depth[x] < 8:
                for y in adj[x]:
                    if y not in depth:
                        depth[y] = depth[x] + 1
                        queue.append(y)
        if not reach:
            continue
        w = reach[rng.randrange(len(reach))]
        key = (min(u, w), max(u, w))
        if key in pairs:
            continue
        pairs.add(key)
        ties -= 1

    edges = [(u, v, rng.uniform(0.1, 1.0)) for u, v in sorted(pairs)]
    p = [0.0] * n
    for v in range(subs, n):
        p[v] = -rng.uniform(0.5, 1.5) * scale
    share = -math.fsum(p) / subs
    for s in range(subs):
        p[s] = share
    balance(p, 0)
    return names, edges, p


def small_tree(rng: random.Random, n: int) -> tuple[list[str], list[tuple[int, int, float]], list[float]]:
    """Random tree on ``n`` nodes with one supply at node 0."""
    names = [f"v{i:02d}" for i in range(n)]
    edges = [(rng.randrange(v), v, rng.uniform(0.1, 2.0)) for v in range(1, n)]
    p = [0.0] + [-rng.uniform(0.5, 1.5) for _ in range(n - 1)]
    balance(p, 0)
    return names, edges, p


def small_mesh_spec(rng: random.Random, n: int, shape: int) -> dict:
    """Keyword arguments for ``GenSpec``: a ring mesh of ``n`` nodes.

    ``shape`` steps through lattice degree, rewiring and supply count (1 to
    ``n // 3``) in turn, so that every run has the same mix; the random
    source draws only the generator seed.  Lattice degree four is used only
    for 6 to 9 nodes, where the edge count stays within 18.
    """
    k = 4 if 6 <= n <= 9 and shape % 2 else 2
    return {"n": n, "k": k, "beta": (0.0, 0.2, 0.5)[shape // 2 % 3],
            "n_sources": 1 + shape // 6 % max(1, n // 3), "seed": generator_seed(rng)}


@dataclass(frozen=True)
class Item:
    """One input network, before the program has built it.

    ``kind`` is ``"generate"`` (``args`` are ``GenSpec`` keyword arguments)
    or ``"build"`` (``args`` are ``build_network``'s names, edges and
    injections).  ``largest`` marks the networks the per-solve medians are
    taken over.
    """

    kind: str
    args: object
    n: int
    largest: bool = True


#: mesh_ws size ladder: networks per rung, and the supply count that the
#: program's ``default_source_count`` gives for that size.
MESH_LADDER = {50: (200, 10), 100: (24, 10), 200: (8, 10), 400: (24, 20)}
FEEDER_TIES = {"count": 36, "n": 3000, "tie_share": 0.03}
RADIAL_JSON = {"count": 3, "n": 20000}
SMALL_EXACT = {"count": 560}


def plan(workload: str, seed: int) -> list[Item]:
    """The input networks of one run of ``workload``."""
    items: list[Item] = []
    if workload == "mesh_ws":
        top = max(MESH_LADDER)
        for n, (count, supplies) in MESH_LADDER.items():
            for i in range(count):
                items.append(Item("generate", {
                    "n": n, "k": 4, "beta": 0.2, "n_sources": supplies,
                    "seed": generator_seed(instance_rng(workload, seed, n, i))},
                    n, n == top))
    elif workload == "feeder_ties":
        n = FEEDER_TIES["n"]
        for i in range(FEEDER_TIES["count"]):
            items.append(Item("build", feeder(instance_rng(workload, seed, i), n,
                                              tie_share=FEEDER_TIES["tie_share"]), n))
    elif workload == "radial_json":
        n = RADIAL_JSON["n"]
        for i in range(RADIAL_JSON["count"]):
            items.append(Item("build", feeder(instance_rng(workload, seed, i), n,
                                              tie_share=0.0), n))
        # Injections in watts; the same document for every seed.
        items.append(Item("build", feeder(instance_rng(workload, "watts"), n, tie_share=0.0,
                                          scale=1e6), n))
    elif workload == "small_exact":
        # Sizes 4 to 10 in turn; of every four networks of a size, three are
        # meshes and one is a tree.  The mix is the same for every seed.
        for i in range(SMALL_EXACT["count"]):
            rng = instance_rng(workload, seed, i)
            n, shape = 4 + i % 7, i // 7
            if shape % 4 == 3:
                items.append(Item("build", small_tree(rng, n), n))
            else:
                spec = small_mesh_spec(rng, n, shape // 4 * 3 + shape % 4)
                items.append(Item("generate", spec, n))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items
