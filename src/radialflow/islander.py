"""Partitioning at articulation sources.

A supply node whose removal disconnects the graph can be split: each side
receives a replica of the node carrying just the injection that side needs,
and the sides are solved independently.  Cut vertices that are not supply
nodes must not be split, so biconnected components sharing such a vertex are
merged into one partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

from .exceptions import InfeasibleSplit
from .network_model import GraphView, balance_tolerance, find


@dataclass(frozen=True)
class PartitionView:
    """One independently solvable piece of a graph.

    Attributes:
        index: Position in the partition list (blocks sorted by min node id).
        graph: Nodes and edges of the partition, in parent-network ids.
        injections: Per-node injection used inside this partition; replicated
            nodes carry their branch share rather than the original value.
        sources: Nodes with positive injection inside this partition.
        replicated_nodes: For each node shared with other partitions, the
            sorted indices of all partitions containing it.
    """

    index: int
    graph: GraphView
    injections: dict[int, float]
    sources: frozenset[int]
    replicated_nodes: dict[int, tuple[int, ...]]


def lowpoint(roots: Iterable[int],
             adj: Mapping[int, Collection[int]] | Sequence[Collection[int]],
             ) -> tuple[set[int], list[list[tuple[int, int]]]]:
    """Articulation points and biconnected components of a simple graph.

    Iterative Tarjan lowpoint walk from each node of ``roots`` (every node)
    not yet reached, in order; ``adj`` gives each node's distinct neighbors,
    visited in ascending order.  Components are lists of ``(node, neighbor)``
    edges in stack-pop order.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    artics: set[int] = set()
    comps: list[list[tuple[int, int]]] = []
    clock = 0

    for start in roots:
        if start in disc:
            continue
        disc[start] = low[start] = clock
        clock += 1
        estack: list[tuple[int, int]] = []
        root_children = 0
        stack = [(start, -1, iter(sorted(adj[start])))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if w == parent:
                    continue
                if w not in disc:
                    estack.append((v, w))
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, v, iter(sorted(adj[w]))))
                    break
                if disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    comp: list[tuple[int, int]] = []
                    while estack:
                        e = estack.pop()
                        comp.append(e)
                        if e == (u, v):
                            break
                    comps.append(comp)
                    if len(stack) > 1:
                        artics.add(u)
                    else:
                        root_children += 1
        if root_children > 1:
            artics.add(start)
    return artics, comps


def _biconnected(view: GraphView) -> tuple[set[int], list[list[int]]]:
    """Articulation points and biconnected components (as edge index lists)."""
    adj: dict[int, list[int]] = {v: [] for v in view.nodes}
    index: dict[tuple[int, int], int] = {}
    for idx in view.edge_indices:
        u, v, _ = view.net.edges[idx]
        adj[u].append(v)
        adj[v].append(u)
        index[u, v] = index[v, u] = idx
    artics, comps = lowpoint(sorted(view.nodes), adj)
    return artics, [[index[e] for e in comp] for comp in comps]


def islander(view: GraphView, injections: Sequence[float]) -> list[PartitionView]:
    """Split a graph at its articulation supply nodes.

    Args:
        view: Connected graph to split.
        injections: Full-length injection vector (parent-network ids); supply
            nodes are those with a strictly positive entry.

    Returns:
        Partitions ordered by smallest contained node id.  Without any
        articulation source this is a single partition over the whole view.

    Raises:
        InfeasibleSplit: If a partition's injections fail to balance, which
            indicates corrupt input rather than a property of valid networks.
    """
    net = view.net
    sources = {v for v in view.nodes if injections[v] > 0}
    artics, comps = _biconnected(view)
    split_at = artics & sources

    if not split_at or len(comps) <= 1:
        inj = {v: float(injections[v]) for v in view.nodes}
        _check_balance(inj, 0)
        return [PartitionView(0, GraphView(net, tuple(sorted(view.nodes)),
                                           tuple(sorted(view.edge_indices))),
                              inj, frozenset(v for v in inj if inj[v] > 0), {})]

    # Merge biconnected components across cut vertices that are not supplies.
    comp_nodes: list[set[int]] = []
    for comp in comps:
        nodes: set[int] = set()
        for idx in comp:
            u, v, _ = net.edges[idx]
            nodes.add(u)
            nodes.add(v)
        comp_nodes.append(nodes)

    parent = list(range(len(comps)))

    containing: dict[int, list[int]] = {}
    for ci, nodes in enumerate(comp_nodes):
        for v in nodes:
            containing.setdefault(v, []).append(ci)
    for a in sorted(artics - split_at):
        members = containing[a]
        for ci in members[1:]:
            ra, rb = find(parent, members[0]), find(parent, ci)
            if ra != rb:
                parent[rb] = ra

    groups: dict[int, list[int]] = {}
    for ci in range(len(comps)):
        groups.setdefault(find(parent, ci), []).append(ci)
    blocks: list[tuple[set[int], list[int]]] = []
    for members in groups.values():
        nodes: set[int] = set()
        edges: list[int] = []
        for ci in members:
            nodes |= comp_nodes[ci]
            edges.extend(comps[ci])
        blocks.append((nodes, sorted(edges)))
    blocks.sort(key=lambda b: min(b[0]))

    # Bipartite block / articulation-source tree, rooted per component at the
    # block holding the smallest node id.
    blocks_of: dict[int, list[int]] = {}
    for bi, (nodes, _) in enumerate(blocks):
        for a in sorted(nodes & split_at):
            blocks_of.setdefault(a, []).append(bi)

    parent_block: dict[int, int | None] = {}
    parent_artic: dict[int, int | None] = {}
    children_blocks: dict[int, list[int]] = {a: [] for a in blocks_of}
    order: list[int] = []
    seen_blocks: set[int] = set()
    for root in range(len(blocks)):
        if root in seen_blocks:
            continue
        parent_block[root] = None
        seen_blocks.add(root)
        queue = [root]
        while queue:
            bi = queue.pop(0)
            order.append(bi)
            for a in sorted(blocks[bi][0] & split_at):
                for nb in blocks_of[a]:
                    if nb in seen_blocks:
                        continue
                    seen_blocks.add(nb)
                    parent_block[nb] = bi
                    parent_artic[nb] = a
                    children_blocks[a].append(nb)
                    queue.append(nb)

    # Each node's injection is accounted at its hosting block: the unique one
    # for plain nodes, the parent-side block for replicated ones.
    host: dict[int, int] = {}
    for bi, (nodes, _) in enumerate(blocks):
        for v in nodes:
            if v not in split_at:
                host[v] = bi
    for a, bs in blocks_of.items():
        candidates = [bi for bi in bs if parent_artic.get(bi) != a]
        host[a] = candidates[0] if candidates else bs[0]

    weight = [0.0] * len(blocks)
    for v, bi in host.items():
        weight[bi] += injections[v]

    block_children: dict[int, list[int]] = {bi: [] for bi in range(len(blocks))}
    for bi, pb in parent_block.items():
        if pb is not None:
            block_children[pb].append(bi)
    subtotal = [0.0] * len(blocks)
    for bi in reversed(order):
        subtotal[bi] = weight[bi] + math.fsum(
            subtotal[c] for c in block_children[bi])

    shares: dict[tuple[int, int], float] = {}
    for a, children in children_blocks.items():
        host_share, child_shares = replica_shares(
            injections[a], [subtotal[c] for c in children])
        shares[a, host[a]] = host_share
        for c, share in zip(children, child_shares):
            shares[a, c] = share

    partitions: list[PartitionView] = []
    for bi, (nodes, edges) in enumerate(blocks):
        inj = {v: shares[v, bi] if v in split_at else float(injections[v])
               for v in sorted(nodes)}
        _check_balance(inj, bi)
        replicated = {a: tuple(sorted(blocks_of[a])) for a in sorted(nodes & split_at)
                      if len(blocks_of[a]) > 1}
        partitions.append(PartitionView(
            bi, GraphView(net, tuple(sorted(nodes)), tuple(edges)), inj,
            frozenset(v for v, p in inj.items() if p > 0), replicated))
    return partitions


def replica_shares(own: float, subtotals: Sequence[float],
                   ) -> tuple[float, list[float]]:
    """Injections for the replicas of a node split across several sides.

    ``subtotals`` holds the net injection of each side that is split off;
    its replica must absorb that side's net, so it carries the negated
    subtotal (a surplus side therefore sees its replica as a demand).  The
    host replica, on the side that stays attached, keeps the node's own
    injection ``own`` plus everything the split-off sides need.  The shares
    sum to ``own``.
    """
    return own + math.fsum(subtotals), [-s for s in subtotals]


def _check_balance(inj: dict[int, float], index: int, floor: float = 0.0,
                   total: float | None = None) -> None:
    """Raise unless the injections, summing to ``total`` if given, balance.

    The tolerance, a sum over every injection, is taken only past ``floor``.
    """
    if total is None:
        total = math.fsum(inj.values())
    if abs(total) > floor and abs(total) > balance_tolerance(inj.values()):
        raise InfeasibleSplit(
            f"partition {index} injections sum to {total!r}, expected zero")
