"""The peeled graph as one partition, and the shared split arithmetic.

Peeling leaves the 2-core of a connected graph, which is connected, so it
is solved as one partition.  Growth splits it at supply super nodes that are
cut vertices of the condensation, articulation supplies among them (see
:func:`~radialflow.forward_engine.split_at_cut`); this module holds the cut
search, the replica share rule and the balance check that split uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

from .exceptions import InfeasibleSplit
from .network_model import GraphView, balance_tolerance


@dataclass(frozen=True)
class PartitionView:
    """One independently solvable piece of a graph.

    Attributes:
        index: Position in the partition list, named in errors.
        graph: Nodes and edges of the partition, in parent-network ids.
        injections: Per-node injection used inside this partition.
        sources: Nodes with positive injection inside this partition.
    """

    index: int
    graph: GraphView
    injections: dict[int, float]
    sources: frozenset[int]


def lowpoint(roots: Iterable[int],
             adj: Mapping[int, Collection[int]] | Sequence[Collection[int]],
             ) -> set[int]:
    """Articulation points of a simple graph.

    Iterative Tarjan lowpoint walk from each node of ``roots`` (every node)
    not yet reached, in order; ``adj`` gives each node's distinct neighbors,
    visited in ascending order.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    artics: set[int] = set()
    clock = 0

    for start in roots:
        if start in disc:
            continue
        disc[start] = low[start] = clock
        clock += 1
        root_children = 0
        stack = [(start, -1, iter(sorted(adj[start])))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if w == parent:
                    continue
                if w not in disc:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, v, iter(sorted(adj[w]))))
                    break
                low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    if len(stack) > 1:
                        artics.add(u)
                    else:
                        root_children += 1
        if root_children > 1:
            artics.add(start)
    return artics


def islander(view: GraphView, injections: Sequence[float]) -> list[PartitionView]:
    """The peeled graph as one partition.

    Args:
        view: Connected graph left by peeling.
        injections: Full-length injection vector (parent-network ids); supply
            nodes are those with a strictly positive entry.

    Returns:
        One partition over the whole view, nodes and edges sorted.

    Raises:
        InfeasibleSplit: If the injections fail to balance, which indicates
            corrupt input rather than a property of valid networks.
    """
    inj = {v: float(injections[v]) for v in sorted(view.nodes)}
    _check_balance(inj, 0)
    return [PartitionView(0, GraphView(view.net, tuple(inj),
                                       tuple(sorted(view.edge_indices))),
                          inj, frozenset(v for v, p in inj.items() if p > 0))]


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
