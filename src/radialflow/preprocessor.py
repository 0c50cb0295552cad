"""Degree-one peeling: settle forced edges before the main construction.

A degree-one node has no routing choice, so its single edge is oriented
immediately from the sign of the node's accumulated injection and the value is
pushed onto the neighbor.  Peeling cascades until no degree-one node remains;
on a tree input this settles everything.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping

from .network_model import DistributionNetwork, GraphView, full_view


@dataclass(frozen=True)
class PreprocessResult:
    """Forced orientations plus the peeled graph left for growth.

    Attributes:
        presampled: ``(tail, head)`` per settled edge, in peel order.
        presampled_edge_indices: Parent edge index per settled edge.
        reduced: View of the nodes and edges still unresolved, nodes in
            ascending order and each node's edges in index order.
        reduced_injections: Injection per node of ``reduced`` after pushing.
    """

    presampled: tuple[tuple[int, int], ...]
    presampled_edge_indices: tuple[int, ...]
    reduced: GraphView
    reduced_injections: dict[int, float]

    @property
    def fully_reduced(self) -> bool:
        return not self.reduced.adj


def peel(adj: Mapping[int, list[tuple[int, int]]], p: list[float],
         ) -> Iterator[tuple[int, int, int, float]]:
    """Eliminate degree-one nodes, pushing each leaf's injection inward.

    ``adj`` holds every node's ``(neighbor, edge_index)`` pairs and ``p`` the
    injection per node id, updated in place.  Leaves go in ascending id
    order, cascade-created leaves queued behind.  Yields ``(leaf, neighbor,
    edge_index, value)`` in peel order, ``value`` being the leaf's whole
    accumulated injection: the edge carries ``abs(value)``, from leaf to
    neighbor when ``value >= 0``.
    """
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    done: set[int] = set()
    queue: deque[int] = deque(v for v in sorted(adj) if degree[v] == 1)

    while queue:
        i = queue.popleft()
        if degree[i] != 1:
            continue
        j = -1
        eidx = -1
        for nb, k in adj[i]:
            if k not in done:
                j, eidx = nb, k
                break
        if eidx < 0:
            continue
        yield i, j, eidx, p[i]
        p[j] += p[i]
        p[i] = 0.0
        done.add(eidx)
        degree[i] -= 1
        degree[j] -= 1
        if degree[j] == 1:
            queue.append(j)


def preprocess(net: DistributionNetwork) -> PreprocessResult:
    """Peel degree-one nodes of the whole network (see :func:`peel`).

    The final node of a fully peeled component is dropped from the reduced
    view along with its (empty) edge set.
    """
    p = list(net.injections)
    adj = full_view(net).adj
    presampled: list[tuple[int, int]] = []
    pre_idx: list[int] = []
    for i, j, eidx, value in peel(adj, p):
        presampled.append((i, j) if value >= 0 else (j, i))
        pre_idx.append(eidx)

    done = set(pre_idx)
    kept = {v for idx, edge in enumerate(net.edges) if idx not in done
            for v in edge[:2]}
    reduced = {v: [e for e in adj[v] if e[1] not in done]
               for v in sorted(kept)}
    return PreprocessResult(tuple(presampled), tuple(pre_idx),
                            GraphView(net, reduced),
                            {v: p[v] for v in reduced})
