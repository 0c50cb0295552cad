"""Degree-one peeling: settle forced edges before the main construction.

A degree-one node has no routing choice, so its single edge is oriented
immediately from the sign of the node's accumulated injection and the value is
pushed onto the neighbor.  Peeling cascades until no degree-one node remains;
on a tree input this settles everything.  One array kernel, :func:`peel`,
does this for preprocessing and for the forest solve: per node it keeps the
degree and the XOR of its neighbor ids and of its edge indices, so a node of
degree one reads its last edge straight off the two XORs.  When peeling
settles every edge, as on a radial feeder, the forest solve reuses its steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .network_model import DistributionNetwork, GraphView


@dataclass(frozen=True)
class PreprocessResult:
    """Forced orientations plus the peeled graph left for growth.

    Attributes:
        presampled: ``(tail, head)`` per settled edge, in peel order.
        presampled_edge_indices: Parent edge index per settled edge.
        reduced: View of the nodes and edges still unresolved, nodes in
            ascending order and each node's edges in index order.
        reduced_injections: Injection per node of ``reduced`` after pushing.
        peeled: The steps of :func:`peel`, the injection per node id they
            left and ``presampled``, if they settle every edge; else None.
    """

    presampled: tuple[tuple[int, int], ...]
    presampled_edge_indices: tuple[int, ...]
    reduced: GraphView
    reduced_injections: dict[int, float]
    peeled: tuple[list[tuple[int, int, int, float]], list[float], tuple] | None

    @property
    def fully_reduced(self) -> bool:
        return not self.reduced.adj


def peel(net: DistributionNetwork, chosen: Iterable[int], p: list[float],
         ) -> tuple[list[tuple[int, int, int, float]], list[int]]:
    """Eliminate degree-one nodes of the ``chosen`` edges of ``net``.

    ``p`` holds the injection per node id and is updated in place: each
    leaf's injection is pushed onto its neighbor.  Leaves go in ascending id
    order, cascade-created leaves queued behind.  Returns the steps
    ``(leaf, neighbor, edge_index, value)`` in peel order, ``value`` being
    the leaf's whole accumulated injection (the edge carries ``abs(value)``,
    from leaf to neighbor when ``value >= 0``), and the degree per node id
    left once no leaf remains.  A repeated index or a self-loop counts twice
    at its ends, so such an edge is never settled.
    """
    edges = net.edges
    degree = [0] * net.n
    nbrs = [0] * net.n
    idxs = [0] * net.n
    for idx in chosen:
        u, v, _ = edges[idx]
        degree[u] += 1
        degree[v] += 1
        nbrs[u] ^= v
        nbrs[v] ^= u
        idxs[u] ^= idx
        idxs[v] ^= idx

    steps = []
    queue = [v for v, d in enumerate(degree) if d == 1]
    for i in queue:
        if degree[i] != 1:
            continue
        # the XORs of a degree-one node are its last neighbor and edge
        j = nbrs[i]
        idx = idxs[i]
        value = p[i]
        steps.append((i, j, idx, value))
        p[j] += value
        p[i] = 0.0
        degree[i] = 0
        nbrs[j] ^= i
        idxs[j] ^= idx
        degree[j] -= 1
        if degree[j] == 1:
            queue.append(j)
    return steps, degree


def preprocess(net: DistributionNetwork) -> PreprocessResult:
    """Peel degree-one nodes of the whole network (see :func:`peel`).

    The final node of a fully peeled component is dropped from the reduced
    view along with its (empty) edge set.
    """
    p = list(net.injections)
    steps, degree = peel(net, range(net.m), p)
    presampled = tuple([(i, j) if value >= 0 else (j, i)
                        for i, j, _, value in steps])
    pre_idx = tuple([idx for _, _, idx, _ in steps])

    reduced = {v: [] for v, d in enumerate(degree) if d}
    if reduced:
        done = set(pre_idx)
        for idx, (u, v, _) in enumerate(net.edges):
            if idx not in done:
                reduced[u].append((v, idx))
                reduced[v].append((u, idx))
    return PreprocessResult(presampled, pre_idx, GraphView(net, reduced),
                            {v: p[v] for v in reduced},
                            None if reduced else (steps, p, presampled))
