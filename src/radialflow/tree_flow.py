"""Exact flow solve on forests by leaf elimination.

On a forest the conservation equations have exactly one solution, found in
linear time by repeatedly settling leaves: a leaf's only incident edge must
carry the leaf's entire accumulated injection.  Edge orientation follows the
sign of that value, so the solved flow is always non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .exceptions import CycleError, ImbalanceError
from .network_model import (BALANCE_RTOL, DistributionNetwork,
                            balance_tolerance, quadratic_cost)
from .preprocessor import peel


@dataclass(frozen=True)
class ForestFlowSolution:
    """Solved orientation and flows for a forest edge subset.

    Attributes:
        oriented_edges: ``(tail, head)`` per edge, flow runs tail to head.
        flows: Non-negative flow magnitudes, aligned with ``oriented_edges``.
        edge_indices: Parent-network edge index per entry.
        cost: Total quadratic cost ``sum(C * x**2)``; ``inf`` if it overflows.
        zero_flow_edges: Positions carrying exactly zero flow.
    """

    oriented_edges: tuple[tuple[int, int], ...]
    flows: tuple[float, ...]
    edge_indices: tuple[int, ...]
    cost: float
    zero_flow_edges: tuple[int, ...]


def solve_forest(net: DistributionNetwork, forest_edges: Iterable[int], *,
                 peeled: tuple[list, list[float], tuple] | None = None) -> ForestFlowSolution:
    """Solve conservation on a forest-shaped subset of network edges.

    Args:
        net: Parent network supplying edge endpoints and cost coefficients.
        forest_edges: Edge indices forming the forest (order is irrelevant).
        peeled: The steps of :func:`~radialflow.preprocessor.peel` over
            exactly these edges, in any order, the injections it left and
            the ``(tail, head)`` the steps give their edges; the edges are
            then not peeled again, and that orientation is kept if the steps
            come in ``forest_edges`` order.

    Raises:
        CycleError: If the edge subset contains a cycle.
        ImbalanceError: If some component's injections do not cancel.
    """
    edge_list = list(forest_edges)
    if peeled is None:
        p = list(net.injections)
        peeled = peel(net, edge_list, p)[0], p, None
    steps, p, oriented = peeled
    idxs = list(map(itemgetter(2), steps))
    if len(idxs) != len(edge_list):
        settled = set(idxs)
        u, v, _ = net.edges[next(i for i in edge_list if i not in settled)]
        raise CycleError(
            f"edge subset is not a forest: cycle through ({net.names[u]}, {net.names[v]})")

    # a leaf keeps 0.0, so a residual can only stay on a neighbor; the
    # tolerance, a sum over every injection, is never below BALANCE_RTOL
    worst = max([abs(p[j]) for _, j, _, _ in steps], default=0.0)
    if worst > BALANCE_RTOL and worst > balance_tolerance(net.injections):
        # ascending, so that the error names the first node of largest residual
        covered = sorted({v for i, j, _, _ in steps for v in (i, j)})
        bad = max(covered, key=lambda v: abs(p[v]))
        raise ImbalanceError(
            f"component injections do not cancel: residual {p[bad]!r} at {net.names[bad]}")

    if idxs != edge_list:
        steps = list(map(dict(zip(idxs, steps)).__getitem__, edge_list))
        oriented = None
    flows = tuple([x if x >= 0 else -x for _, _, _, x in steps])
    if oriented is None:
        oriented = tuple([(i, j) if x >= 0 else (j, i) for i, j, _, x in steps])
    cost = quadratic_cost([net.edges[idx][2] for idx in edge_list], flows)
    zero = tuple(i for i, x in enumerate(flows) if x == 0.0)
    return ForestFlowSolution(oriented, flows, tuple(edge_list), cost, zero)
