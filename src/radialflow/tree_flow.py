"""Exact flow solve on forests by leaf elimination.

On a forest the conservation equations have exactly one solution, found in
linear time by repeatedly settling leaves: a leaf's only incident edge must
carry the leaf's entire accumulated injection.  Edge orientation follows the
sign of that value, so the solved flow is always non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .exceptions import CycleError, ImbalanceError
from .network_model import (BALANCE_RTOL, DistributionNetwork,
                            balance_tolerance)
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
                 peeled: tuple[list, list[float]] | None = None) -> ForestFlowSolution:
    """Solve conservation on a forest-shaped subset of network edges.

    Args:
        net: Parent network supplying edge endpoints and cost coefficients.
        forest_edges: Edge indices forming the forest (order is irrelevant).
        peeled: The steps of :func:`~radialflow.preprocessor.peel` over
            exactly these edges, in any order, and the injections it left;
            the edges are then not peeled again.

    Raises:
        CycleError: If the edge subset contains a cycle.
        ImbalanceError: If some component's injections do not cancel.
    """
    edge_list = list(forest_edges)
    p = list(net.injections) if peeled is None else peeled[1]
    steps = peel(net, edge_list, p)[0] if peeled is None else peeled[0]
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
    flows = tuple([x if x >= 0 else -x for _, _, _, x in steps])
    oriented = tuple([(i, j) if x >= 0 else (j, i) for i, j, _, x in steps])
    # x * x rather than x ** 2: a square too large for a float is inf, where
    # the power raises OverflowError; a zero coefficient skips the square, as
    # 0 * inf is nan
    coeffs = [net.edges[idx][2] for idx in edge_list]
    cost = math.fsum([c * (x * x) if c else 0.0 for c, x in zip(coeffs, flows)])
    zero = tuple(i for i, x in enumerate(flows) if x == 0.0)
    return ForestFlowSolution(oriented, flows, tuple(edge_list), cost, zero)
