"""The peeled graph as one partition, and the balance check of its pieces.

Peeling leaves the 2-core of a connected graph, which is connected, so it
is solved as one partition.  Growth splits it at supply super nodes that are
cut vertices of the condensation, articulation supplies among them (see
:func:`~radialflow.forward_engine.split_at_cut`), and checks each side's
balance as this module checks the partition's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
