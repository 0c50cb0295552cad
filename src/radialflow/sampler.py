"""Candidate scoring and selection for one construction step.

Each step scores every way of extending or merging the current polytrees by a
single edge.  The score favors supplying from trees with large remaining
surplus into heavy demand groups reachable cheaply, with two hard priorities
ranked above the score itself: supply groups with a single way out must use
it, and extensions that keep the receiving side coverable are preferred.

Selection is fully deterministic; ties fall back to node id order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

from .condenser import CondensedView, net_concad
from .exceptions import NoCandidate
from .network_model import GraphView

#: Keeps weight denominators strictly positive for free first hops.
EPS_DEN = 1e-12


def edge_weight(cost_coeff: float, demand: float, supply: float,
                h_path: float) -> float:
    """Raw desirability of sending supply across one edge.

    ``demand`` is the magnitude of the receiving group's deficit and
    ``h_path`` the accumulated quadratic cost estimate of reaching the tail.
    """
    return supply / (cost_coeff * demand ** 2 + h_path + EPS_DEN)


class PathCostAccumulator(dict):
    """Per-node accumulated cost estimate of the path that reached it."""

    def value(self, node: int) -> float:
        return self.get(node, 0.0)

    def extend(self, tail: int, head: int, cost_coeff: float,
               demand: float) -> None:
        self[head] = self.value(tail) + cost_coeff * demand ** 2


class ForestState:
    """Mutable record of the polytrees grown so far in one partition.

    Tree ids are the node ids of the supplies they grew from; a merge keeps
    the absorbing tree's id.  Residuals are recomputed by exact summation on
    every change, so they never drift.
    """

    def __init__(self, sources: Sequence[int],
                 injections: Mapping[int, float]) -> None:
        self.injections = injections
        self.membership: dict[int, int] = {s: s for s in sources}
        self.members: dict[int, list[int]] = {s: [s] for s in sources}
        self.residuals: dict[int, float] = {
            s: float(injections[s]) for s in sources}

    def tree_of(self, node: int) -> int | None:
        return self.membership.get(node)

    def absorb(self, tree: int, node: int) -> None:
        self.membership[node] = tree
        self.members[tree].append(node)
        self.residuals[tree] = math.fsum(
            self.injections[v] for v in self.members[tree])

    def restricted(self, trees: Iterable[int],
                   injections: Mapping[int, float]) -> "ForestState":
        """A new state holding only ``trees``, re-summed under ``injections``."""
        out = ForestState((), injections)
        for t in trees:
            out.members[t] = list(self.members[t])
            for v in out.members[t]:
                out.membership[v] = t
            out.residuals[t] = math.fsum(injections[v] for v in out.members[t])
        return out

    def merge(self, into: int, other: int) -> None:
        for v in self.members[other]:
            self.membership[v] = into
        self.members[into].extend(self.members[other])
        del self.members[other]
        del self.residuals[other]
        self.residuals[into] = math.fsum(
            self.injections[v] for v in self.members[into])


@dataclass(frozen=True)
class CandidateEdge:
    """One scored orientation of a remaining edge."""

    tail: int
    head: int
    edge_index: int
    raw_weight: float
    weight: float
    balance_ok: bool
    pendant_source: bool
    demand: float


@dataclass(frozen=True)
class SampleResult:
    chosen: CandidateEdge
    deleted: tuple[int, ...]
    ranked: tuple[CandidateEdge, ...]


def sample(view: GraphView, injections: Mapping[int, float], state: ForestState,
           h: PathCostAccumulator,
           edges: Sequence[tuple[int, int, int, float]], *,
           cond: CondensedView | None = None,
           replicas: Collection[int] = ()) -> SampleResult:
    """Score the remaining edges and pick the next one to orient.

    Args:
        view: Partition graph (used for condensation connectivity).
        injections: Per-node injection within the partition.
        state: Current polytrees.
        h: Path cost accumulator for nodes reached so far.
        edges: Remaining pool as ``(edge_index, u, v, cost)`` tuples.
        cond: Condensation of ``view`` around ``state``, if the caller has
            already built it; otherwise it is built here.
        replicas: Nodes standing in for a supply group that was split
            during growth.  That group has other ways out in the network, so
            a super node holding one never takes the single-way-out priority.

    Returns:
        The winning candidate, the edge indices that became internal to a
        tree and must leave the pool, and every scored candidate.

    Raises:
        NoCandidate: If no remaining edge touches a polytree.
    """
    deleted: list[int] = []
    live: list[tuple[int, int, int, float]] = []
    for eidx, u, v, c in edges:
        tu, tv = state.tree_of(u), state.tree_of(v)
        if tu is not None and tu == tv:
            deleted.append(eidx)
        else:
            live.append((eidx, u, v, c))

    if cond is None:
        cond = net_concad(view, injections, state.membership)
    neighbor_sets = cond.adjacency()
    split_supers = {cond.membership[r] for r in replicas}

    raw: list[tuple[int, int, int, float, float, bool, bool]] = []
    for eidx, u, v, c in live:
        for i, j in ((u, v), (v, u)):
            ti = state.tree_of(i)
            if ti is None:
                continue
            si = cond.membership[i]
            sj = cond.membership[j]
            supply = max(state.residuals[ti], 0.0)
            demand = abs(cond.super_nodes[sj].residual)
            w = edge_weight(c, demand, supply, h.value(i))
            balance = state.residuals[ti] + cond.super_nodes[sj].residual >= 0.0
            pendant = (cond.super_nodes[si].kind == "source"
                       and len(neighbor_sets[si]) == 1
                       and si not in split_supers)
            raw.append((i, j, eidx, w, demand, balance, pendant))

    if not raw:
        raise NoCandidate("no remaining edge touches a polytree")

    total = math.fsum(r[3] for r in raw)
    candidates = [CandidateEdge(i, j, eidx, w, w / total if total > 0 else w,
                                balance, pendant, demand)
                  for i, j, eidx, w, demand, balance, pendant in raw]
    chosen = min(candidates, key=lambda cand: (not cand.pendant_source,
                                               not cand.balance_ok,
                                               -cand.weight, cand.tail,
                                               cand.head))
    return SampleResult(chosen, tuple(deleted), tuple(candidates))
