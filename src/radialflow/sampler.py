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

from .condenser import Condensation, net_concad
from .exceptions import NoCandidate
from .network_model import ExactSum, GraphView

#: Keeps weight denominators strictly positive for free first hops.
EPS_DEN = 1e-12


def edge_weight(cost_coeff: float, demand: float, supply: float,
                h_path: float) -> float:
    """Raw desirability of sending supply across one edge.

    ``demand`` is the magnitude of the receiving group's deficit and
    ``h_path`` the accumulated quadratic cost estimate of reaching the tail.
    """
    step = cost_coeff * (demand * demand) if cost_coeff else 0.0
    return supply / (step + h_path + EPS_DEN)


class PathCostAccumulator(dict):
    """Per-node accumulated cost estimate of the path that reached it."""

    def value(self, node: int) -> float:
        return self.get(node, 0.0)

    def extend(self, tail: int, head: int, cost_coeff: float,
               demand: float) -> None:
        step = cost_coeff * (demand * demand) if cost_coeff else 0.0
        self[head] = self.value(tail) + step


class ForestState:
    """Mutable record of the polytrees grown so far in one partition.

    Tree ids are the node ids of the supplies they grew from; a merge keeps
    the absorbing tree's id.  Each residual is held as an exact running sum
    (:class:`~radialflow.network_model.ExactSum`): an absorb or a merge adds
    to it instead of re-summing the whole tree, and it still equals
    ``math.fsum`` over the tree's members, so it never drifts.
    """

    def __init__(self, sources: Sequence[int],
                 injections: Mapping[int, float]) -> None:
        self.injections = injections
        self.membership: dict[int, int] = {s: s for s in sources}
        self.members: dict[int, list[int]] = {s: [s] for s in sources}
        self._sums = {s: ExactSum((injections[s],)) for s in sources}
        self.residuals: dict[int, float] = {
            s: self._sums[s].value for s in sources}

    def tree_of(self, node: int) -> int | None:
        return self.membership.get(node)

    def absorb(self, tree: int, node: int) -> None:
        self.membership[node] = tree
        self.members[tree].append(node)
        self.residuals[tree] = self._sums[tree].add((self.injections[node],))

    def take(self, trees: Iterable[int],
             injections: Mapping[int, float]) -> "ForestState":
        """Move ``trees``, with their exact sums, into a new state over
        ``injections``, which must give their members the same values."""
        out = ForestState((), injections)
        for t in trees:
            out.members[t] = members = self.members.pop(t)
            for v in members:
                out.membership[v] = self.membership.pop(v)
            out._sums[t] = self._sums.pop(t)
            out.residuals[t] = self.residuals.pop(t)
        return out

    def plant(self, tree: int, members: list[int], residual: float) -> None:
        """Add ``tree`` over ``members``, whose injections sum to ``residual``."""
        self.members[tree] = members
        self.membership.update(dict.fromkeys(members, tree))
        self._sums[tree] = ExactSum((residual,))
        self.residuals[tree] = self._sums[tree].value

    def cut_down(self, tree: int, nodes: Collection[int],
                 residual: float) -> None:
        """Drop ``nodes`` from ``tree``, whose injections now sum to ``residual``."""
        for v in nodes:
            del self.membership[v]
        self.members[tree] = [v for v in self.members[tree] if v not in nodes]
        self._sums[tree] = ExactSum((residual,))
        self.residuals[tree] = self._sums[tree].value

    def merge(self, into: int, other: int) -> None:
        for v in self.members[other]:
            self.membership[v] = into
        self.members[into].extend(self.members.pop(other))
        del self.residuals[other]
        self.residuals[into] = self._sums[into].add(self._sums.pop(other).terms)


class Frontier:
    """The remaining pool of one subproblem and its live edges.

    The live edges are those :func:`sample` scores: an end in a polytree
    and the ends not in the same tree.  They are kept current from the
    adjacency as trees grow, so a step never rescans the whole pool.  An edge
    that becomes internal to a tree stays in the pool until the next
    :meth:`flush`, which the growth loop calls before each sampling step.

    Args:
        pool: Remaining edges as ``(edge_index, u, v, cost)``, in pool order.
        state: Polytrees of the subproblem.
        adjacency: ``view.adjacency()`` of the subproblem.
    """

    def __init__(self, pool: Sequence[tuple[int, int, int, float]],
                 state: ForestState,
                 adjacency: Mapping[int, list[tuple[int, int]]]) -> None:
        self.pool = pool
        self.state = state
        self.adj = adjacency
        self.position = {e[0]: k for k, e in enumerate(pool)}
        self.gone: set[int] = set()
        self.internal: set[int] = set()
        self.live: dict[int, tuple[int, int, int, float]] = {}
        for k in range(len(pool)):
            self._classify(k)

    def __len__(self) -> int:
        """Edges still in the pool."""
        return len(self.pool) - len(self.gone)

    def edges(self) -> list[tuple[int, int, int, float]]:
        """The live edges, in pool order."""
        return [self.live[k] for k in sorted(self.live)]

    def flush(self) -> int:
        """Drop the edges that became internal to a tree; return their count."""
        count = len(self.internal)
        self.gone |= self.internal
        self.internal.clear()
        return count

    def remove(self, edge_index: int) -> None:
        """Drop an edge the growth step used."""
        k = self.position[edge_index]
        self.live.pop(k, None)
        self.gone.add(k)

    def take(self, edge_indices: Iterable[int],
             ) -> list[tuple[int, int, int, float]]:
        """Take edges out of the pool; return those it held, in pool order."""
        taken = sorted({k for idx in edge_indices
                        if (k := self.position.get(idx)) is not None
                        and k not in self.gone})
        self.gone.update(taken)
        for k in taken:
            self.live.pop(k, None)
            self.internal.discard(k)
        return [self.pool[k] for k in taken]

    def grown(self, nodes: Iterable[int]) -> None:
        """Update the edges at ``nodes`` after their trees grew or merged."""
        for v in nodes:
            for _, idx in self.adj[v]:
                k = self.position.get(idx)
                if k is not None and k not in self.gone and k not in self.internal:
                    self._classify(k)

    def _classify(self, k: int) -> None:
        _, u, v, _ = self.pool[k]
        tu, tv = self.state.tree_of(u), self.state.tree_of(v)
        if tu is not None and tu == tv:
            self.live.pop(k, None)
            self.internal.add(k)
        elif tu is not None or tv is not None:
            self.live[k] = self.pool[k]


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
    """The winning candidate and every scored candidate.

    ``scored`` holds each candidate as the raw tuple ``(tail, head,
    edge_index, raw_weight, demand, balance_ok, pendant_source)`` and
    ``total`` the sum of raw weights; ``ranked`` turns them into
    :class:`CandidateEdge` objects when asked, since a growth step reads only
    ``chosen``.
    """

    chosen: CandidateEdge
    scored: tuple[tuple[int, int, int, float, float, bool, bool], ...]
    total: float

    @property
    def ranked(self) -> tuple[CandidateEdge, ...]:
        """Every scored candidate, in scoring order."""
        return tuple(_candidate(r, self.total) for r in self.scored)


def _candidate(r: tuple[int, int, int, float, float, bool, bool],
               total: float) -> CandidateEdge:
    i, j, eidx, w, demand, balance, pendant = r
    return CandidateEdge(i, j, eidx, w, w / total if total > 0 else w,
                         balance, pendant, demand)


def sample(view: GraphView, injections: Mapping[int, float], state: ForestState,
           h: PathCostAccumulator,
           edges: Sequence[tuple[int, int, int, float]], *,
           cond: Condensation | None = None,
           replicas: Collection[int] = ()) -> SampleResult:
    """Score the live edges and pick the next one to orient.

    Args:
        view: Partition graph, condensed here when ``cond`` is not given.
        injections: Per-node injection within the partition.
        state: Current polytrees.
        h: Path cost accumulator for nodes reached so far.
        edges: Live edges as ``(edge_index, u, v, cost)`` tuples: an end in
            a polytree and the ends not in the same tree.  :class:`Frontier`
            keeps them and drops the edges that became internal to a tree.
        cond: Condensation of ``view`` around ``state``, if the caller keeps
            it; otherwise :func:`net_concad` builds it here.
        replicas: Nodes standing in for a supply group that was split
            during growth.  That group has other ways out in the network, so
            a super node holding one never takes the single-way-out priority.

    Returns:
        The winning candidate and every scored candidate.

    Raises:
        NoCandidate: If no remaining edge touches a polytree.
    """
    cond = cond or net_concad(view, injections, state.membership)
    neighbor_sets = cond.adjacency()
    split_supers = {cond.membership[r] for r in replicas}

    tree_of = state.membership.get
    path_cost = h.get
    supers = cond.super_nodes
    member = cond.membership
    raw: list[tuple[int, int, int, float, float, bool, bool]] = []
    for eidx, u, v, c in edges:
        for i, ti, j in ((u, tree_of(u), v), (v, tree_of(v), u)):
            if ti is None:
                continue
            si = member[i]
            residual = state.residuals[ti]
            receiving = supers[member[j]].residual
            supply = max(residual, 0.0)
            demand = abs(receiving)
            w = edge_weight(c, demand, supply, path_cost(i, 0.0))
            balance = residual + receiving >= 0.0
            pendant = (supers[si].kind == "source"
                       and len(neighbor_sets[si]) == 1
                       and si not in split_supers)
            raw.append((i, j, eidx, w, demand, balance, pendant))

    if not raw:
        raise NoCandidate("no remaining edge touches a polytree")

    total = math.fsum(r[3] for r in raw)
    best = min(raw, key=lambda r: (not r[6], not r[5],
                                   -(r[3] / total if total > 0 else r[3]),
                                   r[0], r[1]))
    return SampleResult(_candidate(best, total), tuple(raw), total)
