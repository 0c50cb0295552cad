"""Selection of the edge that extends or merges the polytrees next.

A live orientation ``i > j`` of a remaining edge has its tail ``i`` in a
polytree and its head ``j`` outside that tree.  Its raw weight favors
supplying from trees with large remaining surplus into heavy demand groups
reachable cheaply.  Two hard priorities rank above the weight: supply groups
with a single way out must use it, and extensions that keep the receiving
side coverable are preferred.  Ties fall back to node ids, then edge index,
so selection is fully deterministic.

The :class:`Frontier` keeps the live orientations in classes by tail tree
and receiving condensation group.  A class shares supply, demand and both
priorities; only ``c·d² + h[tail]`` differs inside it.  So a step rescores
only the classes whose tree residual, group residual or members changed and
takes the best of the class winners.  :func:`score` is the full scan, kept
for invariant mode and for :attr:`SampleResult.ranked`, which the
benchmark's traced run reads (``perfbench/spans.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Mapping, Sequence

from .condenser import Condensation
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

    def extend(self, tail: int, head: int, cost_coeff: float,
               demand: float) -> None:
        step = cost_coeff * (demand * demand) if cost_coeff else 0.0
        self[head] = self.get(tail, 0.0) + step


class ForestState:
    """Mutable record of the polytrees grown so far in one subproblem.

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
    """The remaining pool of one subproblem, its live orientations by class.

    Each live orientation is stored once, as ``(i, j, edge index, cost,
    h[i])``: the cost and ``h[i]`` never change while it is live.  The
    growth loop keeps the classes current through :meth:`grown` after an
    absorb or a tree merge, :meth:`regroup` with the nodes a condensation
    update relabelled, and :meth:`remove` and :meth:`take`.  An edge that
    becomes internal to a tree leaves its classes at once and the pool at
    the next :meth:`flush`.  ``replicas`` holds the id nodes of trees
    standing in for supply super nodes split during growth; such a group
    has other ways out, so it never takes the single-way-out priority.

    Args:
        pool: Remaining edges as ``(edge_index, u, v, cost)``, in ascending
            edge index order.
        state: Polytrees of the subproblem.
        cond: Condensation of the subproblem around ``state``; its ``adj``
            and ``injections`` are the subproblem's.
        h: Path cost accumulator of the peeled graph.
    """

    def __init__(self, pool: Sequence[tuple[int, int, int, float]],
                 state: ForestState, cond: Condensation,
                 h: PathCostAccumulator) -> None:
        #: edge index -> ``(edge_index, u, v, cost)``
        self.pool = {e[0]: e for e in pool}
        self.state = state
        self.cond = cond
        self.h = h
        self.replicas: frozenset[int] = frozenset()
        self.internal: set[int] = set()
        #: tail tree -> receiving group -> class
        self.classes: dict[int, dict[int, _Class]] = {}
        #: (edge index, tail) -> class of that orientation
        self.where: dict[tuple[int, int], _Class] = {}
        self.scored = 0
        for idx in self.pool:
            self._classify(idx)

    def __len__(self) -> int:
        """Edges still in the pool."""
        return len(self.pool)

    def flush(self) -> int:
        """Drop the edges that became internal to a tree; return their count."""
        count = len(self.internal)
        for idx in self.internal:
            del self.pool[idx]
        self.internal.clear()
        return count

    def remove(self, edge_index: int) -> None:
        """Drop an edge the growth step used."""
        self._unlive(edge_index)
        del self.pool[edge_index]

    def take(self, edge_indices: Iterable[int],
             ) -> list[tuple[int, int, int, float]]:
        """Take edges out of the pool; return those it held, by edge index."""
        taken = sorted({idx for idx in edge_indices if idx in self.pool})
        for idx in taken:
            self._unlive(idx)
            self.internal.discard(idx)
        return [self.pool.pop(idx) for idx in taken]

    def grown(self, nodes: Iterable[int], merged: int | None = None) -> None:
        """Update the edges at ``nodes`` after their trees grew or merged.

        ``merged`` is the id of a tree just merged into another; its classes
        join that tree's, the smaller into the larger.
        """
        if merged in self.classes:
            into = self.state.tree_of(merged)
            row = self.classes.setdefault(into, {})
            for g, cls in self.classes.pop(merged).items():
                other = row.get(g)
                if other is not None:
                    if len(other.members) > len(cls.members):
                        cls, other = other, cls
                    cls.members.update(other.members)
                    self.where.update(dict.fromkeys(other.members, cls))
                cls.tree, cls.best = into, None
                row[g] = cls
        adj = self.cond.adj
        for v in nodes:
            for _, idx in adj[v]:
                if idx in self.pool and idx not in self.internal:
                    self._classify(idx)

    def regroup(self, nodes: Iterable[int]) -> None:
        """Re-key the orientations into ``nodes``, whose group ids changed."""
        member, adj = self.cond.membership, self.cond.adj
        for y in nodes:
            for x, idx in adj[y]:
                key = (idx, x)
                cls = self.where.get(key)
                if cls is not None and cls.group != member[y]:
                    self._add(self._drop(key), cls.tree, member[y])

    def select(self) -> SampleResult:
        """The best live orientation: the best of the class winners.

        Raises:
            NoCandidate: If no orientation is live.
        """
        residuals, supers = self.state.residuals, self.cond.super_nodes
        nbrs, member = self.cond.adjacency(), self.cond.membership
        split_supers = {member[r] for r in self.replicas}
        best = None
        for t, row in self.classes.items():
            residual, st = residuals[t], member[t]
            pendant = (supers[st].kind == "source" and len(nbrs[st]) == 1
                       and st not in split_supers)
            for g, cls in row.items():
                receiving = supers[g].residual
                if cls.best is None or cls.seen != (residual, receiving):
                    self._rescan(cls, residual, receiving)
                w, entry = cls.best
                key = (not pendant, not (residual + receiving >= 0.0), -w,
                       entry[:3])
                if best is None or key < best[0]:
                    best = (key, entry, w, receiving)
        if best is None:
            raise NoCandidate("no remaining edge touches a polytree")
        (not_pendant, not_balance, _, _), entry, w, receiving = best
        evaluated, self.scored = self.scored, 0
        return SampleResult((entry[0], entry[1], entry[2], w, abs(receiving),
                             not not_balance, not not_pendant),
                            evaluated, self)

    def _rescan(self, cls: _Class, residual: float, receiving: float) -> None:
        supply, dd = max(residual, 0.0), receiving * receiving
        entries = list(cls.members.values())
        # edge_weight, with the demand squared once
        ws = [supply / ((c * dd if c else 0.0) + hi + EPS_DEN)
              for _, _, _, c, hi in entries]
        top = max(ws)
        cls.best = (top, entries[ws.index(top)] if ws.count(top) == 1
                    else min(e for e, w in zip(entries, ws) if w == top))
        cls.seen = (residual, receiving)
        self.scored += len(entries)

    def _classify(self, idx: int) -> None:
        _, u, v, c = self.pool[idx]
        tree_of = self.state.membership.get
        tu, tv = tree_of(u), tree_of(v)
        if tu is not None and tu == tv:
            self._unlive(idx)
            self.internal.add(idx)
        else:
            for i, ti, j in ((u, tu, v), (v, tv, u)):
                if ti is not None and (idx, i) not in self.where:
                    self._add((i, j, idx, c, self.h.get(i, 0.0)), ti,
                              self.cond.membership[j])

    def _add(self, entry: tuple, tree: int, group: int) -> None:
        row = self.classes.setdefault(tree, {})
        cls = row.get(group) or row.setdefault(group, _Class(tree, group))
        cls.members[entry[2], entry[0]] = entry
        cls.best = None
        self.where[entry[2], entry[0]] = cls

    def _drop(self, key: tuple[int, int]) -> tuple:
        cls = self.where.pop(key)
        entry = cls.members.pop(key)
        if not cls.members:
            row = self.classes[cls.tree]
            del row[cls.group]
            if not row:
                del self.classes[cls.tree]
        elif cls.best is not None and cls.best[1] is entry:
            cls.best = None
        return entry

    def _unlive(self, idx: int) -> None:
        for tail in self.pool[idx][1:3]:
            if (idx, tail) in self.where:
                self._drop((idx, tail))


class _Class:
    """Live orientations of one tail tree into one group; ``best`` is
    ``(raw weight, entry)`` of the winner at the residuals in ``seen``, or
    None after the members changed."""

    __slots__ = ("tree", "group", "members", "best", "seen")

    def __init__(self, tree: int, group: int) -> None:
        self.tree, self.group = tree, group
        self.members: dict[tuple[int, int], tuple] = {}
        self.best: tuple[float, tuple] | None = None
        self.seen: tuple[float, float] | None = None


@dataclass
class SampleResult:
    """The winning orientation of one step.

    ``best`` is the winner as a :func:`score` tuple, whose two flags and raw
    weight decided the pick, and ``evaluated`` counts the orientations whose
    weight the selection computed.  ``ranked`` holds the :func:`score` tuples of every
    live orientation, by edge index; it runs the full scan when first read,
    so read it before the step is applied.
    """

    best: tuple
    evaluated: int
    frontier: Frontier = field(repr=False, compare=False)

    @cached_property
    def ranked(self) -> list[tuple]:
        f = self.frontier
        live = sorted({idx for idx, _ in f.where})
        return score([f.pool[idx] for idx in live], f)


def score(edges: Iterable[tuple[int, int, int, float]],
          frontier: Frontier) -> list[tuple]:
    """Score every live orientation of ``edges``, one at a time, against the
    polytrees, condensation, path costs and replicas of ``frontier``.

    Returns ``(tail, head, edge_index, raw_weight, demand, balance_ok,
    pendant_source)`` tuples in the order of ``edges``, ``u > v`` first.
    The winner is the least by ``(not pendant_source, not balance_ok,
    -raw_weight, tail, head)``, the first of equals.
    """
    state, h, cond = frontier.state, frontier.h, frontier.cond
    neighbor_sets = cond.adjacency()
    split_supers = {cond.membership[r] for r in frontier.replicas}
    tree_of = state.membership.get
    supers = cond.super_nodes
    member = cond.membership
    raw: list[tuple] = []
    for eidx, u, v, c in edges:
        for i, ti, j in ((u, tree_of(u), v), (v, tree_of(v), u)):
            if ti is None or ti == tree_of(j):
                continue
            si = member[i]
            residual = state.residuals[ti]
            receiving = supers[member[j]].residual
            demand = abs(receiving)
            w = edge_weight(c, demand, max(residual, 0.0), h.get(i, 0.0))
            pendant = (supers[si].kind == "source"
                       and len(neighbor_sets[si]) == 1
                       and si not in split_supers)
            raw.append((i, j, eidx, w, demand, residual + receiving >= 0.0,
                        pendant))
    return raw


def sample(view: GraphView, injections: Mapping[int, float], state: ForestState,
           h: PathCostAccumulator, frontier: Frontier) -> SampleResult:
    """Pick the next orientation to grow: :meth:`Frontier.select`.

    ``view``, ``injections``, ``state`` and ``h`` are the subproblem's
    graph, injections, polytrees and path costs, all of which ``frontier``
    holds; they are not read, but the benchmark's traced run
    (``perfbench/spans.py``) reads the frontier as the fifth argument.

    Raises:
        NoCandidate: If no remaining edge touches a polytree.
    """
    return frontier.select()
