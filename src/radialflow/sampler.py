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
whose priorities can still win, and takes the best of the class winners.
A rescore weighs only the class's staircase: a member whose ``c`` and
``h[tail]`` are no larger than another's, and which comes first in the tie
order, outweighs or ties and beats that other at any residuals, so the other
is set aside (:class:`_Class`).  :func:`score` is the full scan, kept for
invariant mode and for :attr:`SampleResult.ranked`, which the benchmark's
traced run reads (``perfbench/spans.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Collection, Iterable, Mapping, Sequence

from .condenser import Condensation, Group
from .exceptions import NoCandidate
from .network_model import ExactSum, GraphView

#: Keeps weight denominators strictly positive for free first hops.
EPS_DEN = 1e-12
_COST = itemgetter(3)


def _step_cost(cost_coeff: float, demand: float) -> float:
    """``c * (d * d)``, 0.0 where ``c`` is; where ``d * d`` is beyond the
    float range, ``(c * d) * d``, as in
    :func:`~radialflow.network_model.quadratic_cost`."""
    if not cost_coeff:
        return 0.0
    dd = demand * demand
    return cost_coeff * dd if dd != math.inf else (cost_coeff * demand) * demand


def edge_weight(cost_coeff: float, demand: float, supply: float,
                h_path: float) -> float:
    """Raw desirability of sending supply across one edge.

    ``demand`` is the magnitude of the receiving group's deficit and
    ``h_path`` the accumulated quadratic cost estimate of reaching the tail.
    """
    return supply / (_step_cost(cost_coeff, demand) + h_path + EPS_DEN)


class PathCostAccumulator(dict):
    """Per-node accumulated cost estimate of the path that reached it."""

    def extend(self, tail: int, head: int, cost_coeff: float,
               demand: float) -> None:
        self[head] = self.get(tail, 0.0) + _step_cost(cost_coeff, demand)


class ForestState:
    """Mutable record of the polytrees grown so far in one subproblem.

    Tree ids are the node ids of the supplies they grew from, or of the
    smallest node of a subproblem without supply, which grows one tree from
    there; a merge keeps the absorbing tree's id.  ``sums`` holds each
    tree's exact running sum (:class:`~radialflow.network_model.ExactSum`),
    whose ``value`` is its residual: an absorb or a merge adds to it instead
    of re-summing the tree, and it equals ``math.fsum`` over the members, so
    it never drifts.
    """

    def __init__(self, sources: Sequence[int],
                 injections: Mapping[int, float]) -> None:
        self.injections = injections
        self.membership: dict[int, int] = {s: s for s in sources}
        self.members: dict[int, list[int]] = {s: [s] for s in sources}
        self.sums = {s: ExactSum((injections[s],)) for s in sources}

    def tree_of(self, node: int) -> int | None:
        return self.membership.get(node)

    def absorb(self, tree: int, node: int) -> None:
        self.membership[node] = tree
        self.members[tree].append(node)
        self.sums[tree].add((self.injections[node],))

    def split_off(self, trees: Iterable[int], injections: Mapping[int, float],
                  root: int, hub: list[int], residual: float) -> "ForestState":
        """Move ``trees`` with their exact sums, and a new tree ``root`` over
        ``hub`` whose injections sum to ``residual``, into a new state over
        ``injections``, which must give the members the same values."""
        out = ForestState((), injections)
        for t in trees:
            out.members[t] = members = self.members.pop(t)
            for v in members:
                out.membership[v] = self.membership.pop(v)
            out.sums[t] = self.sums.pop(t)
        out.members[root] = hub
        out.membership.update(dict.fromkeys(hub, root))
        out.sums[root] = ExactSum((residual,))
        return out

    def cut_down(self, tree: int, nodes: Collection[int],
                 residual: float) -> None:
        """Drop ``nodes`` from ``tree``, whose injections now sum to ``residual``."""
        for v in nodes:
            del self.membership[v]
        self.members[tree] = [v for v in self.members[tree] if v not in nodes]
        self.sums[tree] = ExactSum((residual,))

    def merge(self, into: int, other: int) -> None:
        for v in self.members[other]:
            self.membership[v] = into
        self.members[into].extend(self.members.pop(other))
        self.sums[into].add(self.sums.pop(other).terms)


class Frontier:
    """One subproblem of growth: its remaining pool, live orientations by class.

    A subproblem is a connected piece of the peeled graph whose polytrees
    still grow; a growth split replaces it by one per side.  Its frontier
    holds all of it (see Args); a node is uncovered while no tree holds it.

    Each live orientation is stored once, as ``(i, j, edge index, cost,
    h[i])``: the cost and ``h[i]`` never change while it is live.  The
    growth loop keeps the classes current through :meth:`grown` after an
    absorb or a tree merge, :meth:`regroup` with the nodes a condensation
    update relabelled, and :meth:`remove`, :meth:`take` and :meth:`split_off`.
    An edge that becomes internal to a tree leaves its classes at once and
    the pool at the next :meth:`flush`.  A growth split leaves two facts
    here.  ``replicas`` holds the id nodes of trees standing in for supply
    super nodes split during growth; such a group has other ways out, so it
    never takes the single-way-out priority.  ``linked`` holds the root,
    kept hub nodes and smallest hub node of the last split; no edge lies
    between those nodes.

    Args:
        pool: Remaining edges as ``(edge_index, u, v, cost)``, in ascending
            edge index order.
        state: Polytrees of the subproblem.
        cond: Condensation of the subproblem around ``state``; its
            ``injections`` and its ``adj`` are the subproblem's, each
            node's ``(neighbor, edge index)`` pairs and
            :data:`~radialflow.forward_engine.HUB_LINK` links, nodes in
            ascending order.
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
        self.linked: tuple[int, set[int], int] | None = None
        self.internal: set[int] = set()
        #: tail tree -> receiving group -> class
        self.classes: dict[int, dict[Group, _Class]] = {}
        #: (edge index, tail) -> class of that orientation
        self.where: dict[tuple[int, int], _Class] = {}
        self.scored = 0
        for idx in self.pool:
            self._classify(idx)

    def __len__(self) -> int:
        """Edges still in the pool; only the benchmark's traced run
        (``perfbench/spans.py``) reads it, as its pool count."""
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

    def split_off(self, edges: Collection[int], state: ForestState,
                  cond: Condensation, groups: Collection[Group], cut: Group,
                  rim: Group, relabelled: Iterable[int]) -> Frontier:
        """Move a side of a growth split into a frontier over ``state`` and
        ``cond``: its ``edges`` (each index once) in ascending order, their
        internal marks, and the classes of its trees into its ``groups`` or
        into ``cut``, re-keyed to the ``rim``, each with its cached winner.
        The orientations into ``relabelled`` nodes are then re-keyed."""
        out = Frontier((), state, cond, self.h)
        for idx in sorted([i for i in edges if i in self.pool]):
            out.pool[idx] = self.pool.pop(idx)
        out.internal = self.internal.intersection(out.pool)
        self.internal -= out.internal
        for t in state.members:
            row = self.classes.get(t, {})
            for g in [g for g in row if g is cut or g in groups]:
                cls = row.pop(g)
                cls.group = rim if g is cut else g
                out.classes.setdefault(t, {})[cls.group] = cls
                out.where.update((key, self.where.pop(key)) for key in cls.members)
            if not row:
                self.classes.pop(t, None)
        out.regroup(relabelled)
        return out

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
                    self.where.update(dict.fromkeys(other.members, cls))
                    cls.merge(other)
                cls.tree, cls.best = into, None
                row[g] = cls
        adj = self.cond.adj
        for v in nodes:
            for _, idx in adj[v]:
                if idx in self.pool and idx not in self.internal:
                    self._classify(idx)

    def regroup(self, nodes: Iterable[int]) -> None:
        """Re-key the orientations into ``nodes``, whose groups changed."""
        member, adj = self.cond.membership, self.cond.adj
        for y in nodes:
            for x, idx in adj[y]:
                key = (idx, x)
                cls = self.where.get(key)
                if cls is not None and cls.group is not member[y]:
                    self._add(self._drop(key), cls.tree, member[y])

    def select(self) -> SampleResult:
        """The best live orientation: the best of the class winners.

        Raises:
            NoCandidate: If no orientation is live.
        """
        sums, member = self.state.sums, self.cond.membership
        split_supers = {member[r] for r in self.replicas}
        best, top = None, (True, True)
        for t, row in self.classes.items():
            residual, st = sums[t].value, member[t]
            pendant = st.source and len(st.nbrs) == 1 and st not in split_supers
            for g, cls in row.items():
                receiving = g.total.value
                flags = (not pendant, not (residual + receiving >= 0.0))
                if flags > top:
                    continue  # cannot win, so not weighed
                if cls.best is None or cls.seen != (residual, receiving):
                    self._rescan(cls, residual, receiving)
                w, entry = cls.best
                if best is None or (flags, -w, entry) < best[0]:
                    best, top = ((flags, -w, entry), entry, w, receiving), flags
        if best is None:
            raise NoCandidate("no remaining edge touches a polytree")
        ((not_pendant, not_balance), _, _), entry, w, receiving = best
        evaluated, self.scored = self.scored, 0
        return SampleResult((entry[0], entry[1], entry[2], w, abs(receiving),
                             not not_balance, not not_pendant),
                            evaluated, self)

    def _rescan(self, cls: _Class, residual: float, receiving: float) -> None:
        supply, demand, stair = max(residual, 0.0), abs(receiving), cls.stair
        dd, top, best = demand * demand, -1.0, None
        finite = dd != math.inf
        for e in stair:  # edge_weight, with the demand squared once
            c = e[3]
            w = (supply / ((c * dd if c else 0.0) + e[4] + EPS_DEN) if finite
                 else edge_weight(c, demand, supply, e[4]))
            if w > top or w == top and e < best:
                top, best = w, e
        cls.best, cls.seen = (top, best), (residual, receiving)
        self.scored += len(stair)

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

    def _add(self, entry: tuple, tree: int, group: Group) -> None:
        row = self.classes.setdefault(tree, {})
        cls = row.get(group) or row.setdefault(group, _Class(tree, group))
        key = entry[2], entry[0]
        cls.members[key] = entry
        self.where[key] = cls
        cls.place(key, entry)

    def _drop(self, key: tuple[int, int]) -> tuple:
        cls = self.where.pop(key)
        entry = cls.members.pop(key)
        if not cls.members:
            row = self.classes[cls.tree]
            del row[cls.group]
            if not row:
                del self.classes[cls.tree]
        else:
            cls.unplace(key, entry)
        return entry

    def _unlive(self, idx: int) -> None:
        for tail in self.pool[idx][1:3]:
            if (idx, tail) in self.where:
                self._drop((idx, tail))


class _Class:
    """Live orientations of one tail tree into one group; ``best`` is
    ``(raw weight, entry)`` of the winner at the residuals in ``seen``, or
    None after the staircase changed.

    Member ``a`` dominates ``b`` when ``c_a <= c_b``, ``h_a <= h_b`` and
    ``a`` comes first in the tie order.  Float multiply, add and divide are
    monotone, and so are the weight's ``c == 0`` and ``d * d == inf`` paths,
    so ``a`` weighs at least as much as ``b`` at any residuals and wins their
    tie.  ``stair``, by cost, holds every member nothing dominates; any other
    is in ``aside[k]`` under a member keyed ``k`` that dominates it, and
    ``up`` maps its key to ``k``.  An entering member leaves those it
    dominates on ``stair``: setting them aside costs more than weighing them.
    """

    __slots__ = ("tree", "group", "members", "stair", "aside", "up", "best", "seen")

    def __init__(self, tree: int, group: Group) -> None:
        self.tree, self.group = tree, group
        self.members: dict[tuple[int, int], tuple] = {}
        self.stair, self.aside, self.up = [], {}, {}
        self.best: tuple[float, tuple] | None = None
        self.seen: tuple[float, float] | None = None

    def place(self, key: tuple[int, int], entry: tuple) -> None:
        """Set ``entry`` aside under the costliest staircase entry that
        dominates it, or else put it on the staircase."""
        _, _, _, c, h = entry
        stair = self.stair
        k = at = bisect_right(stair, c, key=_COST)
        while k:
            k -= 1
            s = stair[k]
            if s[4] <= h and s < entry:
                self.up[key] = parent = s[2], s[0]
                self.aside.setdefault(parent, {})[key] = entry
                return
        stair.insert(at, entry)
        self.best = None

    def merge(self, other: _Class) -> None:
        """Take in the members of ``other``, placing its staircase."""
        self.members.update(other.members)
        self.aside.update(other.aside)
        self.up.update(other.up)
        for entry in other.stair:
            self.place((entry[2], entry[0]), entry)

    def unplace(self, key: tuple[int, int], entry: tuple) -> None:
        """Take out ``entry``; those set aside under it go to its parent or are placed."""
        under, parent = self.aside.pop(key, {}), self.up.pop(key, None)
        if parent is None:
            self.stair.remove(entry)
            best = self.best  # none of them outweighs the winner
            for k, s in under.items():
                del self.up[k]
                self.place(k, s)
            self.best = None if best is None or best[1] is entry else best
        else:
            del self.aside[parent][key]
            if under:
                self.aside[parent].update(under)
                self.up.update(dict.fromkeys(under, parent))


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
    split_supers = {cond.membership[r] for r in frontier.replicas}
    tree_of = state.membership.get
    member = cond.membership
    raw: list[tuple] = []
    for eidx, u, v, c in edges:
        for i, ti, j in ((u, tree_of(u), v), (v, tree_of(v), u)):
            if ti is None or ti == tree_of(j):
                continue
            si = member[i]
            residual = state.sums[ti].value
            receiving = member[j].total.value
            demand = abs(receiving)
            w = edge_weight(c, demand, max(residual, 0.0), h.get(i, 0.0))
            pendant = si.source and len(si.nbrs) == 1 and si not in split_supers
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
