"""Condensation of a partially grown forest into supply and demand sides.

Every node belongs to a polytree (untouched nodes count as singletons).  A
tree sits on the supply side while its residual injection is positive and on
the demand side once drained.  Same-side connected groups collapse into super
nodes; only edges crossing sides survive, counted per pair of super nodes.

Each fact is stored once: a :class:`Group` holds its members, its side, its
crossing counts and the exact sum of its injections, whose value is its
residual, and the :class:`Condensation` maps nodes and ids to groups.

:func:`net_concad` builds a :class:`Condensation` from scratch once per
solve; each growth step updates it in one pass over the edges of the nodes
that change side, and a growth split hands each small side its groups, so
that only the side's rim group is new.  :func:`source_cut_vertices` walks
the condensation only when a group or a crossing pair came or went since
its last search found none.  Invariant mode rebuilds it with
:func:`net_concad`, which keeps its own side per node, before every step
and compares the two; they share no grouping code.
"""

from __future__ import annotations

import itertools
import math
from typing import Collection, Iterable, Mapping, Sequence

from .network_model import ExactSum, GraphView


def find(parent: list[int], x: int) -> int:
    """Root of ``x`` in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def net_concad(view: GraphView, injections: Mapping[int, float] | Sequence[float],
               polytrees: Mapping[int, int]) -> Condensation:
    """Condense a graph around its current polytrees, from scratch.

    Args:
        view: Graph being solved; all of its edges participate.
        injections: Per-node injection, indexable by parent node id.
        polytrees: Tree id per touched node; nodes missing from the mapping
            are treated as singleton trees of themselves.

    Returns:
        A :class:`Condensation` whose group ids follow ``view.nodes`` order,
        so they follow each group's smallest member.  It keeps ``view.adj``
        and reads it on every update.
    """
    adj = view.adj
    nodes = view.nodes
    trees: dict[int, list[float]] = {}
    for v in nodes:
        if v in polytrees:
            trees.setdefault(polytrees[v], []).append(injections[v])
    residual = {t: math.fsum(terms) for t, terms in trees.items()}
    out = Condensation(adj, injections)
    membership, supers = out.membership, out.super_nodes
    source = {v: residual.get(polytrees.get(v), injections[v]) > 0 for v in nodes}
    for start in nodes:
        if start in membership:
            continue
        gid = next(out._ids)
        side = source[start]
        membership[start] = gid
        found = [start]
        stack = [start]
        while stack:
            for y, _ in adj[stack.pop()]:
                if y not in membership and source[y] == side:
                    membership[y] = gid
                    found.append(y)
                    stack.append(y)
        supers[gid] = Group(side, found, injections)
    for v in nodes:
        side = source[v]
        row = supers[membership[v]].nbrs
        for y, _ in adj[v]:
            if source[y] != side:
                other = membership[y]
                row[other] = row.get(other, 0) + 1
    return out


class Group:
    """A super node of a :class:`Condensation`, updated in place.

    It holds its ``members``, its side (``source``: True on the supply side),
    its crossing counts (``nbrs``: ``{neighbor id: crossing edge count}``)
    and the exact sum of its injections (``total``), whose ``value`` is its
    residual.
    """

    __slots__ = ("members", "source", "nbrs", "total")

    def __init__(self, source: bool, members: list[int],
                 injections: Mapping[int, float] | Sequence[float]) -> None:
        self.members = set(members)
        self.source = source
        self.nbrs: dict[int, int] = {}
        self.total = ExactSum(injections[v] for v in members)


class Condensation:
    """The condensation of a growing forest, kept current step by step.

    Its super nodes are :class:`Group` objects under ids that carry no order:
    ``super_nodes`` maps id to group and ``membership`` maps node to id.
    Everything else, a node's side included, is its group's.
    :func:`net_concad` builds it once per solve; then :meth:`move` changes it
    where a step moves nodes across sides, and a growth split hands each
    small side its groups (:meth:`split_off`) and cuts the hub down
    (:meth:`cut_down`).  Every update that adds or removes a group or a
    crossing pair, or turns a group, sets ``reshaped``; a search by
    :func:`source_cut_vertices` that finds no cut vertex clears it.

    Args:
        adjacency: Adjacency of the graph, kept and read by every update.
        injections: Per-node injection, indexable by parent node id.
    """

    def __init__(self, adjacency: Mapping[int, list[tuple[int, int]]],
                 injections: Mapping[int, float] | Sequence[float]) -> None:
        self.adj = adjacency
        self.injections = injections
        self.membership: dict[int, int] = {}
        self.super_nodes: dict[int, Group] = {}
        self._ids = itertools.count()
        self._relabelled: list[int] = []
        self.reshaped = True

    def move(self, nodes: Iterable[int], source: bool) -> list[int]:
        """Put ``nodes`` on the supply side (``source``) or the demand side.

        Nodes already on that side are left alone.  The groups the others
        leave are split where they fall apart; the moved nodes then join the
        groups of their new side that they touch, merged into the largest.
        A whole group that moves, such as a drained tree, keeps its members
        and merges with all its neighbors, which are on its new side.

        One pass over each moved node's edges takes it out of its group and
        its crossing counts and sorts its neighbors: moved ones, which make
        up the pieces that move together; the new side's groups it joins;
        and the group mates it leaves, which seed the split and then end its
        new crossings.  A move of one node is the smallest case.  Only a
        group that comes, goes or turns marks it ``reshaped``: a crossing
        pair the pass drops comes back otherwise, as the piece joins the one
        group it crossed into and its old group mates cross into that.

        Returns the nodes whose group id changed, with repeats: the moved
        ones and the smaller side of every split and merge.
        """
        supers, member, adj = self.super_nodes, self.membership, self.adj
        self._relabelled = relabelled = []
        moved = [v for v in nodes if supers[member[v]].source != source]
        if not moved:
            return relabelled
        gid = member[moved[0]]
        if (len(supers[gid].members) == len(moved)
                and all(member[v] == gid for v in moved)):
            self._turn(gid, source)
            return relabelled
        inj = self.injections
        left = set(moved)
        ends: dict[int, tuple[list[int], list[int], list[int]]] = {}
        by_group: dict[int, list[int]] = {}
        seeds: dict[int, list[int]] = {}
        for v in moved:
            gid = member.pop(v)
            row = supers[gid].nbrs
            near, touch, stay = ends[v] = [], [], []
            for y, _ in adj[v]:
                if y in left:
                    near.append(y)
                elif (other := member[y]) == gid:
                    stay.append(y)
                else:  # an edge of the old side into the new one
                    touch.append(y)
                    count = row[other] - 1
                    if count:
                        row[other] = supers[other].nbrs[gid] = count
                    else:
                        del row[other], supers[other].nbrs[gid]
            by_group.setdefault(gid, []).append(v)
            if stay:
                seeds.setdefault(gid, []).extend(stay)
        for gid, vs in by_group.items():
            group = supers[gid]
            group.members.difference_update(vs)
            if group.members:
                group.total.add([-inj[v] for v in vs])
            else:
                del supers[gid]
                self.reshaped = True
        for gid, ys in seeds.items():
            if len(ys) > 1:
                self._split(gid, ys)
        for v in moved:
            if v in member:
                continue
            piece = [v]
            left.discard(v)
            touched = {}
            for x in piece:
                near, touch, _ = ends[x]
                for y in near:
                    if y in left:
                        left.discard(y)
                        piece.append(y)
                for y in touch:
                    touched[member[y]] = None
            if touched:
                if len(touched) > 1:
                    gid = max(touched, key=lambda g: len(supers[g].members))
                    for other in touched:
                        if other != gid:
                            self._union(gid, other)
                else:
                    gid, = touched
                group = supers[gid]
                group.members.update(piece)
                group.total.add([inj[x] for x in piece])
            else:
                gid = next(self._ids)
                group = supers[gid] = Group(source, piece, inj)
                self.reshaped = True
            row = group.nbrs
            for x in piece:
                for y in ends[x][2]:
                    other = member[y]
                    row[other] = supers[other].nbrs[gid] = row.get(other, 0) + 1
                member[x] = gid
            relabelled.extend(piece)
        return relabelled

    def split_off(self, groups: Iterable[int], cut: int,
                  adj: Mapping[int, list[tuple[int, int]]],
                  injections: Mapping[int, float], hub: list[int],
                  ) -> tuple[Condensation, int, list[int]]:
        """Move ``groups``, a side of supply group ``cut``, into a condensation
        over the side's ``adj`` and ``injections`` that shares the id counter.

        The groups keep their ids, members, totals and crossing counts.  The
        ``hub`` nodes form a new rim group with the groups' counts into
        ``cut``; if its injections sum to zero or less, it is a sink and
        merges with its neighbors.  Returns the condensation, the rim's id and
        the nodes whose group id that merge changed.
        """
        out = Condensation(adj, injections)
        out._ids = self._ids
        self.reshaped = True
        rim = next(self._ids)
        rim_group = Group(True, hub, injections)
        into_cut = self.super_nodes[cut].nbrs
        for gid in groups:
            group = out.super_nodes[gid] = self.super_nodes.pop(gid)
            for v in group.members:
                out.membership[v] = self.membership.pop(v)
            if gid in into_cut:
                del into_cut[gid]
                group.nbrs[rim] = rim_group.nbrs[gid] = group.nbrs.pop(cut)
        out.super_nodes[rim] = rim_group
        out.membership.update(dict.fromkeys(hub, rim))
        if rim_group.total.value <= 0:
            out._turn(rim, False)
        return out, rim, out._relabelled

    def cut_down(self, gid: int, nodes: Collection[int],
                 residual: float) -> list[int]:
        """Drop ``nodes``, which have no edge out of group ``gid``, from it.

        The group's injections now sum to ``residual``; if that puts it on
        the other side, it turns (see :meth:`move`).  Returns the nodes whose
        group id changed.
        """
        self._relabelled = []
        self.reshaped = True
        group = self.super_nodes[gid]
        for v in nodes:
            del self.membership[v]
        group.members.difference_update(nodes)
        group.total = ExactSum((residual,))
        if (group.total.value > 0) != group.source:
            self._turn(gid, not group.source)
        return self._relabelled

    def mismatch(self, ref: Condensation) -> str | None:
        """The first way this differs from ``ref``, or None if it matches."""
        for what, have, want in zip(("residual and side of super node",
                                     "super node of node", "crossing edge count of"),
                                    self._keyed(), ref._keyed()):
            if have != want:
                key = min(k for k in have.keys() | want.keys() if have.get(k) != want.get(k))
                return f"{what} {key} is {have.get(key)}, not {want.get(key)}"
        return None

    def _keyed(self) -> tuple[dict, dict, dict]:
        """Groups, membership and crossing counts, keyed by sorted members."""
        names = {gid: tuple(sorted(g.members))
                 for gid, g in self.super_nodes.items()}
        groups = {names[gid]: (g.total.value, "supply" if g.source else "demand")
                  for gid, g in self.super_nodes.items()}
        membership = {v: names[gid] for v, gid in self.membership.items()}
        crossing = {(names[a], names[b]): count for a, g in self.super_nodes.items()
                    for b, count in g.nbrs.items()}
        return groups, membership, crossing

    def _union(self, into: int, gid: int) -> None:
        """Merge group ``gid`` into group ``into`` on the same side."""
        group = self.super_nodes.pop(gid)
        target = self.super_nodes[into]
        self.reshaped = True
        for v in group.members:
            self.membership[v] = into
        self._relabelled.extend(group.members)
        target.members |= group.members
        target.total.add(group.total.terms)
        row = target.nbrs
        for other, count in group.nbrs.items():
            back = self.super_nodes[other].nbrs
            del back[gid]
            row[other] = back[into] = row.get(other, 0) + count

    def _turn(self, gid: int, source: bool) -> None:
        """Move a whole group across; it merges with all its neighbors."""
        group = self.super_nodes[gid]
        group.source = source
        self.reshaped = True
        row = group.nbrs
        merged = [gid, *row]
        for other in row:
            del self.super_nodes[other].nbrs[gid]
        row.clear()
        target = max(merged, key=lambda g: len(self.super_nodes[g].members))
        for other in merged:
            if other != target:
                self._union(target, other)

    def _split(self, gid: int, seeds: list[int]) -> None:
        """Split group ``gid`` into its connected pieces after it lost nodes.

        Every piece holds one of ``seeds``, the group's neighbors of the nodes
        it lost.  One search per seed runs in turn, a node at a time (Even and
        Shiloach 1981); searches that meet continue as one, and once only one
        is left unfinished, it is the largest piece and keeps ``gid``, so the
        work is charged to the smaller pieces.

        Each other piece becomes a new group in one pass over its nodes'
        edges, which moves each crossing count from ``gid``'s row to the new
        group's; a piece has no edge into the rest of ``gid``.
        """
        seeds = list(dict.fromkeys(seeds))
        if len(seeds) < 2:
            return
        owner = {s: k for k, s in enumerate(seeds)}
        parent = list(range(len(seeds)))
        stacks = [[s] for s in seeds]
        found = [[s] for s in seeds]
        active = list(range(len(seeds)))
        pieces: list[list[int]] = []
        while len(active) > 1:
            running = []
            for k in active:
                if parent[k] != k:
                    continue
                stack = stacks[k]
                if not stack:
                    pieces.append(found[k])
                    continue
                for y, _ in self.adj[stack.pop()]:
                    if self.membership.get(y) != gid:
                        continue
                    o = owner.get(y)
                    if o is None:
                        owner[y] = k
                        found[k].append(y)
                        stack.append(y)
                    elif (r := find(parent, o)) != k:
                        parent[r] = k
                        stack.extend(stacks[r])
                        found[k].extend(found[r])
                running.append(k)
            active = [k for k in running if parent[k] == k]
        if not active:
            pieces.remove(max(pieces, key=len))
        supers, member, inj = self.super_nodes, self.membership, self.injections
        group = supers[gid]
        old = group.nbrs
        for piece in pieces:
            new = next(self._ids)
            supers[new] = Group(group.source, piece, inj)
            row = supers[new].nbrs
            group.members.difference_update(piece)
            group.total.add(-inj[v] for v in piece)
            for v in piece:
                member[v] = new
                for y, _ in self.adj[v]:
                    other = member.get(y)
                    if other is not None and other != gid and other != new:
                        back = supers[other].nbrs
                        count = old[other] - 1
                        if count:
                            old[other] = back[gid] = count
                        else:
                            del old[other], back[gid]
                        row[other] = back[new] = row.get(other, 0) + 1
            self._relabelled.extend(piece)
            self.reshaped = True


def source_cut_vertices(cond: Condensation) -> list[int]:
    """Ids of the supply super nodes that are cut vertices.

    They are ordered by smallest member.  Such a super node separates the
    condensed graph, so the remaining subproblem can be split there like an
    articulation supply.  They depend only on the groups, their sides and
    the keys of their crossing counts, so while ``cond.reshaped`` is clear
    the last search's empty answer holds and no walk runs.  An empty answer
    clears it; a non-empty one is not kept, since its order reads members.
    """
    supers = cond.super_nodes
    if not cond.reshaped or len(supers) <= 2 or all(
            len(g.nbrs) < 2 for g in supers.values() if g.source):
        cond.reshaped = False
        return []
    artics = lowpoint(supers, {gid: g.nbrs for gid, g in supers.items()})
    cuts = sorted((a for a in artics if supers[a].source),
                  key=lambda a: min(supers[a].members))
    cond.reshaped = bool(cuts)
    return cuts


def lowpoint(roots: Iterable[int],
             adj: Mapping[int, Collection[int]] | Sequence[Collection[int]],
             ) -> set[int]:
    """Articulation points of a simple graph.

    Iterative Tarjan lowpoint walk from each node of ``roots`` (every node)
    not yet reached, in order; ``adj`` gives each node's distinct neighbors,
    visited in stored order, which the set of articulation points does not
    depend on.
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
        stack = [(start, -1, iter(adj[start]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if w == parent:
                    continue
                if w not in disc:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, v, iter(adj[w])))
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
