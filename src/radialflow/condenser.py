"""Condensation of a partially grown forest into supply and demand sides.

Every node belongs to a polytree (untouched nodes count as singletons).  A
tree sits on the supply side while its residual injection is positive and on
the demand side once drained.  Same-side connected groups collapse into super
nodes; only edges crossing sides survive, and parallel crossings are kept as
distinct entries so the sampler can weigh each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .islander import lowpoint
from .network_model import GraphView


@dataclass(frozen=True)
class SuperNode:
    """A maximal same-side group of polytrees.

    ``residual`` is the exact sum of member injections, positive for supply
    (``kind == "source"``) and non-positive for demand (``kind == "sink"``).
    """

    members: tuple[int, ...]
    residual: float
    kind: str


@dataclass(frozen=True)
class CondensedView:
    """Super nodes, the crossing edges between them, and node membership."""

    super_nodes: tuple[SuperNode, ...]
    super_edges: tuple[tuple[int, int, int], ...]
    membership: dict[int, int]

    def adjacency(self) -> list[set[int]]:
        """Distinct neighboring super nodes of each super node, by index."""
        out: list[set[int]] = [set() for _ in self.super_nodes]
        for su, sv, _ in self.super_edges:
            out[su].add(sv)
            out[sv].add(su)
        return out

    def super_of(self, node: int) -> SuperNode:
        return self.super_nodes[self.membership[node]]


def net_concad(view: GraphView, injections: Mapping[int, float] | Sequence[float],
               polytrees: Mapping[int, int], *,
               adjacency: Mapping[int, list[tuple[int, int]]] | None = None,
               ) -> CondensedView:
    """Condense a graph around its current polytrees.

    Args:
        view: Graph being solved; all of its edges participate.
        injections: Per-node injection, indexable by parent node id.
        polytrees: Tree id per touched node; nodes missing from the mapping
            are treated as singleton trees of themselves.
        adjacency: ``view.adjacency()``, if the caller keeps it across calls.

    Returns:
        A :class:`CondensedView` with super nodes ordered by smallest member
        id, so output is deterministic for a fixed input.
    """
    tree_of = {v: polytrees.get(v, v) for v in view.nodes}
    members_of: dict[int, list[int]] = {}
    for v in sorted(view.nodes):
        members_of.setdefault(tree_of[v], []).append(v)
    tree_residual = {t: math.fsum(injections[v] for v in vs)
                     for t, vs in members_of.items()}
    side = {v: tree_residual[tree_of[v]] > 0 for v in view.nodes}

    adj = adjacency if adjacency is not None else view.adjacency()
    comp: dict[int, int] = {}
    groups: list[list[int]] = []
    for start in sorted(view.nodes):
        if start in comp:
            continue
        ci = len(groups)
        comp[start] = ci
        group = [start]
        stack = [start]
        while stack:
            x = stack.pop()
            for y, _ in adj[x]:
                if y not in comp and side[y] == side[x]:
                    comp[y] = ci
                    group.append(y)
                    stack.append(y)
        groups.append(sorted(group))

    supers = tuple(
        SuperNode(tuple(g), math.fsum(injections[v] for v in g),
                  "source" if side[g[0]] else "sink")
        for g in groups)

    super_edges: list[tuple[int, int, int]] = []
    for idx in view.edge_indices:
        u, v, _ = view.net.edges[idx]
        if side[u] != side[v]:
            super_edges.append((comp[u], comp[v], idx))
    return CondensedView(supers, tuple(super_edges), comp)


def assert_irreducible(cond: CondensedView) -> bool:
    """Check that no supply super node is a cut vertex of the condensed graph.

    The growth loop splits the subproblem at any such super node before it
    samples (see :func:`source_cut_vertices`), so every condensation the
    sampler consults passes; the check exists so tests and debug runs can
    confirm it.
    """
    return not source_cut_vertices(cond)


def source_cut_vertices(cond: CondensedView) -> list[int]:
    """Indices of the supply super nodes that are cut vertices, ascending.

    Such a super node separates the condensed graph, so the remaining
    subproblem can be split there like an articulation supply.
    """
    n = len(cond.super_nodes)
    if n <= 2:
        return []
    artics, _ = lowpoint(range(n), cond.adjacency())
    return sorted(a for a in artics if cond.super_nodes[a].kind == "source")
