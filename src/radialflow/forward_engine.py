"""Greedy construction of a feasible radial configuration.

Stages: settle forced edges (degree-one peeling), then grow polytrees over
the connected graph that peeling leaves, one edge at a time until every node
is covered and every tree's surplus is drained.  Whenever a supply super
node is a cut vertex of the condensation (before the first step, every
articulation supply is one), growth splits there, so every side is grown on
its own and the sampler only sees irreducible condensations.  The final
orientation and flows come from an exact forest solve over the chosen edges;
sampled directions that disagree with the solved flow are flipped and
counted.
"""

from __future__ import annotations

import json
import logging
import math
import statistics
import time
from dataclasses import dataclass, field
from operator import itemgetter, ne
from typing import Any, Sequence

from .exceptions import (Infeasible, InvalidSpec, InvariantViolation,
                         NoCandidate)
from .islander import _check_balance, islander
from . import condenser
from .condenser import net_concad, source_cut_vertices
from .network_model import (DistributionNetwork, GraphView,
                            RadialConfiguration, balance_tolerance)
from .preprocessor import preprocess
from .sampler import ForestState, Frontier, PathCostAccumulator, sample, score
from .tree_flow import solve_forest

logger = logging.getLogger("radialflow.engine")


@dataclass(frozen=True)
class TraceRow:
    """One sampling decision, for the optional CSV trace.

    ``raw_weight``, ``balance_ok`` and ``pendant`` are the pick's own: its
    two priority flags and then its raw weight decided the pick.
    """

    iteration: int
    edge_index: int
    raw_weight: float
    balance_ok: bool
    pendant: bool
    deleted_count: int


#: Version of the :meth:`SolveReport.to_json` document.
REPORT_SCHEMA_VERSION = 1


@dataclass
class SolveReport:
    """Solve statistics.  ``to_json`` emits all but ``trace``, ``sampled``
    and ``edge_indices``.

    ``partitions`` is 1, or 0 when peeling settles every edge; ``splits``
    counts the growth splits.  ``timings`` holds the seconds of the four
    stages (``preprocess``, ``islander``, the balance check, ``loop``,
    ``solve_flow``, only building the result if peeling settles every edge)
    and, inside the loop, the seconds spent building condensations, keeping
    them current and searching them for cut vertices (``condense``) and in
    the sampler's selection (``sample``; keeping the frontier's classes
    current counts as loop time).  ``candidates`` counts the orientations
    whose weight the sampler computed; it is not in the JSON document yet.
    ``sampled`` holds the ``(tail, head)`` each chosen edge was given before
    the forest solve, settled edges first, and ``edge_indices`` the edges in
    the same order.  Growth counts into the report as it goes, and
    :func:`solve` turns ``trace`` into a tuple.
    """

    cost: float = 0.0
    iterations: int = 0
    partitions: int = 0
    presampled: int = 0
    flipped_edges: int = 0
    timings: dict[str, float] = field(default_factory=lambda: dict.fromkeys(
        ("preprocess", "islander", "loop", "solve_flow", "condense",
         "sample"), 0.0))
    n: int = 0
    m: int = 0
    zero_flow: int = 0
    merges: int = 0
    reducible_condensations: int = 0
    splits: int = 0
    candidates: int = 0
    trace: Sequence[TraceRow] = field(default_factory=list)
    sampled: list[tuple[int, int]] = field(default_factory=list)
    edge_indices: list[int] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {"schema_version": REPORT_SCHEMA_VERSION, "n": self.n,
               "m": self.m, "cost": self.cost, "iterations": self.iterations,
               "partitions": self.partitions, "presampled": self.presampled,
               "merges": self.merges, "splits": self.splits,
               "flipped_edges": self.flipped_edges,
               "zero_flow": self.zero_flow,
               "reducible_condensations": self.reducible_condensations,
               "timings": self.timings}
        return json.dumps(doc, indent=2) + "\n"


def solve(net: DistributionNetwork, *, check_invariants: bool = False,
          collect_trace: bool = False) -> tuple[RadialConfiguration, SolveReport]:
    """Build a feasible radial configuration for a network.

    The graph left by peeling is grown whole.  Its condensation is built
    once by :func:`net_concad` and then updated by every step.

    Args:
        net: Connected, balanced distribution network.
        check_invariants: Diagnostics mode.  Before every sampling step it
            rebuilds the condensation with :func:`net_concad`, compares it
            with the updated one, and compares each tree residual with
            ``math.fsum``, and holds every step's pick to a full scan of the
            remaining pool (:func:`~radialflow.sampler.score`); after every
            step it verifies the monotone surplus drain, and at the end the
            final configuration.  A failure raises
            :class:`InvariantViolation`.  ``report.reducible_condensations``
            counts the rebuilt condensations with an articulation
            super-source.  Growth splits at every such super node before
            sampling, so the count is zero unless that split or the
            incremental condensation is broken.
        collect_trace: Record one :class:`TraceRow` per sampling decision.

    Returns:
        The configuration and a :class:`SolveReport`.

    Raises:
        Infeasible: If the construction gets stuck; the message names the
            subproblem by its smallest node id and gives the iteration, which
            ``iteration`` carries.  Also raised, with ``iteration`` None, when
            the cost of the solved flows overflows, or when they leave a
            demand node a root because rounding lost a supply.
        InfeasibleSplit: If the peeled graph or a side of a growth split
            fails to balance.
    """
    t0 = time.perf_counter()
    pre = preprocess(net)
    t1 = time.perf_counter()
    logger.info("preprocess settled %d edges, %d remain",
                len(pre.presampled), net.m - len(pre.presampled))

    report = SolveReport(partitions=int(not pre.fully_reduced),
                         presampled=len(pre.presampled), n=net.n, m=net.m,
                         sampled=list(pre.presampled),
                         edge_indices=list(pre.presampled_edge_indices))
    t2 = t1
    if not pre.fully_reduced:
        floor = balance_tolerance(net.injections)  # peeling adds in floats
        islander(pre.reduced_injections, floor)
        t2 = time.perf_counter()
        run_partition(pre.reduced, pre.reduced_injections, report, tol=floor,
                      check_invariants=check_invariants,
                      collect_trace=collect_trace)
    t3 = time.perf_counter()

    solution = solve_forest(net, report.edge_indices, peeled=pre.peeled)
    t4 = time.perf_counter()
    if not math.isfinite(solution.cost):
        raise Infeasible(f"cost of the solved flows overflows to {solution.cost}")

    final_edges = solution.oriented_edges
    if pre.peeled is None:  # else the peel's own steps oriented every edge
        final_edges = list(final_edges)
        for k in solution.zero_flow_edges:
            final_edges[k] = report.sampled[k]
        report.flipped_edges = sum(map(ne, final_edges, report.sampled))
    # rounding can lose a supply under a huge injection; no root may be a demand
    roots = set(range(net.n)).difference(map(itemgetter(1), final_edges))
    bad = [v for v in roots if net.injections[v] < 0] if final_edges else []
    if bad:
        raise Infeasible(f"the solved flows leave demand node {net.names[min(bad)]} a root")
    cfg = RadialConfiguration(tuple(final_edges), solution.flows, solution.cost)

    report.cost = solution.cost
    report.zero_flow = len(solution.zero_flow_edges)
    report.trace = tuple(report.trace)
    report.timings.update(preprocess=t1 - t0, islander=t2 - t1, loop=t3 - t2,
                          solve_flow=t4 - t3)
    logger.info("solved: cost %.6g, %d iterations, %d flips",
                report.cost, report.iterations, report.flipped_edges)
    if check_invariants:
        from .network_model import validate_radial
        outcome_report = validate_radial(net, cfg)
        if not outcome_report.passed:
            raise InvariantViolation(
                "final configuration failed validation: " + outcome_report.summary())
    return cfg, report


#: Edge id of the links that hold a cut-down hub together (see
#: :func:`split_at_cut`); no pool, frontier or crossing count holds one.
HUB_LINK = -1


@dataclass
class Subproblem:
    """A connected piece of the peeled graph whose polytrees still grow.

    :func:`split_at_cut` replaces a subproblem by one per side of a supply
    super node that has become a cut vertex of the condensation.  The
    subproblem reaches its polytrees (``frontier.state``), its condensation
    (``frontier.cond``), its adjacency (``frontier.cond.adj``: each node's
    ``(neighbor, edge index)`` pairs and :data:`HUB_LINK` links, nodes in
    ascending order) and its injections (``frontier.cond.injections``) only
    through its frontier; a node is uncovered while no tree holds it.
    ``linked`` holds the root, kept hub nodes and smallest hub node of the
    last split; no edge lies between those nodes.
    """

    net: DistributionNetwork
    frontier: Frontier
    linked: tuple[int, set[int], int] | None = None

    @property
    def graph(self) -> GraphView:
        return GraphView(self.net, self.frontier.cond.adj)

    def name(self) -> str:
        """The subproblem, named in errors by its smallest node id."""
        return f"the subproblem of node {next(iter(self.frontier.cond.adj))}"


def run_partition(view: GraphView, injections: dict[int, float],
                  report: SolveReport, *, tol: float, check_invariants: bool = False,
                  collect_trace: bool = False) -> None:
    """Grow polytrees over the peeled graph until covered and drained.

    A tree grows from each supply; a graph without supply grows one tree
    from its smallest node, which is then that tree's id.  Before every step
    the condensation is searched for supply super nodes that are cut
    vertices.  At the first one the subproblem is split and the sides are
    grown one after another, smallest node id first.  The sampler therefore
    only ever consults irreducible condensations.  The chosen edges, counts
    and seconds go straight into ``report``; growth adds at most n - 1
    edges.  ``view.adj`` lists its nodes in ascending order, as
    :func:`preprocess` builds it; growth keeps that order and cuts
    ``view.adj`` and ``injections`` down in place.  ``tol`` is the balance
    tolerance, the whole network's.
    """
    net, adj, inj = view.net, view.adj, injections
    sources = sorted(v for v, p in inj.items() if p > 0) or [next(iter(adj))]
    pool = [(idx, *net.edges[idx])
            for idx in sorted({i for links in adj.values() for _, i in links})]
    cap = len(report.edge_indices) + len(adj) - 1
    todo = [_subproblem(net, adj, ForestState(sources, inj), pool,
                        PathCostAccumulator(), report)]
    lone: list[int] = []
    while todo:
        todo.extend(reversed(_grow(todo.pop(), tol, cap, report, lone,
                                   check_invariants, collect_trace)))
    if lone:
        # a supply within tolerance of zero counts as drained, so growth may
        # leave it a tree of its own: each such node that no chosen edge
        # reaches gets the first edge to one that does (if none does, the
        # smallest such node is reached first)
        reached = {v for idx in report.edge_indices for v in net.edges[idx][:2]}
        left = set(lone) - reached
        reached = reached or {min(left)}
        left -= reached
        while left:
            join = next(((idx, u, v) for idx, (a, b, _) in enumerate(net.edges)
                         for u, v in ((a, b), (b, a)) if u in left and v in reached), None)
            if join is None:
                raise Infeasible(f"supply node {net.names[min(left)]} is left with "
                                 f"no edge", iteration=report.iterations)
            idx, tail, head = join
            left.remove(tail)
            reached.add(tail)
            report.sampled.append((tail, head))
            report.edge_indices.append(idx)


def _subproblem(net: DistributionNetwork, adj: dict, state: ForestState,
                pool: list, h: PathCostAccumulator, report: SolveReport) -> Subproblem:
    """The first subproblem, over the peeled graph ``adj``: :func:`net_concad`
    builds its condensation, and its frontier holds ``pool``."""
    start = time.perf_counter()
    cond = net_concad(GraphView(net, adj), state.injections, state.membership)
    report.timings["condense"] += time.perf_counter() - start
    return Subproblem(net, Frontier(pool, state, cond, h))


def _grow(sub: Subproblem, tol: float, cap: int, report: SolveReport, lone: list[int],
          check_invariants: bool, collect_trace: bool) -> list[Subproblem]:
    """Grow one subproblem until done (returns ``[]``) or split (its sides).

    The frontier and the condensation are updated by each step where it
    changes them.  ``cap`` bounds the edges in ``report``.  When done, the
    node of every one-node tree goes into ``lone``.
    """
    net, view, frontier = sub.net, sub.graph, sub.frontier
    state, cond, h = frontier.state, frontier.cond, frontier.h
    timings, trace = report.timings, report.trace
    while True:
        step = report.iterations
        uncovered = len(state.membership) < len(cond.adj)
        drained = all(abs(s.value) <= tol for s in state.sums.values())
        if not uncovered and drained:
            lone.extend(m[0] for m in state.members.values() if len(m) == 1)
            return []
        if len(report.edge_indices) >= cap:
            raise Infeasible(
                f"{sub.name()} is still "
                f"{'uncovered' if uncovered else 'imbalanced'} at iteration "
                f"{step}", iteration=step)
        if not uncovered and not frontier:
            raise Infeasible(
                f"{sub.name()} has imbalanced trees and no edges left at "
                f"iteration {step}", iteration=step)

        start = time.perf_counter()
        cuts = source_cut_vertices(cond)
        timings["condense"] += time.perf_counter() - start
        if cuts:
            return split_at_cut(sub, cuts[0], report, tol=tol)

        if check_invariants:
            before = math.fsum(max(s.value, 0.0) for s in state.sums.values())
            if _reference_is_reducible(sub, step):
                report.reducible_condensations += 1
                logger.debug("reducible condensation in %s at iteration %d",
                             sub.name(), step)
            expected = _reference_pick(sub, step)

        deleted = frontier.flush()
        start = time.perf_counter()
        try:
            result = sample(view, cond.injections, state, h, frontier)
        except NoCandidate as exc:
            raise Infeasible(f"{sub.name()} is stuck at iteration {step}: "
                             f"{exc}", iteration=step) from exc
        timings["sample"] += time.perf_counter() - start
        report.candidates += result.evaluated
        if check_invariants and expected != result.best[:3]:
            raise InvariantViolation(
                f"selection in {sub.name()} at iteration {step} picked "
                f"edge {result.best[2]} ({result.best[0]} > "
                f"{result.best[1]}), the full scan edge {expected[2]} "
                f"({expected[0]} > {expected[1]})")
        i, j, eidx, w, demand, balance, pendant = result.best
        if collect_trace:
            trace.append(TraceRow(len(trace) + 1, eidx, w, balance, pendant,
                                  deleted))

        frontier.remove(eidx)
        ti = state.tree_of(i)
        tj = state.tree_of(j)
        was_source = cond.super_nodes[cond.membership[i]].source
        if tj is None:
            h.extend(i, j, net.edges[eidx][2], demand)
            state.absorb(ti, j)
            frontier.grown((j,))
        else:
            smaller = list(min(state.members[ti], state.members[tj], key=len))
            state.merge(ti, tj)
            report.merges += 1
            frontier.grown(smaller, merged=tj)
        start = time.perf_counter()
        source = state.sums[ti].value > 0
        if tj is None and source == was_source:
            relabelled = cond.move((j,), source)
        else:
            # a tree changed side, or two trees merged
            relabelled = cond.move(state.members[ti], source)
        timings["condense"] += time.perf_counter() - start
        frontier.regroup(relabelled)

        report.sampled.append((i, j))
        report.edge_indices.append(eidx)
        report.iterations += 1
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "iter %d: edge %d (%s > %s) raw w=%.4g bal=%s pend=%s",
                step + 1, eidx, net.names[i], net.names[j], w, balance,
                pendant)

        if check_invariants:
            after = math.fsum(max(s.value, 0.0) for s in state.sums.values())
            if after > before + tol:
                raise InvariantViolation(
                    f"surplus grew from {before!r} to {after!r} in "
                    f"{sub.name()} at iteration {step + 1}")


def _reference_pick(sub: Subproblem, iteration: int) -> tuple:
    """``(tail, head, edge index)`` a full scan of the remaining pool picks,
    all None when no orientation is live.

    Raises :class:`InvariantViolation` unless the frontier's classes hold
    exactly the live orientations the scan finds, by tail tree and head group.
    """
    f = sub.frontier
    raw = score(f.pool.values(), f)
    want = {(r[2], r[0]): (f.state.tree_of(r[0]), f.cond.membership[r[1]])
            for r in raw}
    have = {key: (t, g) for t, row in f.classes.items()
            for g, cls in row.items() for key in cls.members
            if f.where.get(key) is cls}
    if have != want or len(f.where) != len(want):
        key = min(k for k in f.where.keys() | want.keys()
                  if have.get(k) != want.get(k))
        raise InvariantViolation(
            f"frontier of {sub.name()} at iteration {iteration}: the "
            f"orientation (edge index, tail) {key} is in class "
            f"{have.get(key)}, not {want.get(key)}")
    return min(raw, key=lambda r: (not r[6], not r[5], -r[3], r[0], r[1]),
               default=(None, None, None))[:3]


def _reference_is_reducible(sub: Subproblem, iteration: int) -> bool:
    """Check the incremental state against a rebuild from scratch.

    Raises :class:`InvariantViolation` if the condensation or a tree residual
    differs from the one :func:`net_concad` and ``math.fsum`` give; returns
    whether the rebuilt condensation has a supply cut vertex.  That search
    goes through the condenser module, not this module's name, so replacing
    the latter to switch the growth split off leaves the count intact.
    """
    state, cond = sub.frontier.state, sub.frontier.cond
    ref = net_concad(sub.graph, cond.injections, state.membership)
    problem = cond.mismatch(ref)
    for t, members in state.members.items():
        exact = math.fsum(cond.injections[v] for v in members)
        if problem is None and state.sums[t].value != exact:
            problem = f"tree {t} has residual {state.sums[t].value!r}, not {exact!r}"
    if problem is not None:
        raise InvariantViolation(
            f"incremental condensation of {sub.name()} at iteration "
            f"{iteration}: {problem}")
    return bool(condenser.source_cut_vertices(ref))


def split_at_cut(sub: Subproblem, cut: int, report: SolveReport, *,
                 tol: float) -> list[Subproblem]:
    """Split a subproblem at a supply super node that is a cut vertex.

    This is the only partitioning: before the first step it splits at
    articulation supplies, later at super nodes that growth made cut
    vertices.  The super node's polytrees (the hub) are first joined into
    one tree over the remaining edges between them, cheapest coefficient
    first (ties by edge index), recorded in ``report`` as merges.  Every
    side gets that tree as a replica whose root (its id node) holds the
    side's net need from :func:`replica_shares`, the first side as host, so
    a side with net surplus sees it as a demand; the root joins the side
    frontier's ``replicas``.  Side sums come from the groups' exact totals.

    A side keeps of the hub its rim (the nodes with an edge into it), the
    root and the hub's smallest node, which keeps cuts and sides in order;
    :data:`HUB_LINK` links from the root hold them together.  The side with
    the most nodes of its own keeps ``sub``, its frontier and everything the
    frontier holds, cut down in place.  Every other side is handed its
    trees, groups, pool edges and classes (the ``split_off`` methods); only
    its rim group is new.  Of a hub the last split cut down (``sub.linked``),
    only the nodes added since and those next to them or to a small side are
    looked at.  So a split costs a search over the groups, the small sides
    and the new hub nodes (Even and Shiloach 1981).  Every side's adjacency
    lists its nodes in ascending order: a small side's is built so, and the
    kept side only loses keys or has their lists replaced.  So a side's
    smallest node of its own is its first key outside the hub.

    Args:
        sub: Subproblem to split; it becomes its largest side.
        cut: Id in ``sub.frontier.cond`` of a supply super node that is a
            cut vertex.
        report: Report receiving the joining edges and the seconds spent
            handing the sides their condensations.
        tol: Balance tolerance of the peeled graph, the floor for the side
            checks.

    Returns:
        One subproblem per side, ordered by smallest node of its own.

    Raises:
        InfeasibleSplit: If a side's injections fail to balance.
    """
    frontier = sub.frontier
    state, cond = frontier.state, frontier.cond
    adj, inj = cond.adj, cond.injections
    supers = cond.super_nodes
    hub = supers[cut].members
    seen, sides = {cut}, []
    for first in supers[cut].nbrs:
        if first not in seen:
            seen.add(first)
            groups = [first]
            for g in groups:
                groups.extend(y for y in supers[g].nbrs if y not in seen)
                seen.update(supers[g].nbrs)
            sides.append(groups)
    sizes = [sum(len(supers[g].members) for g in groups) for groups in sides]
    big = sizes.index(max(sizes))
    small = {k: [v for g in groups for v in supers[g].members]
             for k, groups in enumerate(sides) if k != big}
    dropped = set().union(*small.values())

    # no edge lies between the hub nodes the last split kept, so every edge
    # inside the hub has an end among the new ones
    old: set[int] = set()
    if sub.linked is not None:
        last_root, last_kept, last_top = sub.linked
        if (last_top in hub and state.tree_of(last_top) == last_root
                and len(state.members[last_root]) == len(hub)):
            old = last_kept
    new = hub - old
    top = min(min(new, default=last_top), last_top) if old else min(hub)
    links = frontier.take({i for v in new for y, i in adj[v] if y in hub})
    for _, idx, u, v in sorted((c, idx, u, v) for idx, u, v, c in links):
        tu, tv = state.tree_of(u), state.tree_of(v)
        if tu != tv:
            if tv < tu:
                u, v, tu, tv = v, u, tv, tu
            state.merge(tu, tv)
            frontier.grown((), merged=tv)
            report.sampled.append((u, v))
            report.edge_indices.append(idx)
            report.merges += 1
    root = state.tree_of(top)
    replicas = frontier.replicas | {root}
    report.splits += 1
    logger.debug("split at tree %d into %d sides", root, len(sides))

    # a small side takes its nodes' edge lists and new ones for its rim, in
    # ascending node order; the kept side's old hub nodes next to no new
    # node or small side keep their edges into it, and the old smallest
    # node stays if still smallest
    side_adj, side_inj, hubs, touched = {big: adj}, {big: inj}, {}, set()
    for k, own in small.items():
        side_inj[k] = {v: inj[v] for v in own}
        rim: dict[int, list[tuple[int, int]]] = {}
        for v in own:
            for y, idx in adj[v]:
                if y in hub:
                    rim.setdefault(y, []).append((v, idx))
        touched.update(rim)
        hubs[k] = [*rim, *{root, top}.difference(rim)]
        spokes = [(v, HUB_LINK) for v in hubs[k] if v != root]
        links = {v: [*rim.get(v, ()), (root, HUB_LINK)] for v, _ in spokes}
        links[root] = [*rim.get(root, ()), *spokes]
        side_adj[k] = {v: links[v] if v in links else adj[v] for v in sorted([*own, *links])}
        side_inj[k].update(dict.fromkeys(hubs[k], 0.0))
    redo = set(new)
    if old:
        redo.add(last_top)
        redo.update(y for v in new for y, _ in adj[v] if y in old)
        redo.update(touched & old)
    outward = {v: [e for e in adj[v] if e[0] not in hub and e[0] not in dropped]
               for v in redo}
    keep = old
    keep.difference_update(redo)
    keep.update(v for v, edges in outward.items() if edges)
    keep.update((root, top))
    gone = redo - keep

    for v in (*dropped, *gone):
        del adj[v], inj[v]
    inj.update((v, 0.0) for v in new if v in keep)
    lows = {k: next(v for v in sadj if v not in hub) for k, sadj in side_adj.items()}
    ordered = sorted(lows, key=lows.__getitem__)
    terms = {k: [t for g in sides[k] for t in supers[g].total.terms]
             for k in ordered}
    host_share, shares = replica_shares(
        supers[cut].total.value, [math.fsum(terms[k]) for k in ordered[1:]])
    share = dict(zip(ordered, [host_share, *shares]))
    for k in ordered:
        side_inj[k][root] = share[k]
        _check_balance(side_inj[k], floor=tol,
                       total=math.fsum([share[k], *terms[k]]))

    built = {big: sub}
    for k, own in small.items():
        sadj = side_adj[k]
        side_state = state.split_off(
            sorted({t for t in map(state.tree_of, own) if t is not None}),
            side_inj[k], root, hubs[k], share[k])
        start = time.perf_counter()
        side_cond, rim, relabelled = cond.split_off(sides[k], cut, sadj, side_inj[k], hubs[k])
        report.timings["condense"] += time.perf_counter() - start
        side = frontier.split_off({i for v in own for _, i in sadj[v]}, side_state,
                                  side_cond, set(sides[k]), cut, rim, relabelled)
        side.replicas = frozenset(r for r in replicas if r in sadj)
        built[k] = Subproblem(sub.net, side, (root, set(hubs[k]), top))

    # the kept side is the subproblem, cut down in place; its hub nodes other
    # than the root hold no injection
    start = time.perf_counter()
    for v in redo & keep:
        adj[v] = outward[v]
        if v != root:
            adj[v].append((root, HUB_LINK))
    if root in redo:
        adj[root].extend((v, HUB_LINK) for v in keep if v != root)
    else:
        if gone:
            adj[root] = [e for e in adj[root] if e[0] not in gone]
        adj[root].extend((v, HUB_LINK) for v in new & keep)
    state.cut_down(root, gone, share[big])
    frontier.regroup(cond.cut_down(cut, gone, share[big]))
    report.timings["condense"] += time.perf_counter() - start
    frontier.replicas = frozenset(r for r in replicas if r in adj)
    sub.linked = (root, keep, top)
    return [built[k] for k in ordered]


def replica_shares(own: float, subtotals: Sequence[float],
                   ) -> tuple[float, list[float]]:
    """Injections for the replicas of a node split across several sides.

    ``subtotals`` holds the net injection of each side that is split off;
    its replica must absorb that side's net, so it carries the negated
    subtotal (a surplus side therefore sees its replica as a demand).  The
    host replica, on the side that stays attached, keeps the node's own
    injection ``own`` plus everything the split-off sides need.  The shares
    sum to ``own``.
    """
    return own + math.fsum(subtotals), [-s for s in subtotals]


def complexity_probe(sizes: Sequence[int], seeds: int = 5, k: int = 4,
                     beta: float = 0.2, n_sources: int | None = None,
                     digest: Any = None,
                     ) -> list[tuple[int, int, float, float]]:
    """Time the solver on freshly generated instances of each size.

    Returns one ``(n, m, median_seconds, median_cost)`` row per size, the
    medians taken over ``seeds`` generated instances; every size must exceed
    the lattice degree ``k``.  Each instance is solved three times and timed
    by its fastest solve.  If ``digest`` is given (a ``hashlib`` hash), each
    instance's ``config_to_json`` text is fed to it once, in probe order.

    Raises:
        InvalidSpec: If ``sizes`` is empty or repeats a size (the exponent
            fit needs distinct sizes), ``seeds`` is below one, or the
            generator rejects a size.
    """
    from .generator import GenSpec, generate
    from .network_model import config_to_json
    if not sizes:
        raise InvalidSpec("no sizes given")
    if len(set(sizes)) < len(sizes):
        raise InvalidSpec(f"sizes must be distinct, not {list(sizes)}")
    if seeds < 1:
        raise InvalidSpec(f"seeds must be at least 1, not {seeds}")
    points: list[tuple[int, int, float, float]] = []
    for n in sizes:
        ns = n_sources if n_sources is not None else default_source_count(n)
        times: list[float] = []
        costs: list[float] = []
        for seed in range(seeds):
            net = generate(GenSpec(n=n, k=k, beta=beta, n_sources=ns,
                                   seed=seed))
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                cfg, report = solve(net)
                best = min(best, time.perf_counter() - start)
            times.append(best)
            costs.append(report.cost)
            if digest is not None:
                digest.update(config_to_json(net, cfg).encode())
        points.append((n, net.m, statistics.median(times),
                       statistics.median(costs)))
        logger.info("probe n=%d: median %.4fs over %d seeds",
                    n, points[-1][2], seeds)
    return points


def default_source_count(n: int) -> int:
    """Supply count heuristic for generated benchmark instances."""
    return max(1, min(10 if n <= 240 else 20, n // 3))


def fit_exponent(points: Sequence[Sequence[float]]) -> float:
    """Least-squares slope of log(time) against log(size), over the rows of
    :func:`complexity_probe`."""
    xs = [math.log(row[0]) for row in points]
    ys = [math.log(max(row[2], 1e-9)) for row in points]
    slope, _ = statistics.linear_regression(xs, ys)
    return slope
