"""Same-side condensation into super nodes and the irreducibility check."""

import math
import random
from collections import Counter

import networkx as nx
import pytest

from radialflow import (Infeasible, InvariantViolation, build_network,
                        forward_engine, solve)
from radialflow.condenser import (Condensation, CondensedView, SuperNode,
                                  assert_irreducible, net_concad,
                                  source_cut_vertices)
from radialflow.network_model import balance_tolerance, full_view

from conftest import small_instances, ws_instance
from test_golden import ring_chain


def two_sources_one_sink_chain():
    # supplies at both ends, the contiguous sinks x-y-z between them
    names = ["s1", "x", "y", "z", "s2"]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
    injections = [2.0, -1.0, -2.0, -1.0, 2.0]
    return build_network(names, edges, injections)


def test_initial_condensation():
    net = two_sources_one_sink_chain()
    cond = net_concad(full_view(net), list(net.injections), {})
    kinds = [s.kind for s in cond.super_nodes]
    assert kinds.count("source") == 2
    assert kinds.count("sink") == 1
    members = sorted(tuple(sorted(s.members)) for s in cond.super_nodes)
    assert members == [(0,), (1, 2, 3), (4,)]
    sink = cond.super_of(2)
    assert sink.residual == pytest.approx(-4.0)
    assert cond.super_of(0).residual == pytest.approx(2.0)


def test_polytree_grouping_and_residual():
    net = two_sources_one_sink_chain()
    # x joined s1's tree: tree residual 2 - 1 = 1 keeps the super a source
    cond = net_concad(full_view(net), list(net.injections), {0: 0, 1: 0})
    grown = cond.super_of(0)
    assert set(grown.members) == {0, 1}
    assert grown.kind == "source"
    assert grown.residual == pytest.approx(1.0)
    assert set(cond.super_of(2).members) == {2, 3}


def test_drained_tree_counts_as_sink():
    # the drained pair s-a must not leak into neighboring demand groups,
    # so its only outside contact is a supply node
    names = ["s", "a", "s2", "b"]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    net = build_network(names, edges, [2.0, -2.0, 1.0, -1.0])
    cond = net_concad(full_view(net), list(net.injections), {0: 0, 1: 0})
    grown = cond.super_of(0)
    assert set(grown.members) == {0, 1}
    assert grown.residual == pytest.approx(0.0)
    assert grown.kind == "sink"


def test_cross_edges_only_and_conserved():
    net = two_sources_one_sink_chain()
    cond = net_concad(full_view(net), list(net.injections), {})
    crossing = {e[2] for e in cond.super_edges}
    assert crossing == {0, 3}
    internal = set(range(net.m)) - crossing
    assert internal == {1, 2}
    total = math.fsum(s.residual for s in cond.super_nodes)
    assert abs(total) <= balance_tolerance(net.injections)


def test_parallel_super_edges_kept():
    # both rim edges cross between the same two supers and stay distinct
    names = ["s", "a", "b"]
    edges = [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0)]
    injections = [2.0, -1.0, -1.0]
    net = build_network(names, edges, injections)
    cond = net_concad(full_view(net), list(net.injections), {})
    assert len(cond.super_nodes) == 2
    pairs = [(min(e[0], e[1]), max(e[0], e[1])) for e in cond.super_edges]
    assert pairs == [(0, 1), (0, 1)]
    assert sorted(e[2] for e in cond.super_edges) == [0, 1]


def test_membership_partitions_nodes():
    net = two_sources_one_sink_chain()
    cond = net_concad(full_view(net), list(net.injections), {0: 0, 1: 0})
    seen = sorted(v for s in cond.super_nodes for v in s.members)
    assert seen == [0, 1, 2, 3, 4]
    for si, sup in enumerate(cond.super_nodes):
        for v in sup.members:
            assert cond.membership[v] == si


def test_supers_ordered_by_smallest_member():
    net = two_sources_one_sink_chain()
    cond = net_concad(full_view(net), list(net.injections), {})
    mins = [min(s.members) for s in cond.super_nodes]
    assert mins == sorted(mins)


def test_irreducible_on_ring(gap_ring):
    cond = net_concad(full_view(gap_ring), list(gap_ring.injections), {})
    assert assert_irreducible(cond)


def test_reducible_handbuilt():
    # a source super sitting between two sink supers is an articulation
    supers = (SuperNode((0,), -1.0, "sink"),
              SuperNode((1,), 2.0, "source"),
              SuperNode((2,), -1.0, "sink"))
    view = CondensedView(supers, ((0, 1, 0), (1, 2, 1)), {0: 0, 1: 1, 2: 2})
    assert not assert_irreducible(view)


def test_cut_sink_does_not_count():
    supers = (SuperNode((0,), 1.0, "source"),
              SuperNode((1,), -2.0, "sink"),
              SuperNode((2,), 1.0, "source"))
    view = CondensedView(supers, ((0, 1, 0), (1, 2, 1)), {0: 0, 1: 1, 2: 2})
    assert assert_irreducible(view)


def test_growth_can_break_irreducibility():
    # ring with a chord: merging the chord endpoints into one polytree
    # leaves that super as the only connection between the two rim sinks
    names = ["a", "s", "b", "t"]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (1, 3, 1.0)]
    injections = [-1.0, 2.0, -1.0, 0.0]
    net = build_network(names, edges, injections)
    view = full_view(net)

    before = net_concad(view, list(net.injections), {})
    assert assert_irreducible(before)

    after = net_concad(view, list(net.injections), {1: 1, 3: 1})
    grown = after.super_of(1)
    assert set(grown.members) == {1, 3}
    assert grown.kind == "source"
    assert not assert_irreducible(after)


def networkx_source_cuts(cond):
    g = nx.Graph()
    g.add_nodes_from(range(len(cond.super_nodes)))
    g.add_edges_from((su, sv) for su, sv, _ in cond.super_edges)
    return sorted(a for a in nx.articulation_points(g)
                  if cond.super_nodes[a].kind == "source")


def test_source_cut_vertices_match_networkx_on_chord_ring():
    net = build_network(["a", "s", "b", "t"],
                        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0),
                         (1, 3, 1.0)],
                        [-1.0, 2.0, -1.0, 0.0])
    for trees in ({}, {1: 1}, {1: 1, 3: 1}, {1: 1, 0: 1}):
        cond = net_concad(full_view(net), list(net.injections), trees)
        assert source_cut_vertices(cond) == networkx_source_cuts(cond)


def test_source_cut_vertices_match_networkx_on_grown_states():
    # grow random polytrees from the supplies, one absorb or merge per step,
    # and compare every condensation on the way
    found = 0
    for seed in range(10):
        net = ws_instance(40, seed)
        rng = random.Random(seed)
        trees = {v: v for v in net.source_set}
        while True:
            moves = [(u, v) for a, b, _ in net.edges for u, v in ((a, b), (b, a))
                     if u in trees and trees[u] != trees.get(v)]
            if not moves:
                break
            u, v = rng.choice(moves)
            if v in trees:
                old = trees[v]
                trees.update((x, trees[u]) for x, t in trees.items() if t == old)
            else:
                trees[v] = trees[u]
            cond = net_concad(full_view(net), list(net.injections), trees)
            want = networkx_source_cuts(cond)
            assert source_cut_vertices(cond) == want
            found += bool(want)
    assert found


def canonical(cond):
    """Super nodes, membership and crossing counts keyed by member tuples."""
    if isinstance(cond, CondensedView):
        names = {i: s.members for i, s in enumerate(cond.super_nodes)}
        supers = {s.members: (s.residual, s.kind) for s in cond.super_nodes}
        crossing = Counter()
        for a, b, _ in cond.super_edges:
            crossing[names[a], names[b]] += 1
            crossing[names[b], names[a]] += 1
    else:
        names = {gid: tuple(sorted(g.members))
                 for gid, g in cond.super_nodes.items()}
        supers = {names[gid]: (g.residual, g.kind)
                  for gid, g in cond.super_nodes.items()}
        crossing = Counter({(names[a], names[b]): count
                            for a, row in cond.adjacency().items()
                            for b, count in row.items()})
    membership = {v: names[gid] for v, gid in cond.membership.items()}
    return supers, membership, crossing


def test_incremental_condensation_matches_rebuild(monkeypatch):
    # after every step the incremental condensation must equal a rebuild
    # from scratch, residuals bit for bit; each step's kind is counted to
    # show that every kind of update ran
    seen = Counter()
    step = {}
    real_sample = forward_engine.sample
    real_move = Condensation.move

    def rebuilt():
        state = step["state"]
        for t, members in state.members.items():
            assert state.residuals[t] == math.fsum(
                step["injections"][v] for v in members)
        return canonical(net_concad(step["view"], step["injections"],
                                    state.membership))

    def checked_sample(view, injections, state, h, edges, *, cond, replicas):
        step.update(view=view, injections=injections, state=state,
                    trees=len(state.residuals))
        step["before"] = rebuilt()
        assert canonical(cond) == step["before"]
        return real_sample(view, injections, state, h, edges, cond=cond,
                           replicas=replicas)

    def checked_move(cond, nodes, source):
        # the whole tree is passed when it merged or changed side
        nodes = list(nodes)
        seen["flip"] += len(nodes) > 1 and any(cond.source[v] != source
                                               for v in nodes)
        real_move(cond, nodes, source)
        after = rebuilt()
        assert canonical(cond) == after
        merged = len(step["state"].residuals) < step["trees"]
        seen["merge" if merged else "absorb"] += 1
        supers, membership, _ = after
        for members, (_, kind) in step["before"][0].items():
            if kind == "sink":
                pieces = {membership[v] for v in members
                          if supers[membership[v]][1] == "sink"}
                seen["sink split"] += len(pieces) > 1

    monkeypatch.setattr(forward_engine, "sample", checked_sample)
    monkeypatch.setattr(Condensation, "move", checked_move)
    nets = [ws_instance(40, seed) for seed in range(10)]
    nets += [net for _, net in small_instances(50)]
    nets.append(ring_chain())
    for net in nets:
        _, report = solve(net)
        seen["growth split"] += report.splits
    assert all(seen[event] > 0 for event in (
        "absorb", "merge", "flip", "sink split", "growth split")), seen


def test_reference_check_catches_a_stale_condensation(monkeypatch):
    # an update that does nothing leaves the condensation stale, and
    # invariant mode must notice on the next step
    monkeypatch.setattr(Condensation, "move", lambda self, nodes, source: None)
    with pytest.raises(InvariantViolation, match="incremental condensation"):
        solve(ws_instance(40, 0), check_invariants=True)


def test_reducible_count_reads_the_rebuild(monkeypatch):
    # with the growth split disabled, the rebuilt condensations show the
    # supply cut vertices that growth would have split at
    monkeypatch.setattr(forward_engine, "source_cut_vertices", lambda cond: [])
    reducible = 0
    for seed in range(5):
        net = ws_instance(40, seed)
        try:
            _, report = solve(net, check_invariants=True)
        except (Infeasible, InvariantViolation):
            continue
        reducible += report.reducible_condensations
    assert reducible > 0
