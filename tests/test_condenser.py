"""Same-side condensation into super nodes and the irreducibility check."""

import math
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialflow import (Infeasible, InvariantViolation, build_network,
                        condenser, forward_engine, solve)
from radialflow.condenser import (Condensation, net_concad,
                                  source_cut_vertices)
from radialflow.network_model import balance_tolerance

from conftest import (assert_live, full_view, small_instances, small_networks,
                      ws_instance)
from test_golden import ring_chain


def two_sources_one_sink_chain():
    # supplies at both ends, the contiguous sinks x-y-z between them
    names = ["s1", "x", "y", "z", "s2"]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
    injections = [2.0, -1.0, -2.0, -1.0, 2.0]
    return build_network(names, edges, injections)


def condense(net, trees):
    return net_concad(full_view(net), list(net.injections), trees)


def super_of(cond, node):
    return cond.membership[node]


def crossings(cond):
    """Each group's neighboring groups, with their crossing edge counts."""
    return {g: g.nbrs for g in cond.groups}


def test_initial_condensation():
    cond = condense(two_sources_one_sink_chain(), {})
    sides = [g.source for g in cond.groups]
    assert sides.count(True) == 2
    assert sides.count(False) == 1
    members = sorted(tuple(sorted(g.members)) for g in cond.groups)
    assert members == [(0,), (1, 2, 3), (4,)]
    assert super_of(cond, 2).total.value == pytest.approx(-4.0)
    assert super_of(cond, 0).total.value == pytest.approx(2.0)


def test_polytree_grouping_and_residual():
    # x joined s1's tree: tree residual 2 - 1 = 1 keeps the super a source
    cond = condense(two_sources_one_sink_chain(), {0: 0, 1: 0})
    grown = super_of(cond, 0)
    assert grown.members == {0, 1}
    assert grown.source is True
    assert grown.total.value == pytest.approx(1.0)
    assert super_of(cond, 2).members == {2, 3}


def test_drained_tree_counts_as_sink():
    # the drained pair s-a must not leak into neighboring demand groups,
    # so its only outside contact is a supply node
    names = ["s", "a", "s2", "b"]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    net = build_network(names, edges, [2.0, -2.0, 1.0, -1.0])
    grown = super_of(condense(net, {0: 0, 1: 0}), 0)
    assert grown.members == {0, 1}
    assert grown.total.value == pytest.approx(0.0)
    assert grown.source is False


def test_cross_edges_only_and_conserved():
    # edges 0 and 3 cross sides; the sink's internal edges 1 and 2 are gone
    net = two_sources_one_sink_chain()
    cond = condense(net, {})
    s1, sink, s2 = (cond.membership[v] for v in (0, 2, 4))
    assert crossings(cond) == {s1: {sink: 1}, sink: {s1: 1, s2: 1},
                               s2: {sink: 1}}
    total = math.fsum(g.total.value for g in cond.groups)
    assert abs(total) <= balance_tolerance(net.injections)


def test_parallel_super_edges_kept():
    # both rim edges cross between the same two supers and both count
    names = ["s", "a", "b"]
    edges = [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0)]
    net = build_network(names, edges, [2.0, -1.0, -1.0])
    cond = condense(net, {})
    source, sink = cond.membership[0], cond.membership[1]
    assert len(cond.groups) == 2
    assert crossings(cond) == {source: {sink: 2}, sink: {source: 2}}


def test_membership_partitions_nodes():
    cond = condense(two_sources_one_sink_chain(), {0: 0, 1: 0})
    seen = sorted(v for g in cond.groups for v in g.members)
    assert seen == [0, 1, 2, 3, 4]
    for group in cond.groups:
        for v in group.members:
            assert cond.membership[v] is group


def test_supers_ordered_by_smallest_member():
    cond = condense(two_sources_one_sink_chain(), {})
    mins = [min(g.members) for g in cond.groups]
    assert mins == sorted(mins)


def test_irreducible_on_ring(gap_ring):
    assert not source_cut_vertices(condense(gap_ring, {}))


def test_reducible_handbuilt():
    # a source super sitting between two sink supers is an articulation
    net = build_network(["a", "s", "b"], [(0, 1, 1.0), (1, 2, 1.0)],
                        [-1.0, 2.0, -1.0])
    cond = condense(net, {})
    assert source_cut_vertices(cond) == [cond.membership[1]]


def test_cut_sink_does_not_count():
    net = build_network(["s", "a", "t"], [(0, 1, 1.0), (1, 2, 1.0)],
                        [1.0, -2.0, 1.0])
    cond = condense(net, {})
    assert len(cond.groups) == 3
    assert source_cut_vertices(cond) == []


def test_growth_can_break_irreducibility():
    # ring with a chord: merging the chord endpoints into one polytree
    # leaves that super as the only connection between the two rim sinks
    names = ["a", "s", "b", "t"]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (1, 3, 1.0)]
    injections = [-1.0, 2.0, -1.0, 0.0]
    net = build_network(names, edges, injections)

    assert not source_cut_vertices(condense(net, {}))

    after = condense(net, {1: 1, 3: 1})
    grown = super_of(after, 1)
    assert grown.members == {1, 3}
    assert grown.source is True
    assert source_cut_vertices(after) == [after.membership[1]]


def test_cut_search_walks_only_after_a_reshape(monkeypatch):
    # a ring of three supplies between three demands has no cut vertex: a
    # search that found none is not walked again until a group comes or
    # goes, and a search that finds one is walked every time
    walks = []
    real = condenser.lowpoint
    monkeypatch.setattr(condenser, "lowpoint", lambda *args: walks.append(1) or real(*args))
    net = build_network(["s1", "a", "s2", "b", "s3", "c"],
                        [(v, (v + 1) % 6, 1.0) for v in range(6)],
                        [1.0, -1.0] * 3)
    cond = condense(net, {})
    assert [source_cut_vertices(cond) for _ in range(2)] == [[], []]
    assert len(walks) == 1
    cond.move([1], True)  # a joins both its supplies: a ring of four groups
    assert [source_cut_vertices(cond) for _ in range(2)] == [[], []]
    assert len(walks) == 2
    path = condense(build_network(["a", "s", "b"], [(0, 1, 1.0), (1, 2, 1.0)],
                                  [-1.0, 2.0, -1.0]), {})
    assert [source_cut_vertices(path) for _ in range(2)] == [[path.membership[1]]] * 2
    assert len(walks) == 4


def networkx_source_cuts(cond):
    g = nx.Graph()
    g.add_nodes_from(cond.groups)
    g.add_edges_from((a, b) for a, row in crossings(cond).items() for b in row)
    return sorted((a for a in nx.articulation_points(g) if a.source),
                  key=lambda a: min(a.members))


def networkx_condensation(net, trees):
    """Groups, membership and crossing counts as :func:`canonical` gives
    them, from networkx components of the same-side subgraph."""
    terms = {}
    for v, t in trees.items():
        terms.setdefault(t, []).append(net.injections[v])
    source = {v: (math.fsum(terms[trees[v]]) if v in trees
                  else net.injections[v]) > 0 for v in range(net.n)}
    return side_condensation(net, source)


def side_condensation(net, source):
    """Groups, membership and crossing counts as :func:`canonical` gives
    them, from the networkx components of the subgraph of edges whose ends
    ``source`` puts on one side; a group's side is its nodes'."""
    same = nx.Graph()
    same.add_nodes_from(range(net.n))
    same.add_edges_from((u, v) for u, v, _ in net.edges if source[u] == source[v])
    groups = {tuple(sorted(c)): (math.fsum(net.injections[v] for v in c),
                                 source[min(c)])
              for c in nx.connected_components(same)}
    membership = {v: members for members in groups for v in members}
    crossing = Counter()
    for u, v, _ in net.edges:
        if source[u] != source[v]:
            crossing[membership[u], membership[v]] += 1
            crossing[membership[v], membership[u]] += 1
    return groups, membership, crossing


def grown_states(seeds=range(10)):
    """Random polytrees grown from the supplies of ``ws_instance(40, seed)``,
    one absorb or merge per step: every step's network and trees."""
    for seed in seeds:
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
            yield net, trees


def test_source_cut_vertices_match_networkx_on_chord_ring():
    net = build_network(["a", "s", "b", "t"],
                        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0),
                         (1, 3, 1.0)],
                        [-1.0, 2.0, -1.0, 0.0])
    for trees in ({}, {1: 1}, {1: 1, 3: 1}, {1: 1, 0: 1}):
        cond = net_concad(full_view(net), list(net.injections), trees)
        assert source_cut_vertices(cond) == networkx_source_cuts(cond)


def test_source_cut_vertices_match_networkx_on_grown_states():
    found = 0
    for net, trees in grown_states():
        cond = condense(net, trees)
        want = networkx_source_cuts(cond)
        assert source_cut_vertices(cond) == want
        found += bool(want)
    assert found


def test_net_concad_matches_networkx_on_grown_states():
    # groups are the components of same-side nodes, with their sides, exact
    # residuals and crossing counts; groups come by smallest member
    sides = Counter()
    for net, trees in grown_states():
        cond = condense(net, trees)
        assert canonical(cond) == networkx_condensation(net, trees)
        mins = [min(g.members) for g in cond.groups]
        assert mins == sorted(mins)
        sides.update(g.source for g in cond.groups
                     if len(g.members) > 1)
    assert sides[True] and sides[False]


def canonical(cond):
    """Super nodes, membership and crossing counts keyed by member tuples."""
    names = {g: tuple(sorted(g.members)) for g in cond.groups}
    supers = {names[g]: (g.total.value, g.source) for g in cond.groups}
    crossing = Counter({(names[a], names[b]): count
                        for a, row in crossings(cond).items()
                        for b, count in row.items()})
    membership = {v: names[g] for v, g in cond.membership.items()}
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
            assert state.sums[t].value == math.fsum(
                step["injections"][v] for v in members)
        return canonical(net_concad(step["view"], step["injections"],
                                    state.membership))

    def checked_sample(view, injections, state, h, frontier):
        step.update(view=view, injections=injections, state=state,
                    trees=len(state.sums))
        step["before"] = rebuilt()
        assert canonical(frontier.cond) == step["before"]
        return real_sample(view, injections, state, h, frontier)

    def checked_move(cond, nodes, source):
        # the whole tree is passed when it merged or changed side
        nodes = list(nodes)
        seen["flip"] += len(nodes) > 1 and any(
            super_of(cond, v).source != source for v in nodes)
        relabelled = real_move(cond, nodes, source)
        after = rebuilt()
        assert canonical(cond) == after
        merged = len(step["state"].sums) < step["trees"]
        seen["merge" if merged else "absorb"] += 1
        supers, membership, _ = after
        for members, (_, supply) in step["before"][0].items():
            if not supply:
                pieces = {membership[v] for v in members
                          if not supers[membership[v]][1]}
                seen["sink split"] += len(pieces) > 1
        return relabelled

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
    monkeypatch.setattr(Condensation, "move", lambda self, nodes, source: [])
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


def shape(cond):
    """What supply cut vertices depend on: each group's side and neighbors."""
    return {g: (g.source, set(g.nbrs)) for g in cond.groups}


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(small_networks(), st.integers(0, 2**32))
def test_random_moves_match_the_side_map(net, seed):
    # any node subset, or a single node, moved to either side in any order,
    # leaves the condensation a fresh build would give for the new sides;
    # moving two whole groups at once empties both, and moving part of a
    # group whose rest stays in one piece splits nothing.  Every node whose
    # group changed is returned, every group a node or a crossing count
    # names is live, and the condensation is marked reshaped whenever its
    # shape differs from that of the last search that found no cut vertex,
    # so a search that skips its walk answers as a full one
    rng = random.Random(seed)
    cond = condense(net, {})
    source = {v: super_of(cond, v).source for v in cond.membership}
    cleared = None
    for _ in range(30):
        if rng.random() < 0.3:
            moved = [rng.randrange(net.n)]
        else:
            moved = rng.sample(range(net.n), rng.randint(0, net.n))
        side = rng.random() < 0.5
        before = dict(cond.membership)
        relabelled = set(cond.move(moved, side))
        source.update(dict.fromkeys(moved, side))
        assert_live(cond)
        assert canonical(cond) == side_condensation(net, source)
        assert {v for v, g in cond.membership.items() if g is not before[v]} <= relabelled
        assert cond.reshaped or shape(cond) == cleared
        if rng.random() < 0.5:
            cuts = source_cut_vertices(cond)
            assert cuts == networkx_source_cuts(cond)
            if not cuts:
                cleared = shape(cond)
