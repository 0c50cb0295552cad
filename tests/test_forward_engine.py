"""End-to-end construction: regressions, invariants, merging, fallbacks."""

import json
import math
import random
from types import SimpleNamespace

import pytest

from conftest import random_tree_network, small_instances, ws_instance
from radialflow import (Infeasible, InfeasibleSplit, NoCandidate,
                        build_network, config_to_json, solve, solve_forest,
                        validate_radial)
from radialflow import forward_engine
from radialflow.condenser import net_concad, source_cut_vertices
from radialflow.forward_engine import (HUB_LINK, AdjacencyView,
                                       PartitionOutcome, _spanning_fallback,
                                       _subproblem, complexity_probe,
                                       default_source_count, fit_exponent,
                                       split_at_cut)
from radialflow.islander import PartitionView
from radialflow.network_model import balance_tolerance, full_view
from radialflow.preprocessor import preprocess
from radialflow.sampler import ForestState, Frontier, PathCostAccumulator

from test_golden import ring_chain


def test_tree_input_needs_no_sampling():
    net = random_tree_network(random.Random(5), 12)
    cfg, report = solve(net)
    assert report.iterations == 0
    assert report.partitions == 0
    assert report.presampled == net.m
    direct = solve_forest(net, range(net.m))
    assert cfg.total_cost == pytest.approx(direct.cost, rel=1e-12)
    assert validate_radial(net, cfg).passed


def test_feeder_ring_regression(feeder_ring):
    cfg, report = solve(feeder_ring)
    assert report.cost == pytest.approx(81.0, rel=1e-12)
    assert report.iterations == 3
    assert report.merges == 1
    assert report.flipped_edges == 0
    assert validate_radial(feeder_ring, cfg).passed


def test_gap_ring_regression(gap_ring):
    cfg, report = solve(gap_ring)
    assert report.cost == pytest.approx(65.25, rel=1e-12)
    assert 47.0 <= report.cost <= 81.0
    assert report.iterations == 5
    assert report.flipped_edges == 0
    assert validate_radial(gap_ring, cfg).passed


def test_square_with_two_supplies():
    # greedy merge across the ring; the exact flows follow from the tree
    net = build_network(["s1", "t1", "s2", "t2"],
                        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)],
                        [1.0, -3.0, 3.0, -1.0])
    cfg, report = solve(net)
    assert report.cost == pytest.approx(22.0, rel=1e-12)
    assert report.merges == 1
    assert report.flipped_edges == 0
    assert validate_radial(net, cfg).passed


def test_fifteen_node_regression(block15):
    cfg, report = solve(block15)
    assert report.cost == pytest.approx(104.5, rel=1e-9)
    assert report.partitions == 2
    assert report.presampled == 5
    assert validate_radial(block15, cfg).passed


def test_ieee33_regression(ieee33):
    cfg, report = solve(ieee33)
    assert report.cost == pytest.approx(843.0, rel=1e-9)
    assert len(cfg.directed_edges) == ieee33.n - 1
    assert validate_radial(ieee33, cfg).passed


def test_settled_directions_survive(block15):
    pre = preprocess(block15)
    cfg, report = solve(block15)
    assert cfg.directed_edges[:len(pre.presampled)] == pre.presampled


def test_generated_instance_validates():
    net = ws_instance(120, seed=7)
    cfg, report = solve(net)
    outcome = validate_radial(net, cfg)
    assert outcome.passed, outcome.summary()
    assert report.n == 120 and report.m == net.m
    again, _ = solve(net)
    assert config_to_json(net, again) == config_to_json(net, cfg)


def test_report_json_shape(feeder_ring):
    _, report = solve(feeder_ring)
    doc = json.loads(report.to_json())
    assert set(doc) == {"schema_version", "n", "m", "cost", "iterations",
                        "partitions", "presampled", "merges", "splits",
                        "flipped_edges", "zero_flow",
                        "reducible_condensations", "timings"}
    assert doc["schema_version"] == 1
    assert (doc["n"], doc["m"]) == (feeder_ring.n, feeder_ring.m)
    assert doc["merges"] == report.merges == 1
    assert set(doc["timings"]) == {"preprocess", "islander", "loop",
                                   "solve_flow", "condense", "sample"}
    assert doc["timings"]["condense"] + doc["timings"]["sample"] <= (
        doc["timings"]["loop"])


def test_all_zero_network_spans_for_free():
    net = build_network(["a", "b", "c", "d"],
                        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)],
                        [0.0, 0.0, 0.0, 0.0])
    cfg, report = solve(net)
    assert report.cost == 0.0
    assert len(cfg.directed_edges) == 3
    assert all(f == 0.0 for f in cfg.flows)
    assert validate_radial(net, cfg).passed


def test_fallback_rejects_unserved_demand():
    net = build_network(["a", "b"], [(0, 1, 1.0)], [1.0, -1.0])
    part = PartitionView(0, full_view(net), {0: 2.0, 1: -2.0},
                         frozenset(), {})
    with pytest.raises(Infeasible, match="no supply"):
        _spanning_fallback(part, balance_tolerance([2.0, -2.0]),
                           PartitionOutcome())


def test_fallback_visits_the_smallest_frontier_node_first():
    # an all-zero mesh; the reference scans the frontier for its minimum
    mesh = ws_instance(300, seed=2)
    net = build_network(mesh.names, mesh.edges, [0.0] * mesh.n)
    view = full_view(net)
    part = PartitionView(0, view, dict.fromkeys(view.nodes, 0.0),
                         frozenset(), {})
    adj = view.adjacency()
    seen, frontier, want = {0}, [0], []
    while frontier:
        x = min(frontier)
        frontier.remove(x)
        for y, idx in sorted(adj[x]):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
                want.append((x, y, idx))
    outcome = PartitionOutcome()
    _spanning_fallback(part, 1e-9, outcome)
    assert len(want) == net.n - 1
    assert [(*e, idx) for e, idx in zip(outcome.directed,
                                        outcome.edge_indices)] == want
    assert outcome.iterations == len(want)


def three_blocks():
    """Triangle, free triangle and square around the supply s: the islander
    makes three partitions, the middle one without supply."""
    names = ["s", "a", "b", "c", "d", "e", "f", "g"]
    edges = [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 0.5),
             (0, 3, 0.0), (0, 4, 0.0), (3, 4, 0.0),
             (0, 5, 1.5), (5, 6, 1.0), (6, 7, 0.5), (0, 7, 1.0)]
    return build_network(names, edges,
                         [4.0, -1.0, -1.0, 0.0, 0.0, -0.5, -1.0, -0.5])


def test_trace_runs_on_across_partitions():
    # the supply-less partition is spanned without sampling; the rows of
    # the partitions around it are numbered on without a gap
    net = three_blocks()
    cfg, report = solve(net, collect_trace=True)
    assert validate_radial(net, cfg).passed
    assert (report.iterations, report.merges, report.splits,
            report.flipped_edges, report.partitions, report.presampled) == (
        7, 0, 0, 0, 3, 0)
    assert [row.iteration for row in report.trace] == [1, 2, 3, 4, 5]
    assert [row.edge_index for row in report.trace] == [0, 1, 9, 6, 7]


def test_stuck_partition_names_its_own_iteration(monkeypatch):
    # partition 2 gets stuck at its second step, after the 2 + 2 iterations
    # of partitions 0 and 1
    net = three_blocks()
    real_sample = forward_engine.sample
    steps = []

    def stuck_in_last_block(view, *args, **kwargs):
        if 5 in view.adj:
            steps.append(view)
            if len(steps) == 2:
                raise NoCandidate("no remaining edge touches a polytree")
        return real_sample(view, *args, **kwargs)

    monkeypatch.setattr(forward_engine, "sample", stuck_in_last_block)
    with pytest.raises(Infeasible) as info:
        solve(net)
    assert info.value.partition_index == 2
    assert info.value.iteration == 1


def test_invariant_mode_counts_and_completes():
    net = ws_instance(30, seed=3)
    cfg, report = solve(net, check_invariants=True)
    assert report.reducible_condensations >= 0
    assert validate_radial(net, cfg).passed


def test_trace_rows_are_sequential(gap_ring):
    _, plain = solve(gap_ring)
    assert plain.trace == ()
    _, traced = solve(gap_ring, collect_trace=True)
    assert len(traced.trace) == traced.iterations
    assert [row.iteration for row in traced.trace] == list(
        range(1, traced.iterations + 1))
    assert all(row.deleted_count >= 0 for row in traced.trace)


def test_trace_deleted_counts_match_the_pool_scan():
    # recorded when every step scanned the whole pool for edges that had
    # become internal to a tree; the frontier must report the same edges at
    # the same steps, splits included
    _, report = solve(ws_instance(30, seed=0), collect_trace=True)
    assert report.splits == 5
    assert [row.deleted_count for row in report.trace] == [
        0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 2, 2, 1, 1, 0, 0, 0,
        0, 0, 0, 0, 0]


@pytest.mark.parametrize("net", [
    build_network(["a", "b"], [(0, 1, 1.0)], [1e200, -1e200]),
    build_network(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                  [2e200, -1e200, -1e200]),
], ids=["forced edge", "grown ring"])
def test_overflowing_cost_is_infeasible(net):
    # squares of 1e200 overflow: solve must fail with the typed error, not
    # the OverflowError that x ** 2 raises
    with pytest.raises(Infeasible, match="overflow") as info:
        solve(net)
    assert info.value.partition_index is None
    assert info.value.iteration is None


@pytest.mark.parametrize("net", [
    build_network(["a", "b"], [(0, 1, 0.0)], [1e200, -1e200]),
    build_network(["a", "b", "c"], [(0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0)],
                  [2e200, -1e200, -1e200]),
], ids=["forced edge", "grown ring"])
def test_zero_cost_edges_skip_the_overflowing_square(net):
    # C = 0 costs nothing however large the flow: 0 * inf must not turn the
    # cost or a sampling weight into nan
    config, report = solve(net, check_invariants=True)
    assert config.total_cost == 0.0
    assert report.cost == 0.0
    assert validate_radial(net, config).passed


def test_probe_handles_trivial_sizes():
    rows = complexity_probe([1, 2], seeds=2)
    assert [(r[0], r[1]) for r in rows] == [(1, 0), (2, 1)]
    assert rows[0][3] == 0.0
    assert rows[1][3] == pytest.approx(1.0, rel=1e-12)
    assert all(r[2] >= 0.0 for r in rows)


def test_fit_exponent_recovers_slope():
    pairs = [(10.0, 1e-3), (100.0, 1e-1)]
    assert fit_exponent(pairs) == pytest.approx(2.0, rel=1e-9)
    rows = [(10.0, 0, 1e-3, 5.0), (100.0, 0, 1e-1, 9.0)]
    assert fit_exponent(rows) == pytest.approx(2.0, rel=1e-9)


def test_default_source_count_bands():
    assert default_source_count(3) == 1
    assert default_source_count(9) == 3
    assert default_source_count(30) == 10
    assert default_source_count(120) == 10
    assert default_source_count(240) == 10
    assert default_source_count(400) == 20
    assert default_source_count(600) == 20


def ring_with_chord(chord_cost=1.0):
    # the network of test_condenser.test_growth_can_break_irreducibility:
    # once s absorbs t, the super {s, t} is the only link between a and b
    names = ["a", "s", "b", "t"]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0),
             (1, 3, chord_cost)]
    return build_network(names, edges, [-1.0, 2.0, -1.0, 0.0])


def subproblem_of(net, sources, absorbed=()):
    inj = dict(enumerate(net.injections))
    state = ForestState(sources, inj)
    for tree, node in absorbed:
        state.absorb(tree, node)
    pool = [(idx, u, v, c) for idx, (u, v, c) in enumerate(net.edges)
            if state.tree_of(u) is None or state.tree_of(u) != state.tree_of(v)]
    return _subproblem(net, full_view(net).adjacency(), inj, state, pool,
                       PathCostAccumulator(), PartitionOutcome())


def uncovered(sub):
    """The nodes of a subproblem that no tree holds yet."""
    return set(sub.adjacency) - set(sub.state.membership)


def pool_of(frontier):
    """The edges still in a frontier's pool, in pool order."""
    return [e for k, e in enumerate(frontier.pool) if k not in frontier.gone]


def index_of(frontier):
    """The entries of a frontier's classes, keyed by tail tree and the
    receiving group's members; pool positions are left out."""
    supers = frontier.cond.super_nodes
    classes = {}
    for t, row in frontier.classes.items():
        for g, cls in row.items():
            assert (cls.tree, cls.group) == (t, g) and cls.members
            assert all(frontier.where[key] is cls for key in cls.members)
            classes[t, tuple(sorted(supers[g].members))] = sorted(
                e[:2] + e[3:] for e in cls.members.values())
    assert len(frontier.where) == sum(map(len, classes.values()))
    return classes


class SplitRecord:
    """What a subproblem looked like just before :func:`split_at_cut`."""

    def __init__(self, sub, cut):
        self.sub = sub
        self.hub = set(sub.cond.super_nodes[cut].members)
        self.pool = pool_of(sub.frontier)
        self.uncovered = uncovered(sub)
        self.adjacency = {v: list(links) for v, links in sub.adjacency.items()}
        self.objects = (sub.state, sub.cond, sub.frontier, sub.adjacency,
                        sub.injections)


def check_sides(record, sides):
    """Check every side of a split against a build from scratch.

    Each side holds its own nodes and, of the hub, the nodes with an edge
    into them, the root and the hub's smallest node.  Its edges are the
    parent's edges inside that set but not inside the hub, plus links from
    the root to the other hub nodes; its condensation, tree residuals,
    live edges, pool and uncovered nodes equal what a fresh build gives.
    Returns the own node count of each side.
    """
    hub, parent = record.hub, record.adjacency
    owns = [set(side.adjacency) - hub for side in sides]
    lows = [min(own) for own in owns]
    assert lows == sorted(lows)
    assert set().union(*owns) == set(parent) - hub
    kept = [side for side in sides if side is record.sub]
    assert len(kept) == 1
    assert max(map(len, owns)) == len(owns[sides.index(kept[0])])
    assert all(a is b for a, b in zip(
        (kept[0].state, kept[0].cond, kept[0].frontier, kept[0].adjacency,
         kept[0].injections), record.objects))
    for side, own in zip(sides, owns):
        root = side.state.tree_of(min(hub))
        rim = {y for v in own for y, _ in parent[v] if y in hub}
        assert set(side.adjacency) == own | rim | {root, min(hub)}
        assert set(side.state.members[root]) == rim | {root, min(hub)}
        want = {v: sorted(parent[v]) for v in own}
        for h in rim | {root, min(hub)}:
            want[h] = sorted([(y, idx) for y, idx in parent[h] if y in own]
                             + [(root, HUB_LINK)] * (h != root))
        want[root] += [(h, HUB_LINK) for h in rim | {min(hub)} if h != root]
        assert {v: sorted(links) for v, links in side.adjacency.items()} == {
            v: sorted(links) for v, links in want.items()}
        assert math.fsum(side.injections.values()) == pytest.approx(
            0.0, abs=1e-9 * max(1.0, math.fsum(map(abs, side.injections.values()))))
        assert side.injections.keys() == side.adjacency.keys()
        assert all(side.injections[h] == 0.0 for h in side.adjacency
                   if h in hub and h != root)
        rebuilt = net_concad(AdjacencyView(side.net, want), side.injections,
                             side.state.membership)
        assert side.cond.mismatch(rebuilt) is None
        for t, members in side.state.members.items():
            assert side.state.residuals[t] == math.fsum(
                side.injections[v] for v in members)
        assert side.state.membership.keys() <= side.adjacency.keys()
        pool = [e for e in record.pool if e[1] in own or e[2] in own]
        assert pool_of(side.frontier) == pool
        fresh = Frontier(pool, side.state, side.adjacency, rebuilt,
                         side.frontier.h)
        assert index_of(side.frontier) == index_of(fresh)
        assert sorted(side.frontier.pool[k] for k in side.frontier.internal) == [
            fresh.pool[k] for k in sorted(fresh.internal)]
        assert uncovered(side) == record.uncovered & own
        assert side.replicas <= side.adjacency.keys() and root in side.replicas
    return [len(own) for own in owns]


def split_once(sub):
    cuts = source_cut_vertices(sub.cond)
    assert len(cuts) == 1
    group = sub.cond.super_nodes[cuts[0]]
    # the kept side updates the hub's group in place
    hub = SimpleNamespace(members=set(group.members), residual=group.residual)
    record = SplitRecord(sub, cuts[0])
    outcome = PartitionOutcome()
    sides = split_at_cut(sub, cuts[0], outcome, index=0,
                         tol=balance_tolerance(sub.injections.values()))
    check_sides(record, sides)
    return hub, sides, outcome


def test_every_growth_split_matches_a_fresh_build(monkeypatch):
    # each side of every split during growth, the side kept in place
    # included, equals a side built from scratch out of the parent
    real_split = forward_engine.split_at_cut
    seen = {"splits": 0, "one-node sides": 0}

    def checked_split(sub, cut, outcome, **kwargs):
        record = SplitRecord(sub, cut)
        sides = real_split(sub, cut, outcome, **kwargs)
        owns = check_sides(record, sides)
        seen["splits"] += 1
        seen["one-node sides"] += owns.count(1)
        return sides

    monkeypatch.setattr(forward_engine, "split_at_cut", checked_split)
    nets = [ws_instance(40, seed) for seed in range(10)]
    nets += [net for _, net in small_instances(50)]
    # on ws_instance(60, 32) a new hub node takes over as the smallest, and
    # the old smallest one is left without an edge out of the hub
    nets += [ring_chain(), ws_instance(60, 32), ws_instance(400, 0)]
    for net in nets:
        cfg, _ = solve(net)
        assert validate_radial(net, cfg).passed
    assert all(seen.values()), seen


def test_ring_with_chord_solves_irreducibly():
    net = ring_with_chord()
    cfg, report = solve(net, check_invariants=True)
    assert report.reducible_condensations == 0
    assert validate_radial(net, cfg).passed


def test_growth_splits_ring_with_chord():
    # a cheaper chord makes s absorb t first, which cuts a off from b
    net = ring_with_chord(chord_cost=0.5)
    cfg, report = solve(net, check_invariants=True)
    assert report.splits == 1
    assert report.reducible_condensations == 0
    assert validate_radial(net, cfg).passed


def test_split_gives_each_side_its_need():
    hub, sides, outcome = split_once(
        subproblem_of(ring_with_chord(), [1], [(1, 3)]))
    assert hub.members == {1, 3}
    assert [side.graph.nodes for side in sides] == [(0, 1, 3), (1, 2, 3)]
    assert [side.injections[1] for side in sides] == [1.0, 1.0]
    assert [uncovered(side) for side in sides] == [{0}, {2}]
    for side in sides:
        assert math.fsum(side.injections.values()) == 0.0
        assert side.state.residuals == {1: 1.0}
        assert side.replicas == {1}
    assert outcome.edge_indices == [] and outcome.splits == 1


def test_surplus_side_replica_is_a_demand():
    # p's surplus exceeds b's demand, so that side pushes 2 into the hub
    names = ["a", "s", "b", "t", "p"]
    edges = [(0, 1, 1.0), (0, 3, 1.0), (1, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0),
             (2, 4, 1.0)]
    net = build_network(names, edges, [-3.0, 1.0, -1.0, 0.0, 3.0])
    hub, sides, _ = split_once(subproblem_of(net, [1, 4], [(1, 3)]))
    shares = [side.injections[1] for side in sides]
    assert shares == [pytest.approx(3.0), pytest.approx(-2.0)]
    assert math.fsum(shares) == pytest.approx(hub.residual)
    surplus = sides[1]
    assert set(surplus.graph.nodes) == {1, 2, 3, 4}
    assert surplus.state.residuals[1] < 0.0
    assert surplus.cond.super_nodes[surplus.cond.membership[1]].kind == "sink"


def test_split_joins_a_multi_tree_hub():
    # two adjacent supplies form one super node between a and b; the split
    # joins them over their only edge and replicates the joined tree
    names = ["a", "s1", "s2", "b"]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0)]
    net = build_network(names, edges, [-1.0, 1.0, 1.0, -1.0])
    hub, sides, outcome = split_once(subproblem_of(net, [1, 2]))
    assert hub.members == {1, 2}
    assert outcome.directed == [(1, 2)]
    assert outcome.edge_indices == [2] and outcome.merges == 1
    for side in sides:
        assert side.state.members[1] == [1, 2]
        assert side.injections[1] == pytest.approx(1.0)
        assert side.injections[2] == 0.0
        assert all(e[0] != 2 for e in pool_of(side.frontier))


def test_unbalanced_split_raises():
    net = ring_with_chord()
    sub = subproblem_of(net, [1], [(1, 3)])
    sub.injections[1] = 2.5
    sub.cond = net_concad(sub.graph, sub.injections, sub.state.membership,
                          adjacency=sub.adjacency)
    with pytest.raises(InfeasibleSplit):
        split_once(sub)


def test_stuck_side_names_partition_and_iteration(monkeypatch):
    net = ring_with_chord(chord_cost=0.5)
    part = PartitionView(3, full_view(net), dict(enumerate(net.injections)),
                         frozenset({1}), {})
    real_sample = forward_engine.sample

    def stuck_after_split(view, *args, **kwargs):
        if len(view.nodes) < net.n:
            raise NoCandidate("no remaining edge touches a polytree")
        return real_sample(view, *args, **kwargs)

    monkeypatch.setattr(forward_engine, "sample", stuck_after_split)
    with pytest.raises(Infeasible) as info:
        forward_engine.run_partition(part, PartitionOutcome())
    assert info.value.partition_index == 3
    assert info.value.iteration == 1
