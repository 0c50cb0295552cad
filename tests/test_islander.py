"""Articulation supplies: the peeled graph, split by growth into balanced sides."""

import math
from types import SimpleNamespace

import networkx as nx
import pytest

from radialflow import InfeasibleSplit, build_network, solve, validate_radial
from radialflow import forward_engine
from radialflow.forward_engine import HUB_LINK
from radialflow.condenser import lowpoint
from radialflow.islander import islander
from radialflow.network_model import balance_tolerance
from radialflow.preprocessor import preprocess

from conftest import full_view, ws_instance


def articulation_points(view):
    """The lowpoint walk over a view's distinct neighbors."""
    adj = {v: {y for y, _ in links} for v, links in view.adj.items()}
    return lowpoint(sorted(view.nodes), adj)


def record_splits(monkeypatch):
    """Wrap the growth split; each split appends its hub, root, joining
    edges and sides, each side's nodes, injections and edges copied as the
    split returns them."""
    real_split = forward_engine.split_at_cut
    splits = []

    def recording_split(frontier, cut, report, **kwargs):
        hub = set(frontier.cond.super_nodes[cut].members)
        before = len(report.edge_indices)
        sides = real_split(frontier, cut, report, **kwargs)
        conds = [side.cond for side in sides]
        splits.append(SimpleNamespace(
            hub=hub, root=sides[0].state.tree_of(min(hub)),
            joins=report.edge_indices[before:],
            sides=[SimpleNamespace(
                nodes=set(cond.adj), injections=dict(cond.injections),
                edges={i for links in cond.adj.values()
                       for _, i in links if i != HUB_LINK})
                for cond in conds]))
        return sides

    monkeypatch.setattr(forward_engine, "split_at_cut", recording_split)
    return splits


def assert_balanced(injections):
    tol = balance_tolerance(injections.values())
    assert abs(math.fsum(injections.values())) <= tol


def assert_replicated(split, total):
    """Each side balances and, of the hub, holds injection at the root
    alone; the root's shares sum to ``total``, the hub's injection."""
    assert math.fsum(side.injections[split.root]
                     for side in split.sides) == pytest.approx(total, rel=1e-12)
    for side in split.sides:
        assert_balanced(side.injections)
        assert all(side.injections[h] == 0.0
                   for h in side.nodes & split.hub - {split.root})


def test_path_middle_is_articulation():
    net = build_network(["a", "b", "c"],
                        [(0, 1, 1.0), (1, 2, 1.0)],
                        [-1.0, 2.0, -1.0])
    assert articulation_points(full_view(net)) == {1}


def test_cycle_has_none(gap_ring):
    assert articulation_points(full_view(gap_ring)) == set()


def test_matches_networkx():
    for seed in range(6):
        net = ws_instance(40, seed=seed)
        view = preprocess(net).reduced
        got = articulation_points(view)
        g = nx.Graph()
        g.add_nodes_from(view.nodes)
        g.add_edges_from((u, v) for u, links in view.adj.items()
                         for v, _ in links)
        assert got == set(nx.articulation_points(g))


def test_biconnected_graph_single_partition(gap_ring, monkeypatch):
    # the islander only checks the balance of the peeled graph, which
    # growth then takes whole, as the one partition the report counts
    checked = []

    def recording_islander(injections, *floor):
        checked.append(dict(injections))
        islander(injections, *floor)

    monkeypatch.setattr(forward_engine, "islander", recording_islander)
    cfg, report = solve(gap_ring)
    assert validate_radial(gap_ring, cfg).passed
    assert checked == [dict(enumerate(gap_ring.injections))]
    assert report.partitions == 1 and report.splits == 0


def bowtie():
    # two triangles sharing the supply node s
    names = ["s", "a", "b", "c", "d"]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (0, 3, 1.0), (0, 4, 1.0), (3, 4, 1.0)]
    injections = [4.0, -1.2, -0.8, -1.1, -0.9]
    return build_network(names, edges, injections)


def test_bowtie_splits_supply(monkeypatch):
    net = bowtie()
    splits = record_splits(monkeypatch)
    cfg, report = solve(net)
    assert validate_radial(net, cfg).passed
    assert report.partitions == 1 and report.splits == 1
    (split,) = splits
    assert split.hub == {0} and split.root == 0 and split.joins == []
    left, right = split.sides
    assert left.nodes == {0, 1, 2}
    assert right.nodes == {0, 3, 4}
    assert left.injections[0] == pytest.approx(2.0)
    assert right.injections[0] == pytest.approx(2.0)
    assert_replicated(split, net.injections[0])


def test_replica_values_sum_to_original(block15, monkeypatch):
    # the supplies 0 and 4 are adjacent, so they form one super node: the
    # split joins them over their edge and replicates the joined tree
    res = preprocess(block15)
    splits = record_splits(monkeypatch)
    cfg, _ = solve(block15)
    assert validate_radial(block15, cfg).passed
    (split,) = splits
    assert split.hub == {0, 4} and split.root == 0 and split.joins == [1]
    assert [side.nodes for side in split.sides] == [
        {0, 1, 2, 3, 4}, {0, 4, 5, 6, 7, 10, 11}]
    shares = [side.injections[0] for side in split.sides]
    assert shares == [pytest.approx(7.0), pytest.approx(3.0)]
    assert_replicated(split, res.reduced_injections[0]
                      + res.reduced_injections[4])


def chained_blocks():
    # three triangles in a row, joined at supply nodes 2 and 4
    names = [f"n{i}" for i in range(7)]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (2, 3, 1.0), (3, 4, 1.0), (2, 4, 1.0),
             (4, 5, 1.0), (5, 6, 1.0), (4, 6, 1.0)]
    injections = [-1.0, -1.0, 3.0, -2.0, 4.0, -1.5, -1.5]
    return build_network(names, edges, injections)


def test_chained_articulation_supplies(monkeypatch):
    # 2 and 4 share an edge, so one split at the super node {2, 4} makes
    # the three sides
    net = chained_blocks()
    view = full_view(net)
    assert articulation_points(view) & net.source_set == {2, 4}
    splits = record_splits(monkeypatch)
    cfg, report = solve(net)
    assert validate_radial(net, cfg).passed
    (split,) = splits
    assert split.hub == {2, 4} and split.root == 2 and split.joins == [5]
    assert [side.nodes for side in split.sides] == [
        {0, 1, 2}, {2, 3, 4}, {2, 4, 5, 6}]

    shares = [side.injections[2] for side in split.sides]
    assert shares == [pytest.approx(2.0), pytest.approx(2.0),
                      pytest.approx(3.0)]
    assert_replicated(split, net.injections[2] + net.injections[4])

    # the sides' edges and the joining edge partition the input exactly
    seen = list(split.joins)
    for side in split.sides:
        seen.extend(side.edges)
    assert sorted(seen) == list(range(net.m))


def test_role_flip_possible(monkeypatch):
    # s, c and d are adjacent supplies, so they form one super node and
    # nothing is split; a side whose replica turns into a demand is covered
    # by test_surplus_side_replica_is_a_demand
    names = ["s", "a", "b", "c", "d"]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (0, 3, 1.0), (0, 4, 1.0), (3, 4, 1.0)]
    injections = [1.0, -3.0, -2.0, 2.5, 1.5]
    net = build_network(names, edges, injections)
    splits = record_splits(monkeypatch)
    cfg, report = solve(net, check_invariants=True)
    assert validate_radial(net, cfg).passed
    assert splits == [] and report.splits == 0
    assert report.partitions == 1


def test_partition_graphs_are_views(block15):
    # the peeled graph growth takes is a view in parent-network ids: every
    # link names a parent edge between its two ends, both in the view
    view = preprocess(block15).reduced
    assert view.net is block15
    assert view.nodes == tuple(sorted(view.adj))
    for v, links in view.adj.items():
        for y, idx in links:
            assert y in view.adj
            assert set(block15.edges[idx][:2]) == {v, y}


def test_balance_guard():
    with pytest.raises(InfeasibleSplit, match="subproblem of node 3 "):
        islander({3: 1.0, 5: -0.25})
    islander({3: 1.0, 5: -1.0})
