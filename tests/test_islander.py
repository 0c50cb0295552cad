"""Splitting at articulation supplies with balanced replica injections."""

import math

import networkx as nx
import pytest

from radialflow import InfeasibleSplit, build_network
from radialflow.islander import _biconnected, islander
from radialflow.network_model import balance_tolerance, full_view
from radialflow.preprocessor import preprocess

from conftest import ws_instance


def test_path_middle_is_articulation():
    net = build_network(["a", "b", "c"],
                        [(0, 1, 1.0), (1, 2, 1.0)],
                        [-1.0, 2.0, -1.0])
    view = full_view(net)
    assert _biconnected(view)[0] == {1}


def test_cycle_has_none(gap_ring):
    assert _biconnected(full_view(gap_ring))[0] == set()


def test_matches_networkx():
    for seed in range(6):
        net = ws_instance(40, seed=seed)
        view = preprocess(net).reduced
        got = _biconnected(view)[0]
        g = nx.Graph()
        g.add_nodes_from(view.nodes)
        for idx in view.edge_indices:
            u, v, _ = net.edges[idx]
            g.add_edge(u, v)
        assert got == set(nx.articulation_points(g))


def test_biconnected_graph_single_partition(gap_ring):
    view = full_view(gap_ring)
    parts = islander(view, list(gap_ring.injections))
    assert len(parts) == 1
    part = parts[0]
    assert part.index == 0
    assert set(part.graph.nodes) == set(view.nodes)
    assert set(part.graph.edge_indices) == set(view.edge_indices)
    assert part.injections == {v: gap_ring.injections[v] for v in view.nodes}
    assert part.replicated_nodes == {}


def bowtie():
    # two triangles sharing the supply node s
    names = ["s", "a", "b", "c", "d"]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (0, 3, 1.0), (0, 4, 1.0), (3, 4, 1.0)]
    injections = [4.0, -1.2, -0.8, -1.1, -0.9]
    return build_network(names, edges, injections)


def test_bowtie_splits_supply():
    net = bowtie()
    parts = islander(full_view(net), list(net.injections))
    assert len(parts) == 2
    left, right = parts
    assert set(left.graph.nodes) == {0, 1, 2}
    assert set(right.graph.nodes) == {0, 3, 4}
    assert left.injections[0] == pytest.approx(2.0)
    assert right.injections[0] == pytest.approx(2.0)
    assert left.replicated_nodes == {0: (0, 1)}
    assert right.replicated_nodes == {0: (0, 1)}
    assert left.sources == {0} and right.sources == {0}


def test_replica_values_sum_to_original(block15):
    res = preprocess(block15)
    inj = [0.0] * block15.n
    for node in res.reduced.nodes:
        inj[node] = res.reduced_injections[node]
    parts = islander(res.reduced, inj)
    assert len(parts) == 2
    shares = {}
    for part in parts:
        for node in part.replicated_nodes:
            shares.setdefault(node, []).append(part.injections[node])
    assert set(shares) == {4}
    assert math.fsum(shares[4]) == pytest.approx(inj[4])
    assert sorted(shares[4]) == [pytest.approx(3.0), pytest.approx(5.0)]


def chained_blocks():
    # three triangles in a row, joined at supply nodes 2 and 4
    names = [f"n{i}" for i in range(7)]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (2, 3, 1.0), (3, 4, 1.0), (2, 4, 1.0),
             (4, 5, 1.0), (5, 6, 1.0), (4, 6, 1.0)]
    injections = [-1.0, -1.0, 3.0, -2.0, 4.0, -1.5, -1.5]
    return build_network(names, edges, injections)


def test_chained_articulation_supplies():
    net = chained_blocks()
    view = full_view(net)
    assert _biconnected(view)[0] & net.source_set == {2, 4}
    parts = islander(view, list(net.injections))
    assert len(parts) == 3

    tol = balance_tolerance(net.injections)
    for part in parts:
        assert abs(math.fsum(part.injections.values())) <= tol
        for node in part.sources:
            assert part.injections[node] > 0

    shares = {}
    for part in parts:
        for node in part.replicated_nodes:
            shares.setdefault(node, []).append(part.injections[node])
    for node, values in shares.items():
        assert math.fsum(values) == pytest.approx(net.injections[node])

    # edge sets partition the input exactly
    seen = []
    for part in parts:
        seen.extend(part.graph.edge_indices)
    assert sorted(seen) == list(range(net.m))


def test_role_flip_possible():
    # the shared supply covers one side fully and drains the other, so one
    # replica turns negative (a sink role) while the total is preserved
    names = ["s", "a", "b", "c", "d"]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (0, 3, 1.0), (0, 4, 1.0), (3, 4, 1.0)]
    injections = [1.0, -3.0, -2.0, 2.5, 1.5]
    net = build_network(names, edges, injections)
    parts = islander(full_view(net), list(net.injections))
    assert len(parts) == 2
    values = sorted(part.injections[0] for part in parts)
    assert values[0] == pytest.approx(-4.0)
    assert values[1] == pytest.approx(5.0)
    flipped = [part for part in parts if part.injections[0] <= 0]
    assert len(flipped) == 1
    assert 0 not in flipped[0].sources


def test_partition_graphs_are_views(block15):
    res = preprocess(block15)
    inj = [0.0] * block15.n
    for node in res.reduced.nodes:
        inj[node] = res.reduced_injections[node]
    parts = islander(res.reduced, inj)
    for part in parts:
        for idx in part.graph.edge_indices:
            u, v, _ = block15.edges[idx]
            assert u in set(part.graph.nodes)
            assert v in set(part.graph.nodes)


def test_balance_guard():
    from radialflow.islander import _check_balance
    with pytest.raises(InfeasibleSplit):
        _check_balance({0: 1.0, 1: -0.25}, 0)
    _check_balance({0: 1.0, 1: -1.0}, 0)
