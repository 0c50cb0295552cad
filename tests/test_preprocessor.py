"""Pendant peeling: forced edges, folded injections, reduced graph."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings

from radialflow import build_network, solve_forest
from radialflow.network_model import balance_tolerance
from radialflow.preprocessor import peel, preprocess

from conftest import full_view, random_tree_network, small_networks, ws_instance


def test_path_fully_reduced():
    net = build_network(["a", "b", "c"],
                        [(0, 1, 1.0), (1, 2, 1.0)],
                        [2.0, -1.0, -1.0])
    res = preprocess(net)
    assert res.presampled == ((0, 1), (1, 2))
    assert res.fully_reduced
    assert res.reduced.adj == {}
    assert res.reduced_injections == {}


def test_pendant_direction_rule():
    # supply pendant points outward, demand pendant points inward, and a
    # zero-injection pendant counts as the outward case
    net = build_network(["h", "sink", "supply", "zero"],
                        [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)],
                        [-3.0, -1.0, 4.0, 0.0])
    res = preprocess(net)
    assert set(res.presampled) == {(0, 1), (2, 0), (3, 0)}


def test_cycle_untouched(gap_ring):
    res = preprocess(gap_ring)
    assert res.presampled == ()
    assert res.reduced.adj == full_view(gap_ring).adj
    assert res.reduced_injections == dict(enumerate(gap_ring.injections))


def test_fifteen_node_fixture(block15):
    res = preprocess(block15)
    assert res.presampled == ((9, 8), (10, 12), (14, 13), (2, 8), (13, 5))
    assert list(res.reduced.adj) == [0, 1, 2, 3, 4, 5, 6, 7, 10, 11]
    want = {0: 2.0, 1: -1.0, 2: -5.0, 3: -1.0, 4: 8.0,
            5: -1.0, 6: 3.0, 7: -2.0, 10: -2.0, 11: -1.0}
    assert res.reduced_injections == pytest.approx(want)


def test_reduced_min_degree_two():
    for seed in range(8):
        net = ws_instance(30, seed=seed)
        res = preprocess(net)
        for node, links in res.reduced.adj.items():
            assert len(links) >= 2, f"seed {seed} node {node} degree {len(links)}"


def test_idempotent(block15):
    # the reduced graph has no leaf left to peel
    res = preprocess(block15)
    remaining = {idx for links in res.reduced.adj.values() for _, idx in links}
    steps, degree = peel(block15, remaining, list(block15.injections))
    assert steps == []
    assert degree == [len(res.reduced.adj.get(v, ())) for v in range(block15.n)]


def test_edge_conservation(block15, ieee33):
    # the settled and the remaining edges partition the network's edges, and
    # each remaining edge is listed at both its ends, in index order
    for net in (block15, ieee33):
        res = preprocess(net)
        done = set(res.presampled_edge_indices)
        remaining = [idx for idx in range(net.m) if idx not in done]
        assert len(res.presampled) + len(remaining) == net.m
        want = {}
        for idx in remaining:
            u, v, _ = net.edges[idx]
            want.setdefault(u, []).append((v, idx))
            want.setdefault(v, []).append((u, idx))
        assert res.reduced.adj == want
        assert list(res.reduced_injections) == list(res.reduced.adj)


def test_balance_preserved(block15):
    res = preprocess(block15)
    total = math.fsum(res.reduced_injections.values())
    assert abs(total) <= balance_tolerance(block15.injections)


def test_tree_reduces_to_unique_solution():
    rng = random.Random(9)
    for _ in range(10):
        net = random_tree_network(rng, rng.randrange(3, 20))
        res = preprocess(net)
        assert res.fully_reduced
        assert len(res.presampled) == net.m
        sol = solve_forest(net, range(net.m))
        oriented = dict(zip(sol.edge_indices, sol.oriented_edges))
        flows = dict(zip(sol.edge_indices, sol.flows))
        for idx, direction in zip(res.presampled_edge_indices, res.presampled):
            if flows[idx] > 0.0:
                assert oriented[idx] == direction


def test_presampled_order_is_ascending_cascade():
    # pendant ids are handled smallest first, nodes exposed by a removal
    # join the queue behind the initial ones
    net = build_network(["a", "b", "c", "d", "e"],
                        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
                        [-1.0, -1.0, 4.0, -1.0, -1.0])
    res = preprocess(net)
    assert res.presampled == ((1, 0), (3, 4), (2, 1), (2, 3))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(small_networks())
def test_reduced_graph_is_the_two_core(net):
    # the reduced nodes are the 2-core; the settled and the remaining edges
    # partition the edge set, and each remaining edge is listed at both its
    # ends, in index order
    res = preprocess(net)
    graph = nx.Graph()
    graph.add_nodes_from(range(net.n))
    graph.add_edges_from(edge[:2] for edge in net.edges)
    assert list(res.reduced.adj) == sorted(nx.k_core(graph, 2))
    settled = res.presampled_edge_indices
    remaining = [idx for idx in range(net.m) if idx not in set(settled)]
    assert sorted(settled + tuple(remaining)) == list(range(net.m))
    want = {}
    for idx in remaining:
        u, v, _ = net.edges[idx]
        want.setdefault(u, []).append((v, idx))
        want.setdefault(v, []).append((u, idx))
    assert res.reduced.adj == want
