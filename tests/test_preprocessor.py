"""Pendant peeling: forced edges, folded injections, reduced graph."""

import math
import random

import pytest

from radialflow import build_network, solve_forest
from radialflow.network_model import balance_tolerance, full_view
from radialflow.preprocessor import peel, preprocess

from conftest import random_tree_network, ws_instance


def test_path_fully_reduced():
    net = build_network(["a", "b", "c"],
                        [(0, 1, 1.0), (1, 2, 1.0)],
                        [2.0, -1.0, -1.0])
    res = preprocess(net)
    assert res.presampled == ((0, 1), (1, 2))
    assert res.fully_reduced
    assert res.reduced.nodes == ()
    assert res.reduced.edge_indices == ()


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
    assert set(res.reduced.nodes) == set(range(gap_ring.n))
    assert len(res.reduced.edge_indices) == gap_ring.m


def test_fifteen_node_fixture(block15):
    res = preprocess(block15)
    assert res.presampled == ((9, 8), (10, 12), (14, 13), (2, 8), (13, 5))
    assert res.reduced.nodes == (0, 1, 2, 3, 4, 5, 6, 7, 10, 11)
    want = {0: 2.0, 1: -1.0, 2: -5.0, 3: -1.0, 4: 8.0,
            5: -1.0, 6: 3.0, 7: -2.0, 10: -2.0, 11: -1.0}
    for node in res.reduced.nodes:
        assert res.reduced_injections[node] == pytest.approx(want[node])


def test_reduced_min_degree_two():
    for seed in range(8):
        net = ws_instance(30, seed=seed)
        res = preprocess(net)
        for node, links in res.reduced.adjacency().items():
            assert len(links) >= 2, f"seed {seed} node {node} degree {len(links)}"


def test_idempotent(block15):
    # the reduced graph has no leaf left to peel
    res = preprocess(block15)
    inj = list(res.reduced_injections)
    assert list(peel(res.reduced.adjacency(), inj)) == []


def test_edge_conservation(block15, ieee33):
    for net in (block15, ieee33):
        res = preprocess(net)
        assert len(res.presampled) + len(res.reduced.edge_indices) == net.m
        overlap = set(res.presampled_edge_indices) & \
            set(res.reduced.edge_indices)
        assert not overlap


def test_balance_preserved(block15):
    res = preprocess(block15)
    total = math.fsum(res.reduced_injections[v] for v in res.reduced.nodes)
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
