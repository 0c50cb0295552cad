"""Exact forest flow solving against a dense least-squares reference."""

import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialflow import (CycleError, ImbalanceError, build_network, solve,
                        solve_forest)
from radialflow.network_model import (BALANCE_RTOL, FLOW_ATOL,
                                      balance_tolerance)
from radialflow.preprocessor import peel

from conftest import random_forest_case, random_tree_network, small_networks


def two_branch(c_left, c_right, p_left, p_right):
    supply = -(p_left + p_right)
    return build_network(["r", "x", "y"],
                         [(0, 1, c_left), (0, 2, c_right)],
                         [supply, p_left, p_right])


def test_cost_one_and_four():
    net = two_branch(1.0, 5.0, -1.0, -4.0)
    sol = solve_forest(net, [0, 1])
    assert sorted(sol.flows) == [1.0, 4.0]
    assert sol.cost == pytest.approx(81.0, abs=1e-12)


def test_cost_two_and_three():
    net = two_branch(5.0, 3.0, -2.0, -3.0)
    sol = solve_forest(net, [0, 1])
    assert sorted(sol.flows) == [2.0, 3.0]
    assert sol.cost == pytest.approx(47.0, abs=1e-12)


def test_symmetric_star():
    net = build_network(["s", "x", "y", "z"],
                        [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)],
                        [3.0, -1.0, -1.0, -1.0])
    sol = solve_forest(net, range(3))
    assert all(f == 1.0 for f in sol.flows)
    assert all(edge[0] == 0 for edge in sol.oriented_edges)
    assert sol.cost == pytest.approx(3.0)


def test_cycle_rejected():
    net = build_network(["a", "b", "c"],
                        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                        [2.0, -1.0, -1.0])
    with pytest.raises(CycleError):
        solve_forest(net, [0, 1, 2])
    # a repeated index is a two-edge cycle: it never reaches degree one
    path = build_network(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0)],
                         [2.0, -1.0, -1.0])
    for chosen, names in (([0, 0], "(a, b)"), ([1, 0, 1], "(b, c)")):
        with pytest.raises(CycleError, match=rf"through {re.escape(names)}"):
            solve_forest(path, chosen)


def test_imbalanced_component_rejected():
    net = build_network(["a", "b", "c"],
                        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                        [2.0, -1.0, -1.0])
    with pytest.raises(ImbalanceError):
        solve_forest(net, [0])


def split_pairs(r):
    """Two pairs a-b and c-d, with residuals r and -r, joined by a b-c edge
    that the forest [0, 2] leaves out; sum(|p|) is about 3072."""
    return build_network(["a", "b", "c", "d"],
                         [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
                         [1024.0, -1024.0 + r, 512.0, -512.0 - r])


def test_residual_within_the_whole_tolerance_solves():
    # 2**-22 is above BALANCE_RTOL but below the tolerance of ~3.1e-6
    net = split_pairs(2.0 ** -22)
    assert BALANCE_RTOL < 2.0 ** -22 < balance_tolerance(net.injections)
    sol = solve_forest(net, [0, 2])
    assert sol.oriented_edges == ((0, 1), (2, 3))
    assert sol.flows == (1024.0, 512.0)


def test_residual_above_the_whole_tolerance_raises():
    net = split_pairs(2.0 ** -16)
    assert 2.0 ** -16 > balance_tolerance(net.injections)
    with pytest.raises(ImbalanceError) as info:
        solve_forest(net, [0, 2])
    assert str(info.value) == ("component injections do not cancel: "
                               "residual 1.52587890625e-05 at b")


def test_orientation_points_along_flow():
    net = build_network(["a", "b", "c"],
                        [(0, 1, 1.0), (1, 2, 1.0)],
                        [-1.0, -1.0, 2.0])
    sol = solve_forest(net, [0, 1])
    assert sol.oriented_edges == ((1, 0), (2, 1))
    assert sol.flows == (1.0, 2.0)
    assert all(f >= 0.0 for f in sol.flows)


def test_zero_component_flagged():
    net = build_network(["a", "b", "c", "d"],
                        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
                        [1.0, -1.0, 0.0, 0.0])
    sol = solve_forest(net, [0, 2])
    by_index = dict(zip(sol.edge_indices, sol.flows))
    assert by_index[2] == 0.0
    # flagged by position within this solution, not by parent edge index
    assert sol.zero_flow_edges == (1,)
    assert sol.edge_indices[1] == 2


def test_deterministic():
    rng = random.Random(11)
    net = random_tree_network(rng, 25)
    first = solve_forest(net, range(net.m))
    second = solve_forest(net, range(net.m))
    assert first == second


def lstsq_flows(net, kept):
    """Signed reference flows for the kept edges, tail u, head v."""
    a = np.zeros((net.n, len(kept)))
    for col, idx in enumerate(kept):
        u, v, _ = net.edges[idx]
        a[u, col] = 1.0
        a[v, col] = -1.0
    x, *_ = np.linalg.lstsq(a, np.asarray(net.injections), rcond=None)
    return dict(zip(kept, x))


def signed_flows(net, sol):
    out = {}
    for pos, idx in enumerate(sol.edge_indices):
        u, v, _ = net.edges[idx]
        flow = sol.flows[pos]
        out[idx] = flow if sol.oriented_edges[pos] == (u, v) else -flow
    return out


def test_matches_least_squares():
    rng = random.Random(2024)
    for _ in range(40):
        net, kept = random_forest_case(rng, max_nodes=20)
        sol = solve_forest(net, kept)
        if not kept:
            assert sol.flows == ()
            continue
        want = lstsq_flows(net, kept)
        got = signed_flows(net, sol)
        for idx in kept:
            assert abs(got[idx] - want[idx]) <= 1e-8


def test_conservation_property():
    rng = random.Random(77)
    for _ in range(30):
        net, kept = random_forest_case(rng, max_nodes=30)
        sol = solve_forest(net, kept)
        residual = list(net.injections)
        for pos, (tail, head) in enumerate(sol.oriented_edges):
            residual[tail] -= sol.flows[pos]
            residual[head] += sol.flows[pos]
        covered = {v for e in sol.oriented_edges for v in e}
        for v in covered:
            assert abs(residual[v]) <= FLOW_ATOL


def test_component_sums_must_balance():
    # without an edge that carries flow, the component left on an end that
    # keeps another edge has injections that do not cancel
    rng = random.Random(3)
    checked = 0
    for _ in range(20):
        net, kept = random_forest_case(rng, max_nodes=15)
        sol = solve_forest(net, kept)
        degree = Counter(v for i in kept for v in net.edges[i][:2])
        for idx, flow in zip(kept, sol.flows):
            u, v, _ = net.edges[idx]
            if flow > 1e-6 and max(degree[u], degree[v]) > 1:
                with pytest.raises(ImbalanceError):
                    solve_forest(net, [i for i in kept if i != idx])
                checked += 1
                break
    assert checked


def test_overflowing_cost_is_infinite():
    net = build_network(["a", "b"], [(0, 1, 2.0)], [1e200, -1e200])
    sol = solve_forest(net, [0])
    assert sol.flows == (1e200,)
    assert sol.cost == math.inf
    free = build_network(["a", "b"], [(0, 1, 0.0)], [1e200, -1e200])
    assert solve_forest(free, [0]).cost == 0.0


@st.composite
def forest_cases(draw):
    """A random tree with its edges in any order, or any subset of the edges
    of a small network, which may hold cycles or unbalanced components."""
    if draw(st.booleans()):
        net = random_tree_network(random.Random(draw(st.integers(0, 2 ** 32))),
                                  draw(st.integers(2, 30)))
        return net, draw(st.permutations(range(net.m)))
    net = draw(small_networks())
    return net, draw(st.lists(st.sampled_from(range(net.m)), unique=True))


def outcome(net, edges, **kwargs):
    """The solution, or the type and message of the error."""
    try:
        return solve_forest(net, edges, **kwargs)
    except (CycleError, ImbalanceError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(forest_cases())
def test_forest_solve_from_the_steps_of_a_peel(case):
    net, edges = case
    p = list(net.injections)
    steps, _ = peel(net, edges, p)
    got = outcome(net, edges, peeled=(steps, p))
    assert got == outcome(net, edges)

    # the error names the first edge in the input that peeling left, or the
    # smallest node of largest residual
    settled = {idx for _, _, idx, _ in steps}
    covered = sorted({v for i, j, _, _ in steps for v in (i, j)})
    bad = max(covered, key=lambda v: abs(p[v]), default=None)
    if len(settled) < len(edges):
        u, v, _ = net.edges[next(i for i in edges if i not in settled)]
        assert got == (CycleError, "edge subset is not a forest: cycle "
                                   f"through ({net.names[u]}, {net.names[v]})")
    elif bad is not None and abs(p[bad]) > balance_tolerance(net.injections):
        assert got == (ImbalanceError, "component injections do not cancel: "
                                       f"residual {p[bad]!r} at {net.names[bad]}")
    else:
        assert got.edge_indices == tuple(edges)
        for (tail, head), idx, flow in zip(got.oriented_edges, edges, got.flows):
            assert {tail, head} == set(net.edges[idx][:2]) and flow >= 0

    if net.m == len(edges) == net.n - 1 and not isinstance(got, tuple):
        # a tree: solve reuses the steps of its own peel, and flips nothing
        config, report = solve(net)
        assert report.partitions == 0 and report.flipped_edges == 0
        assert config.flows == solve_forest(net, report.edge_indices).flows
