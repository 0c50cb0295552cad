"""Edge scoring, queue overrides, and the loop-erase delete."""

import json
import math

import pytest
from hypothesis import given, settings

from conftest import small_networks, ws_instance
from radialflow import (Infeasible, NoCandidate, build_network, solve,
                        validate_radial)
from radialflow import forward_engine
from radialflow.forward_engine import SolveReport, _subproblem
from radialflow.network_model import full_view
from radialflow.sampler import (EPS_DEN, ForestState, PathCostAccumulator,
                                edge_weight, sample)


def pool_of(net):
    return [(idx, *net.edges[idx]) for idx in range(net.m)]


def pick(net, state, pool=None, h=None):
    """``sample`` over a new subproblem of ``pool`` (default: every edge)."""
    h = PathCostAccumulator() if h is None else h
    sub = _subproblem(net, full_view(net).adj, state,
                      pool_of(net) if pool is None else pool, h, SolveReport())
    return sample(sub.graph, state.injections, state, h, sub.frontier)


def test_edge_weight_direct():
    assert edge_weight(2.0, 1.0, 5.0, 0.0) == pytest.approx(2.5, rel=1e-9)


def test_edge_weight_zero_denominator():
    w = edge_weight(0.0, 0.0, 1.0, 0.0)
    assert w == pytest.approx(1.0 / EPS_DEN, rel=1e-9)
    assert w > edge_weight(0.001, 1.0, 1.0, 0.0)
    # a free edge skips the square, which would overflow to inf and 0 * inf
    # would be nan
    assert edge_weight(0.0, 1e200, 1.0, 0.0) == w
    h = PathCostAccumulator()
    h.extend(0, 1, 0.0, 1e200)
    assert h[1] == 0.0


def test_weight_decreases_with_cost_and_path():
    base = edge_weight(1.0, 2.0, 3.0, 0.0)
    assert edge_weight(2.0, 2.0, 3.0, 0.0) < base
    assert edge_weight(1.0, 2.0, 3.0, 5.0) < base
    assert edge_weight(1.0, 2.0, 6.0, 0.0) > base


def test_normalization_identity():
    # raw weights 2.5 and 7.5 must surface as 0.25 and 0.75
    net = build_network(["s", "x", "y"],
                        [(0, 1, 1.2), (0, 2, 0.1)],
                        [3.0, -1.0, -2.0])
    state = ForestState([0], {0: 3.0, 1: -1.0, 2: -2.0})
    result = pick(net, state)
    by_head = {c.head: c for c in result.ranked}
    assert by_head[1].raw_weight == pytest.approx(2.5, rel=1e-9)
    assert by_head[2].raw_weight == pytest.approx(7.5, rel=1e-9)
    assert by_head[1].weight == pytest.approx(0.25, rel=1e-9)
    assert by_head[2].weight == pytest.approx(0.75, rel=1e-9)
    assert result.chosen.head == 2


def test_pendant_super_source_pops_first():
    # s2's candidates carry far more weight, but s1 sees a single
    # neighboring super, so its edge must pop first
    names = ["s1", "s2", "a", "b"]
    edges = [(0, 2, 10.0), (1, 2, 0.1), (1, 3, 0.1)]
    injections = [1.0, 2.0, -1.0, -2.0]
    net = build_network(names, edges, injections)
    state = ForestState([0, 1], dict(enumerate(injections)))
    result = pick(net, state)
    assert result.chosen.pendant_source
    assert (result.chosen.tail, result.chosen.head) == (0, 2)
    assert result.chosen.weight < max(c.weight for c in result.ranked)


def test_balance_outranks_weight():
    # the cheapest edge would overdraw its tree; a covered candidate with
    # lower weight must still win
    names = ["s", "t", "x", "y"]
    edges = [(0, 2, 0.001), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)]
    injections = [1.0, 5.0, -5.0, -1.0]
    net = build_network(names, edges, injections)
    state = ForestState([0, 1], dict(enumerate(injections)))
    result = pick(net, state)
    ranked = result.ranked
    heavy = max(ranked, key=lambda c: c.weight)
    assert not heavy.balance_ok
    assert result.chosen.balance_ok
    assert result.chosen != heavy
    assert (result.chosen.tail, result.chosen.head) == (1, 3)


def test_interior_edges_are_deleted():
    # after a and b join the tree, the a-b edge closes a loop: the frontier
    # must expel it from the pool and keep it from the sampler
    names = ["s", "a", "b", "c"]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    injections = [3.0, -1.0, -1.0, -1.0]
    net = build_network(names, edges, injections)
    inj = dict(enumerate(injections))
    state = ForestState([0], inj)
    h = PathCostAccumulator()
    sub = _subproblem(net, full_view(net).adj, state,
                      [(2, 1, 2, 1.0), (3, 2, 3, 1.0)], h, SolveReport())
    frontier = sub.frontier
    assert frontier.classes == {}
    h.extend(0, 1, 1.0, 2.0)
    h.extend(0, 2, 1.0, 2.0)
    state.absorb(0, 1)
    state.absorb(0, 2)
    frontier.grown((1, 2))
    frontier.regroup(frontier.cond.move((1, 2), True))
    assert frontier.flush() == 1
    assert list(frontier.pool) == [3]
    result = sample(sub.graph, inj, state, h, frontier)
    assert (result.chosen.tail, result.chosen.head) == (2, 3)
    assert result.chosen.balance_ok
    assert all(c.edge_index != 2 for c in result.ranked)


def test_no_candidate_raises():
    net = build_network(["s", "a"], [(0, 1, 1.0)], [1.0, -1.0])
    state = ForestState([0], {0: 1.0, 1: -1.0})
    with pytest.raises(NoCandidate):
        pick(net, state, [])


def test_deterministic():
    net = build_network(["s", "x", "y"],
                        [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)],
                        [2.0, -1.0, -1.0])
    state_a = ForestState([0], dict(enumerate(net.injections)))
    state_b = ForestState([0], dict(enumerate(net.injections)))
    first = pick(net, state_a)
    second = pick(net, state_b)
    assert first.chosen == second.chosen
    assert first.ranked == second.ranked


def test_tie_breaks_on_node_ids():
    net = build_network(["s", "x", "y"],
                        [(0, 1, 1.0), (0, 2, 1.0)],
                        [2.0, -1.0, -1.0])
    state = ForestState([0], dict(enumerate(net.injections)))
    result = pick(net, state)
    assert (result.chosen.tail, result.chosen.head) == (0, 1)


def test_scale_free_ranking():
    def run(scale):
        edges = [(0, 1, 0.4 * scale), (0, 2, 1.1 * scale), (1, 2, 0.8 * scale)]
        net = build_network(["s", "x", "y"], edges, [2.0, -1.0, -1.0])
        state = ForestState([0], dict(enumerate(net.injections)))
        result = pick(net, state)
        return (result.chosen.tail, result.chosen.head)

    assert run(1.0) == run(3.0) == run(0.25)


def test_merge_candidates_allowed():
    # all frontier edges overdraw, joining the two trees is the only move
    names = ["s1", "t1", "s2", "t2"]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
    injections = [1.0, -3.0, 3.0, -1.0]
    net = build_network(names, edges, injections)
    state = ForestState([0, 2], dict(enumerate(injections)))
    state.absorb(2, 3)
    h = PathCostAccumulator()
    h.extend(2, 3, 1.0, 1.0)
    result = pick(net, state, [(0, 0, 1, 1.0), (1, 1, 2, 1.0),
                               (3, 0, 3, 1.0)], h)
    bridging = [c for c in result.ranked
                if state.tree_of(c.head) is not None]
    assert bridging
    assert result.chosen.edge_index == 3
    assert state.tree_of(result.chosen.head) is not None


def test_free_edge_wins_at_extreme_injections():
    # the raw weights are 0.0 and inf; their sum is inf, so ranking by the
    # normalized weight compared 0.0 with inf / inf = nan
    net = build_network(["s", "a", "b"], [(0, 1, 1.0), (0, 2, 0.0)],
                        [1e300, -5e299, -5e299])
    inj = dict(enumerate(net.injections))
    result = pick(net, ForestState([0], inj))
    assert [c.raw_weight for c in result.ranked] == [0.0, math.inf]
    assert result.best[2:4] == (1, math.inf)


def test_index_scores_fewer_orientations_than_a_full_scan(monkeypatch):
    full = []
    real_sample = forward_engine.sample

    def counted(*args, **kwargs):
        result = real_sample(*args, **kwargs)
        full.append(len(result.ranked))
        return result

    monkeypatch.setattr(forward_engine, "sample", counted)
    _, report = solve(ws_instance(400, 0))
    assert len(full) == report.iterations
    assert 0 < report.candidates < sum(full)
    assert "candidates" not in json.loads(report.to_json())


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(small_networks())
def test_index_picks_what_a_full_scan_picks(net):
    # invariant mode holds every step's pick to a full scan of the pool
    try:
        cfg, _ = solve(net, check_invariants=True)
    except Infeasible:
        return
    assert validate_radial(net, cfg).passed


def test_parallel_orientations_tie_on_edge_index():
    # two pool entries over the same pair, as a condensation's parallel
    # crossing edges are: equal in every other key, the smaller edge index
    # wins, in whatever order the pool lists them
    net = build_network(["s", "x"], [(0, 1, 1.0)], [1.0, -1.0])
    inj = dict(enumerate(net.injections))
    for pool in ([(0, 0, 1, 1.0), (5, 0, 1, 1.0)],
                 [(5, 0, 1, 1.0), (0, 0, 1, 1.0)]):
        result = pick(net, ForestState([0], inj), pool)
        assert result.best[2] == 0
        assert [c.edge_index for c in result.ranked] == [0, 5]
