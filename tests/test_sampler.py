"""Edge scoring, queue overrides, and the loop-erase delete."""

import json
import math

import pytest
from hypothesis import given, settings

from conftest import full_view, small_networks, ws_instance
from radialflow import (Infeasible, NoCandidate, build_network,
                        config_to_json, solve, validate_radial)
from radialflow import forward_engine, sampler
from radialflow.forward_engine import SolveReport, _subproblem
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


def test_step_squares_in_two_steps_past_the_float_range():
    # 1e200 squared overflows, but the step 1e-300 * 1e200 * 1e200 is 1e100
    assert edge_weight(1e-300, 1e200, 1e200, 0.0) == 1e200 / (1e100 + EPS_DEN)
    h = PathCostAccumulator()
    h.extend(0, 1, 1e-300, 1e200)
    assert h[1] == 1e100
    # the frontier's rescoring agrees with the full scan
    net = build_network(["s", "x", "y"], [(0, 1, 1e-300), (0, 2, 1e-300)],
                        [2e200, -1e200, -1e200])
    state = ForestState([0], dict(enumerate(net.injections)))
    result = pick(net, state)
    assert result.best[3] == 2e200 / (1e100 + EPS_DEN)
    assert [r[3] for r in result.ranked] == [result.best[3]] * 2


def test_weight_decreases_with_cost_and_path():
    base = edge_weight(1.0, 2.0, 3.0, 0.0)
    assert edge_weight(2.0, 2.0, 3.0, 0.0) < base
    assert edge_weight(1.0, 2.0, 3.0, 5.0) < base
    assert edge_weight(1.0, 2.0, 6.0, 0.0) > base


def test_normalization_identity():
    # the raw weights are 2.5 and 7.5, and the larger wins
    net = build_network(["s", "x", "y"],
                        [(0, 1, 1.2), (0, 2, 0.1)],
                        [3.0, -1.0, -2.0])
    state = ForestState([0], {0: 3.0, 1: -1.0, 2: -2.0})
    result = pick(net, state)
    by_head = {c[1]: c for c in result.ranked}
    assert by_head[1][3] == pytest.approx(2.5, rel=1e-9)
    assert by_head[2][3] == pytest.approx(7.5, rel=1e-9)
    assert result.best[1] == 2
    assert result.best[3] == by_head[2][3]


def test_pendant_super_source_pops_first():
    # s2's candidates carry far more weight, but s1 sees a single
    # neighboring super, so its edge must pop first
    names = ["s1", "s2", "a", "b"]
    edges = [(0, 2, 10.0), (1, 2, 0.1), (1, 3, 0.1)]
    injections = [1.0, 2.0, -1.0, -2.0]
    net = build_network(names, edges, injections)
    state = ForestState([0, 1], dict(enumerate(injections)))
    result = pick(net, state)
    assert result.best[6]
    assert result.best[:2] == (0, 2)
    assert result.best[3] < max(c[3] for c in result.ranked)


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
    heavy = max(ranked, key=lambda c: c[3])
    assert not heavy[5]
    assert result.best[5]
    assert result.best != heavy
    assert result.best[:2] == (1, 3)


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
    assert result.best[:2] == (2, 3)
    assert result.best[5]
    assert all(c[2] != 2 for c in result.ranked)


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
    assert first.best == second.best
    assert first.ranked == second.ranked


def test_tie_breaks_on_node_ids():
    net = build_network(["s", "x", "y"],
                        [(0, 1, 1.0), (0, 2, 1.0)],
                        [2.0, -1.0, -1.0])
    state = ForestState([0], dict(enumerate(net.injections)))
    result = pick(net, state)
    assert result.best[:2] == (0, 1)


def test_scale_free_ranking():
    def run(scale):
        edges = [(0, 1, 0.4 * scale), (0, 2, 1.1 * scale), (1, 2, 0.8 * scale)]
        net = build_network(["s", "x", "y"], edges, [2.0, -1.0, -1.0])
        state = ForestState([0], dict(enumerate(net.injections)))
        result = pick(net, state)
        return result.best[:2]

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
                if state.tree_of(c[1]) is not None]
    assert bridging
    assert result.best[2] == 3
    assert state.tree_of(result.best[1]) is not None


def test_free_edge_wins_at_extreme_injections():
    # the raw weights are 0.0 and inf; ranking by a weight normalized by
    # their sum once compared 0.0 with inf / inf = nan
    net = build_network(["s", "a", "b"], [(0, 1, 1.0), (0, 2, 0.0)],
                        [1e300, -5e299, -5e299])
    inj = dict(enumerate(net.injections))
    result = pick(net, ForestState([0], inj))
    assert [c[3] for c in result.ranked] == [0.0, math.inf]
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


def test_traced_solve_runs_no_full_scan(monkeypatch):
    # a trace row reads the pick's own raw weight and flags, so a traced
    # solve scores no more of the frontier than an untraced one
    def no_scan(*args):
        raise AssertionError("the full scan ran outside invariant mode")

    monkeypatch.setattr(sampler, "score", no_scan)
    net = ws_instance(120, 0)
    plain_cfg, plain = solve(net)
    picks = []
    real_sample = forward_engine.sample

    def recorded(*args):
        result = real_sample(*args)
        picks.append(result.best)
        return result

    monkeypatch.setattr(forward_engine, "sample", recorded)
    cfg, report = solve(net, collect_trace=True)
    assert len(report.trace) == report.iterations == len(picks) > 0
    for number, (row, best) in enumerate(zip(report.trace, picks), 1):
        assert row.iteration == number
        assert (row.edge_index, row.raw_weight, row.balance_ok,
                row.pendant) == (best[2], best[3], best[5], best[6])
    assert config_to_json(net, cfg) == config_to_json(net, plain_cfg)

    def counters(r):
        doc = json.loads(r.to_json())
        del doc["timings"]
        return doc, r.candidates, r.sampled, r.edge_indices

    assert counters(report) == counters(plain)


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
        assert [c[2] for c in result.ranked] == [0, 5]
