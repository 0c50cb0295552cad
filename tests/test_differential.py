"""Differential properties: FORWARD against the exhaustive oracle."""

from hypothesis import assume, given, settings

from conftest import small_networks
from radialflow import solve, solve_forest, validate_radial
from radialflow.oracle import DEFAULT_MAX_EDGES, enumerate_optimal


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(small_networks())
def test_solve_is_feasible_and_never_beats_the_optimum(net):
    assume(net.m <= DEFAULT_MAX_EDGES)
    oracle = enumerate_optimal(net)
    # a spanning tree of a connected balanced network balances, so a
    # feasible configuration always exists, and solve must not raise
    assert oracle.optimum is not None
    cfg, _ = solve(net)
    assert validate_radial(net, cfg).passed
    assert cfg.total_cost >= oracle.optimal_cost * (1 - 1e-12)
    if net.m == net.n - 1:
        # on a tree the configuration is forced
        assert cfg.total_cost == solve_forest(net, range(net.m)).cost
