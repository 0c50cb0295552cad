"""End-to-end construction: regressions, invariants, merging, scale, cores
without supply."""

import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (data_path, feeder_instance, full_view, random_tree_network,
                      small_instances, small_networks, ws_instance)
from radialflow import (GenSpec, Infeasible, InfeasibleSplit, InvalidSpec,
                        NoCandidate, ValidationError, build_network,
                        config_to_json, generate, load_network, solve,
                        solve_forest, validate_radial)
from radialflow import forward_engine
from radialflow.condenser import net_concad, source_cut_vertices
from radialflow.forward_engine import (HUB_LINK, SolveReport, _subproblem,
                                       complexity_probe, default_source_count,
                                       fit_exponent, split_at_cut)
from radialflow.network_model import (DistributionNetwork, GraphView,
                                      balance_tolerance)
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
    assert report.splits == 1
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


@pytest.mark.parametrize("n, seed", [(30, 0), (120, 1), (300, 2)])
@pytest.mark.parametrize("pair", [None, (3.0, 1.0, 2.5)],
                         ids=["all zero", "pendant pair"])
def test_core_without_supply_grows_from_its_smallest_node(n, seed, pair):
    # every injection the core keeps is 0, so one tree grows from its
    # smallest node, every weight is 0 and picks fall to the tie order; the
    # core carries no flow, so only the pendant pair, peeled into one node,
    # costs anything
    mesh = ws_instance(n, seed)
    names, edges, p, cost = [*mesh.names], [*mesh.edges], [0.0] * n, 0.0
    if pair:
        big, cs, ct = pair
        names += ["s", "t"]
        edges += [(n, n // 2, cs), (n + 1, n // 2, ct)]
        p += [big, -big]
        cost = (cs + ct) * big * big
    net = build_network(names, edges, p)
    start = min(preprocess(net).reduced.adj)
    config, report = solve(net, check_invariants=True, collect_trace=True)
    assert report.partitions == 1 and report.iterations > 0
    assert start in net.edges[report.trace[0].edge_index][:2]
    assert config.total_cost == report.cost == cost
    assert len(config.directed_edges) == net.n - 1
    assert validate_radial(net, config).passed


def test_demand_without_supply_fails_the_balance_check():
    # build_network refuses the imbalance, so the network is built directly;
    # the peeled core fails its balance check before growth starts
    net = DistributionNetwork(("a", "b", "c"),
                              ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)),
                              (0.0, -1.0, 0.0))
    with pytest.raises(InfeasibleSplit) as info:
        solve(net)
    assert str(info.value) == ("the subproblem of node 0 has injections "
                               "summing to -1.0, expected zero")


def three_blocks():
    """Triangle, free triangle and square around the supply s: growth splits
    at s into three sides before the first step, the middle one without
    supply of its own."""
    names = ["s", "a", "b", "c", "d", "e", "f", "g"]
    edges = [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 0.5),
             (0, 3, 0.0), (0, 4, 0.0), (3, 4, 0.0),
             (0, 5, 1.5), (5, 6, 1.0), (6, 7, 0.5), (0, 7, 1.0)]
    return build_network(names, edges,
                         [4.0, -1.0, -1.0, 0.0, 0.0, -0.5, -1.0, -0.5])


def test_trace_runs_on_across_partitions():
    # the sides are grown smallest node first, the supply-less one from a
    # replica of s with a zero share; the rows run on without a gap
    net = three_blocks()
    cfg, report = solve(net, collect_trace=True)
    assert validate_radial(net, cfg).passed
    assert (report.iterations, report.merges, report.splits,
            report.flipped_edges, report.partitions, report.presampled) == (
        7, 0, 1, 0, 1, 0)
    assert [row.iteration for row in report.trace] == list(range(1, 8))
    assert [row.edge_index for row in report.trace] == [0, 1, 3, 4, 9, 6, 7]


def test_stuck_partition_names_its_own_iteration(monkeypatch):
    # the square's side gets stuck at its second step; the error names that
    # side by its smallest node (s, kept from the hub, so 0) and the
    # sampling steps taken before, over every side
    net = three_blocks()
    real_sample = forward_engine.sample
    calls = []

    def stuck_in_last_side(view, *args, **kwargs):
        calls.append(5 in view.adj)
        if calls.count(True) == 2:
            raise NoCandidate("no remaining edge touches a polytree")
        return real_sample(view, *args, **kwargs)

    monkeypatch.setattr(forward_engine, "sample", stuck_in_last_side)
    with pytest.raises(Infeasible) as info:
        solve(net)
    assert str(info.value) == ("the subproblem of node 0 is stuck at "
                               "iteration 5: no remaining edge touches a "
                               "polytree")
    assert info.value.iteration == len(calls) - 1 == 5


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
    build_network(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0)],
                  [1.2e154, 0.0, -1.2e154]),
], ids=["forced edge", "grown ring", "sum of finite squares"])
def test_overflowing_cost_is_infeasible(net):
    # squares of 1e200 overflow, and so does the sum of two squares of
    # 1.2e154: solve must fail with the typed error, not the OverflowError
    # that x ** 2 or math.fsum raises
    with pytest.raises(Infeasible, match="overflow") as info:
        solve(net)
    assert info.value.iteration is None


def test_small_coefficient_keeps_a_huge_flow_finite():
    # 1e200 squared overflows, but the term 1e-300 * 1e200 * 1e200 does not
    net = build_network(["a", "b"], [(0, 1, 1e-300)], [1e200, -1e200])
    config, report = solve(net, check_invariants=True)
    assert config.total_cost == report.cost == 1e100
    assert validate_radial(net, config).passed


#: Cost sets of the scale sweep; the last, all 1, takes injections of -1, 0, 1.
SCALE_COSTS = [(0.0, 1.0, 2.5), (0.0, 1e-300, 1e-200), (1.0, 1e150, 1e300),
               (0.0, 1e-300, 1.0, 1e300), (1.0,)]
SCALED = st.one_of(st.sampled_from([-1.0, 0.0, 2.0]), st.builds(
    lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
    st.floats(-300.0, 300.0)))


@st.composite
def scaled_networks(draw):
    """Names, edges and injections of a connected network of 2 to 30 nodes,
    with costs from one of :data:`SCALE_COSTS` and injections of any scale
    (±10^U(-300, 300), or -1, 0, 2); one node then balances the others."""
    n = draw(st.integers(2, 30))
    costs = draw(st.sampled_from(SCALE_COSTS))
    cost = st.sampled_from(costs)
    edges = {(draw(st.integers(0, v - 1)), v): draw(cost) for v in range(1, n)}
    for u, v, c in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1), cost),
                                 max_size=2 * n)):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), c)
    p = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]) if len(costs) == 1
                      else SCALED, min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    p[k] = 0.0
    p[k] = -math.fsum(p)
    return ([f"v{i}" for i in range(n)],
            [(u, v, c) for (u, v), c in edges.items()], p)


@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(scaled_networks())
def test_any_scale_solves_or_fails_typed(raw):
    # every accepted network solves to a configuration that validates, or
    # fails typed; a cost reported to overflow truly does, summed exactly
    # over the flows of the solved forest
    try:
        net = build_network(*raw)
    except ValidationError:
        return
    solved = []

    def capture(*args, **kwargs):
        solved.append(solve_forest(*args, **kwargs))
        return solved[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forward_engine, "solve_forest", capture)
        try:
            config, _ = solve(net)
        except (Infeasible, InfeasibleSplit) as exc:
            if "overflows" in str(exc):
                (forest,) = solved
                exact = sum(Fraction(net.edges[idx][2]) * Fraction(x) ** 2
                            for idx, x in zip(forest.edge_indices, forest.flows))
                assert exact > sys.float_info.max
            return
    report = validate_radial(net, config)
    assert report.passed, report.messages


def test_huge_supply_peeled_into_a_ring_solves():
    # the injections sum to exactly zero, and the forest s-a, a-x, x-b, b-c
    # is a valid configuration; peeling s through a adds -1 to 1e20 in
    # floats and loses it, so the core sums to 1, far inside the network's
    # tolerance but not inside its own
    doc = {"nodes": [{"name": name, "p": p} for name, p in
                     zip("abcsx", [-1.0, 2.0, -1.0, 1e20, -1e20])],
           "edges": [{"u": u, "v": v, "c": 1.0} for u, v in
                     ("sa", "ax", "xb", "bc", "cx")]}
    net = load_network(json.dumps(doc))
    config, _ = solve(net)
    assert validate_radial(net, config).passed


@st.composite
def huge_pairs(draw):
    """A small network with a supply and a demand of up to 1e300 on two free
    edges at one node: peeling pushes both through that node, whose own
    injection is lost when the pair dwarfs it."""
    net = draw(small_networks())
    at = draw(st.integers(0, net.n - 1))
    big = draw(st.floats(1.0, 1e300))
    return build_network([*net.names, "s", "t"],
                         [*net.edges, (net.n, at, 0.0), (net.n + 1, at, 0.0)],
                         [*net.injections, big, -big])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(huge_pairs())
def test_huge_balanced_pair_peeled_into_a_core_solves(net):
    # the balance checks and growth take the whole network's tolerance, and
    # a supply growth leaves alone still gets an edge; where rounding loses
    # a supply, solve raises rather than leave a demand node a root
    try:
        config, _ = solve(net)
    except (Infeasible, InfeasibleSplit):
        return
    report = validate_radial(net, config)
    assert report.passed, report.messages


def test_lone_supply_within_tolerance_gets_an_edge():
    # peeling loses v1's -2 under the pair, so the core's two supplies are
    # within the network's tolerance of zero; growth covers v1 from one of
    # them, and the other needs an edge of its own for the forest to span
    net = build_network(["v0", "v1", "v2", "s", "t"],
                        [(0, 1, 0.0), (0, 2, 0.0), (1, 2, 0.0), (1, 3, 0.0),
                         (1, 4, 0.0)], [1.0, -2.0, 1.0, 1.801439850948199e16,
                                       -1.801439850948199e16])
    config, report = solve(net)
    assert report.iterations == 1
    assert len(config.directed_edges) == net.n - 1
    assert validate_radial(net, config).passed


def test_adjacent_lone_supplies_join_the_tree():
    # v1's -3 is lost under the pair, so growth covers v1 from one supply of
    # the ring v0-v1-v2-v3 and leaves the other two, adjacent, alone; the
    # edge between them comes first, yet each joins the tree, not the other
    net = build_network(["v0", "v1", "v2", "v3", "s", "t"],
                        [(2, 3, 1.0), (0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0),
                         (1, 4, 1.0), (1, 5, 1.0)],
                        [1.0, -3.0, 1.0, 1.0, 1e20, -1e20])
    config, report = solve(net)
    assert report.iterations == 1
    assert len(config.directed_edges) == net.n - 1
    assert validate_radial(net, config).passed


def test_supplies_all_within_tolerance_are_spanned():
    # every node is a supply within tolerance of zero, so growth takes no
    # edge; the forest still spans
    net = build_network(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                        [1e-10, 1e-10, 1e-10])
    config, _ = solve(net)
    assert len(config.directed_edges) == net.n - 1
    assert validate_radial(net, config).passed


@pytest.mark.parametrize("name", ["lost_supply_core", "lost_supply_tree"])
def test_lost_supply_leaves_no_demand_node_a_root(name):
    # shrunk counterexamples of the property above: rounding loses a supply,
    # in the core case after growth, in the tree case while peeling it whole,
    # and the flows would run out of a demand node
    net = load_network(data_path(f"counterexamples/{name}.json").read_bytes())
    with pytest.raises(Infeasible, match="leave demand node .* a root") as info:
        solve(net)
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
    # no sizes, no seeds, and sizes the ring lattice cannot hold are typed
    # errors, not a statistics failure
    for sizes, seeds in (([], 1), ([8], 0), ([1, 2], 2)):
        with pytest.raises(InvalidSpec):
            complexity_probe(sizes, seeds=seeds)


def test_probe_times_the_best_of_three_and_digests_once(monkeypatch):
    # every instance is solved three times, and its solution goes into the
    # digest once, so the digest reads as one solve per instance would
    solved = []
    real = forward_engine.solve

    def counted(net, **kwargs):
        solved.append(net)
        return real(net, **kwargs)

    monkeypatch.setattr(forward_engine, "solve", counted)
    digest = hashlib.sha256()
    points = complexity_probe([8, 12], seeds=2, k=2, n_sources=2, digest=digest)
    assert [n for n, *_ in points] == [8, 12]
    assert len(solved) == 3 * 2 * 2
    want = hashlib.sha256()
    for n in (8, 12):
        for seed in range(2):
            net = generate(GenSpec(n=n, k=2, beta=0.2, n_sources=2, seed=seed))
            assert solved.count(net) == 3
            want.update(config_to_json(net, real(net)[0]).encode())
    assert digest.hexdigest() == want.hexdigest()


def test_fit_exponent_recovers_slope():
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
    state = ForestState(sources, dict(enumerate(net.injections)))
    for tree, node in absorbed:
        state.absorb(tree, node)
    pool = [(idx, u, v, c) for idx, (u, v, c) in enumerate(net.edges)
            if state.tree_of(u) is None or state.tree_of(u) != state.tree_of(v)]
    return _subproblem(net, full_view(net).adj, state, pool,
                       PathCostAccumulator(), SolveReport())


def uncovered(frontier):
    """The nodes of a subproblem that no tree holds yet."""
    return set(frontier.cond.adj) - set(frontier.state.membership)


def pool_of(frontier):
    """The edges still in a frontier's pool, by edge index."""
    return list(frontier.pool.values())


def index_of(frontier):
    """The entries of a frontier's classes, keyed by tail tree and the
    receiving group's members."""
    supers = frontier.cond.super_nodes
    classes = {}
    for t, row in frontier.classes.items():
        for g, cls in row.items():
            assert (cls.tree, cls.group) == (t, g) and cls.members
            assert all(frontier.where[key] is cls for key in cls.members)
            classes[t, tuple(sorted(supers[g].members))] = sorted(
                cls.members.values())
    assert len(frontier.where) == sum(map(len, classes.values()))
    return classes


class SplitRecord:
    """What a subproblem looked like just before :func:`split_at_cut`."""

    def __init__(self, net, frontier, cut):
        self.net = net
        self.frontier = frontier
        self.hub = set(frontier.cond.super_nodes[cut].members)
        self.pool = pool_of(frontier)
        self.uncovered = uncovered(frontier)
        self.adjacency = {v: list(links)
                          for v, links in frontier.cond.adj.items()}


def check_sides(record, sides):
    """Check every side of a split against a build from scratch.

    Each side holds its own nodes and, of the hub, the nodes with an edge
    into them, the root and the hub's smallest node.  Its edges are the
    parent's edges inside that set but not inside the hub, plus links from
    the root to the other hub nodes; its condensation, tree residuals,
    live edges, pool and uncovered nodes equal what a fresh build gives.
    Every side's adjacency, the kept one's included, lists its nodes in
    ascending order, and the sides come ordered by their smallest own node.
    Returns the own node count of each side.
    """
    hub, parent = record.hub, record.adjacency
    adjs = [side.cond.adj for side in sides]
    assert all(list(adj) == sorted(adj) for adj in adjs)
    owns = [set(adj) - hub for adj in adjs]
    lows = [min(v for v in adj if v not in hub) for adj in adjs]
    assert lows == sorted(lows)
    assert set().union(*owns) == set(parent) - hub
    kept = [side for side in sides if side is record.frontier]
    assert len(kept) == 1
    assert max(map(len, owns)) == len(owns[sides.index(kept[0])])
    assert kept[0] is record.frontier
    for side, own in zip(sides, owns):
        state, cond = side.state, side.cond
        adj, inj = cond.adj, cond.injections
        root = state.tree_of(min(hub))
        rim = {y for v in own for y, _ in parent[v] if y in hub}
        assert set(adj) == own | rim | {root, min(hub)}
        assert set(state.members[root]) == rim | {root, min(hub)}
        want = {v: sorted(parent[v]) for v in own}
        for h in rim | {root, min(hub)}:
            want[h] = sorted([(y, idx) for y, idx in parent[h] if y in own]
                             + [(root, HUB_LINK)] * (h != root))
        want[root] += [(h, HUB_LINK) for h in rim | {min(hub)} if h != root]
        assert {v: sorted(links) for v, links in adj.items()} == {
            v: sorted(links) for v, links in want.items()}
        assert math.fsum(inj.values()) == pytest.approx(
            0.0, abs=1e-9 * max(1.0, math.fsum(map(abs, inj.values()))))
        assert inj.keys() == adj.keys()
        assert all(inj[h] == 0.0 for h in adj if h in hub and h != root)
        # a view lists its nodes in ascending order (GraphView.nodes)
        rebuilt = net_concad(GraphView(record.net, dict(sorted(want.items()))), inj,
                             state.membership)
        assert cond.mismatch(rebuilt) is None
        for t, members in state.members.items():
            assert state.sums[t].value == math.fsum(inj[v] for v in members)
        assert state.membership.keys() <= adj.keys()
        pool = [e for e in record.pool if e[1] in own or e[2] in own]
        assert pool_of(side) == pool
        fresh = Frontier(pool, state, rebuilt, side.h)
        assert index_of(side) == index_of(fresh)
        assert side.internal == fresh.internal
        assert uncovered(side) == record.uncovered & own
        replicas = side.replicas
        assert replicas <= adj.keys() and root in replicas
    return [len(own) for own in owns]


def split_once(net, frontier):
    cond = frontier.cond
    cuts = source_cut_vertices(cond)
    assert len(cuts) == 1
    group = cond.super_nodes[cuts[0]]
    # the kept side updates the hub's group in place
    hub = SimpleNamespace(members=set(group.members), residual=group.total.value)
    record = SplitRecord(net, frontier, cuts[0])
    report = SolveReport()
    sides = split_at_cut(frontier, cuts[0], report,
                         tol=balance_tolerance(cond.injections.values()))
    check_sides(record, sides)
    return hub, sides, report


def test_every_growth_split_matches_a_fresh_build(monkeypatch):
    # each side of every split during growth, the side kept in place
    # included, equals a side built from scratch out of the parent
    real_split = forward_engine.split_at_cut
    seen = {"splits": 0, "one-node sides": 0}

    def checked_split(frontier, cut, report, **kwargs):
        record = SplitRecord(net, frontier, cut)
        sides = real_split(frontier, cut, report, **kwargs)
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


@pytest.mark.parametrize("n, seed", [(300, 0), (300, 1), (400, 2), (400, 3)])
def test_chain_heavy_feeder_solves_irreducibly(n, seed):
    # long radial chains closed by a few tie lines: many growth splits, at
    # articulation supplies and where growth makes a supply group a cut vertex
    net = feeder_instance(n, seed)
    cfg, report = solve(net, check_invariants=True)
    assert report.splits >= 5
    assert report.reducible_condensations == 0
    assert validate_radial(net, cfg).passed


def tiny_supply_mesh(n, seed):
    """``ws_instance(n, seed)`` with every third demand node turned into a
    supply of 1e-12, within the balance tolerance of zero; the real supplies
    give up what those demands took."""
    net = ws_instance(n, seed)
    p = list(net.injections)
    for v in [v for v in range(net.n) if p[v] < 0][::3]:
        p[v] = 1e-12
    supplies = [v for v in range(net.n) if p[v] > 1e-9]
    excess = math.fsum(p)
    for v in supplies:
        p[v] -= excess / len(supplies)
    p[supplies[0]] -= math.fsum(p)
    return build_network(net.names, net.edges, p)


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (160, 240) for seed in range(3)])
@pytest.mark.parametrize("build", [
    lambda n, seed: ws_instance(n, seed, n_sources=n // 8), tiny_supply_mesh],
    ids=["many_sources", "tiny_supplies"])
def test_many_supply_mesh_solves_irreducibly(build, n, seed):
    # many supply groups, most of them cut vertices at some point: growth
    # splits again and again, and every condensation it hands on must match
    # a rebuild and have no supply cut vertex
    net = build(n, seed)
    cfg, report = solve(net, check_invariants=True)
    assert report.splits >= 10
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
    net = ring_with_chord()
    hub, sides, report = split_once(net, subproblem_of(net, [1], [(1, 3)]))
    assert hub.members == {1, 3}
    assert [GraphView(net, side.cond.adj).nodes for side in sides] == [
        (0, 1, 3), (1, 2, 3)]
    assert [side.cond.injections[1] for side in sides] == [1.0, 1.0]
    assert [uncovered(side) for side in sides] == [{0}, {2}]
    for side in sides:
        assert math.fsum(side.cond.injections.values()) == 0.0
        assert {t: s.value for t, s in side.state.sums.items()} == {1: 1.0}
        assert side.replicas == {1}
    assert report.edge_indices == [] and report.splits == 1


def test_surplus_side_replica_is_a_demand():
    # p's surplus exceeds b's demand, so that side pushes 2 into the hub
    names = ["a", "s", "b", "t", "p"]
    edges = [(0, 1, 1.0), (0, 3, 1.0), (1, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0),
             (2, 4, 1.0)]
    net = build_network(names, edges, [-3.0, 1.0, -1.0, 0.0, 3.0])
    hub, sides, _ = split_once(net, subproblem_of(net, [1, 4], [(1, 3)]))
    shares = [side.cond.injections[1] for side in sides]
    assert shares == [pytest.approx(3.0), pytest.approx(-2.0)]
    assert math.fsum(shares) == pytest.approx(hub.residual)
    surplus = sides[1]
    assert set(GraphView(net, surplus.cond.adj).nodes) == {1, 2, 3, 4}
    assert surplus.state.sums[1].value < 0.0
    cond = surplus.cond
    assert cond.super_nodes[cond.membership[1]].source is False


def two_sided_hub(p, a_side):
    # the tree {s, t} (supply 1) parts the demands a, c, d from b (-1) and
    # p, which hangs off b only; the a side has more nodes, so the b side is
    # the one handed over
    names = ["a", "s", "b", "t", "p", "c", "d"]
    edges = [(0, 1, 1.0), (0, 3, 1.0), (1, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0),
             (2, 4, 1.0), (0, 5, 1.0), (5, 6, 1.0), (3, 6, 1.0)]
    return build_network(names, edges, [a_side[0], 1.0, -1.0, 0.0, p, *a_side[1:]])


@pytest.mark.parametrize("p, a_side, absorbed, share, members", [
    # the b side pushes 2 into the hub
    (3.0, [-1.0, -1.0, -1.0], [(1, 3)], -2.0, {1, 2, 3}),
    # p has drained into b, so the tree {b, p} faces the hub, and the b side
    # sums to 0.0
    (1.0, [-0.5, -0.25, -0.25], [(1, 3), (4, 2)], 0.0, {1, 2, 3, 4}),
], ids=["surplus", "balanced"])
def test_small_side_rim_is_a_sink(p, a_side, absorbed, share, members):
    # a handed-over side whose share is not positive has a sink rim, which
    # merges with the groups it touches; every class of p's tree is re-keyed
    net = two_sided_hub(p, a_side)
    sub = subproblem_of(net, [1, 4], absorbed)
    _, (kept, small), _ = split_once(net, sub)
    cond = small.cond
    rim = cond.membership[1]
    assert kept is sub and set(GraphView(net, small.cond.adj).nodes) == {1, 2, 3, 4}
    assert cond.injections[1] == share
    assert (cond.super_nodes[rim].source, cond.super_nodes[rim].members) == (
        False, members)
    assert {cls.group for cls in small.classes[4].values()} == {rim}


@pytest.mark.parametrize("net", [ws_instance(400, 0), ring_chain()],
                         ids=["ws400", "ring_chain"])
def test_grown_solve_condenses_from_scratch_once(monkeypatch, net):
    # every side of a growth split is handed its groups, not condensed again
    calls = []
    real = forward_engine.net_concad

    def counted(*args):
        calls.append(len(args[0].nodes))
        return real(*args)

    monkeypatch.setattr(forward_engine, "net_concad", counted)
    _, report = solve(net)
    assert report.splits > 0 and len(calls) == 1


def test_split_joins_a_multi_tree_hub():
    # two adjacent supplies form one super node between a and b; the split
    # joins them over their only edge and replicates the joined tree
    names = ["a", "s1", "s2", "b"]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0)]
    net = build_network(names, edges, [-1.0, 1.0, 1.0, -1.0])
    hub, sides, report = split_once(net, subproblem_of(net, [1, 2]))
    assert hub.members == {1, 2}
    assert report.sampled == [(1, 2)]
    assert report.edge_indices == [2] and report.merges == 1
    for side in sides:
        assert side.state.members[1] == [1, 2]
        assert side.cond.injections[1] == pytest.approx(1.0)
        assert side.cond.injections[2] == 0.0
        assert all(e[0] != 2 for e in pool_of(side))


def test_unbalanced_split_raises():
    net = ring_with_chord()
    sub = subproblem_of(net, [1], [(1, 3)])
    inj = sub.cond.injections
    inj[1] = 2.5
    sub.cond = net_concad(GraphView(net, sub.cond.adj), inj,
                          sub.state.membership)
    with pytest.raises(InfeasibleSplit, match="subproblem of node 0 has "
                                              "injections summing to 0.5"):
        split_once(net, sub)


def test_stuck_side_names_partition_and_iteration(monkeypatch):
    net = ring_with_chord(chord_cost=0.5)
    real_sample = forward_engine.sample
    steps = []

    def stuck_after_split(view, *args, **kwargs):
        if len(view.nodes) < net.n:
            raise NoCandidate("no remaining edge touches a polytree")
        steps.append(view)
        return real_sample(view, *args, **kwargs)

    monkeypatch.setattr(forward_engine, "sample", stuck_after_split)
    with pytest.raises(Infeasible) as info:
        solve(net)
    assert str(info.value).startswith(
        "the subproblem of node 0 is stuck at iteration 1: ")
    assert info.value.iteration == len(steps) == 1
