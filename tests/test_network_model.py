"""Network data model, serialization, and configuration validation."""

import json
import math
import random

import pytest

from radialflow import (DimensionMismatch, ParseError, RadialConfiguration,
                        ValidationError, build_network, config_from_json,
                        config_to_json, export_dot, load_network,
                        serialize_network, solve, solve_forest,
                        validate_radial)
from radialflow.network_model import (FLOW_ATOL, ExactSum, balance_tolerance,
                                      full_view, incidence_apply)

from conftest import random_tree_network, ws_instance


def path3(b_injection=-1.0):
    doc = {"nodes": [{"name": "a", "p": 2.0},
                     {"name": "b", "p": b_injection},
                     {"name": "c", "p": -1.0}],
           "edges": [{"u": "a", "v": "b", "c": 1.0},
                     {"u": "b", "v": "c", "c": 1.0}]}
    return json.dumps(doc)


def test_load_path():
    net = load_network(path3())
    assert net.n == 3
    assert net.m == 2
    assert net.source_set == {net.id_of("a")}
    assert net.names == ("a", "b", "c")


def test_load_rejects_imbalance():
    with pytest.raises(ValidationError, match="imbalance"):
        load_network(path3(b_injection=-2.0))


def test_load_rejects_malformed():
    with pytest.raises(ParseError):
        load_network("{not json")
    with pytest.raises(ParseError):
        load_network(json.dumps({"edges": []}))
    with pytest.raises(ParseError):
        load_network(json.dumps({"nodes": [{"name": "a"}], "edges": []}))
    # an integer beyond float range once escaped as an OverflowError
    with pytest.raises(ParseError, match="number"):
        load_network('{"nodes": [{"name": "a", "p": 1%s}], "edges": []}'
                     % ("0" * 400))


def test_load_rejects_structural():
    base = json.loads(path3())
    dup = json.loads(path3())
    dup["edges"].append({"u": "b", "v": "a", "c": 2.0})
    with pytest.raises(ValidationError, match="duplicate"):
        load_network(json.dumps(dup))

    loop = json.loads(path3())
    loop["edges"][0]["v"] = "a"
    with pytest.raises(ValidationError):
        load_network(json.dumps(loop))

    neg = json.loads(path3())
    neg["edges"][0]["c"] = -0.5
    with pytest.raises(ValidationError, match="coefficient"):
        load_network(json.dumps(neg))

    unknown = json.loads(path3())
    unknown["edges"][0]["u"] = "zz"
    with pytest.raises(ValidationError):
        load_network(json.dumps(unknown))

    disconnected = {"nodes": base["nodes"] + [{"name": "d", "p": 1.0},
                                              {"name": "e", "p": -1.0}],
                    "edges": base["edges"] + [{"u": "d", "v": "e", "c": 1.0}]}
    with pytest.raises(ValidationError, match="connect"):
        load_network(json.dumps(disconnected))


def test_build_rejects_nonfinite():
    with pytest.raises(ValidationError):
        build_network(["a", "b"], [(0, 1, 1.0)], [float("nan"), 0.0])
    with pytest.raises(ValidationError):
        build_network(["a", "b"], [(0, 1, float("inf"))], [1.0, -1.0])


def test_round_trip_is_identity(gap_ring):
    for net in (gap_ring, ws_instance(30, seed=1)):
        text = serialize_network(net)
        again = load_network(text)
        assert again == net
        assert serialize_network(again) == text


def test_serialization_is_canonical():
    doc = {"nodes": [{"name": "zz", "p": -1.0}, {"name": "aa", "p": 1.0}],
           "edges": [{"u": "zz", "v": "aa", "c": 1.0}]}
    text = serialize_network(load_network(json.dumps(doc)))
    parsed = json.loads(text)
    assert [n["name"] for n in parsed["nodes"]] == ["aa", "zz"]
    assert parsed["edges"][0] == {"u": "aa", "v": "zz", "c": 1.0}


def test_balance_tolerance_scales():
    assert balance_tolerance([0.0]) == pytest.approx(1e-9)
    assert balance_tolerance([1e6, -1e6]) == pytest.approx(2e-3, rel=1e-6)


def test_incidence_single_edge():
    cfg = RadialConfiguration(((0, 1),), (2.0,), 0.0)
    assert incidence_apply(cfg, [2.0], n_nodes=2) == [2.0, -2.0]


def test_incidence_empty():
    cfg = RadialConfiguration((), (), 0.0)
    assert incidence_apply(cfg, [], n_nodes=3) == [0.0, 0.0, 0.0]


def test_incidence_dimension_mismatch():
    cfg = RadialConfiguration(((0, 1),), (2.0,), 0.0)
    with pytest.raises(DimensionMismatch):
        incidence_apply(cfg, [1.0, 2.0], n_nodes=2)


def test_incidence_matches_forest_solve():
    rng = random.Random(5)
    net = random_tree_network(rng, 6)
    sol = solve_forest(net, range(net.m))
    cfg = RadialConfiguration(sol.oriented_edges, sol.flows, sol.cost)
    out = incidence_apply(cfg, sol.flows, n_nodes=net.n)
    for got, want in zip(out, net.injections):
        assert abs(got - want) <= FLOW_ATOL


def star4():
    return build_network(["s", "x", "y", "z"],
                         [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)],
                         [3.0, -1.0, -1.0, -1.0])


def test_validate_star_passes():
    net = star4()
    cfg = RadialConfiguration(((0, 1), (0, 2), (0, 3)), (1.0, 1.0, 1.0), 3.0)
    report = validate_radial(net, cfg)
    assert report.passed
    assert report.acyclic and report.spanning and report.kirchhoff
    assert not report.zero_flow_edges


def test_validate_cycle_fails():
    net = build_network(["a", "b", "c"],
                        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                        [2.0, -1.0, -1.0])
    cfg = RadialConfiguration(((0, 1), (1, 2), (2, 0)), (1.0, 1.0, 1.0), 3.0)
    report = validate_radial(net, cfg)
    assert not report.acyclic
    assert not report.passed


def test_validate_spanning_and_roots():
    net = star4()
    partial = RadialConfiguration(((0, 1), (0, 2)), (1.0, 1.0), 2.0)
    report = validate_radial(net, partial)
    assert not report.spanning

    sink_rooted = RadialConfiguration(((1, 0), (0, 2), (0, 3)),
                                      (1.0, 1.0, 1.0), 3.0)
    report = validate_radial(net, sink_rooted)
    assert not report.root_source


def test_validate_flow_checks():
    net = star4()
    wrong = RadialConfiguration(((0, 1), (0, 2), (0, 3)), (1.5, 1.0, 1.0), 3.0)
    report = validate_radial(net, wrong)
    assert not report.kirchhoff
    assert report.max_residual > FLOW_ATOL

    negative = RadialConfiguration(((0, 1), (0, 2), (3, 0)),
                                   (1.0, 1.0, -1.0), 3.0)
    report = validate_radial(net, negative)
    assert not report.nonnegative_flows


def test_validate_rejects_wrong_cost(gap_ring):
    cfg, _ = solve(gap_ring)
    assert validate_radial(gap_ring, cfg).cost_consistent
    wrong = RadialConfiguration(cfg.directed_edges, cfg.flows, -5.0)
    report = validate_radial(gap_ring, wrong)
    assert not report.cost_consistent
    assert not report.passed
    assert "cost=FAIL" in report.summary()


def test_validate_rejects_nonfinite_flow():
    net = star4()
    cfg = RadialConfiguration(((0, 1), (0, 2), (0, 3)),
                              (1.0, 1.0, math.inf), math.inf)
    report = validate_radial(net, cfg)
    assert not report.finite_flows
    assert not report.passed


def test_validate_cost_overflow_counts_as_infinite():
    net = build_network(["a", "b"], [(0, 1, 1.0)], [1e200, -1e200])
    edges, flows = ((0, 1),), (1e200,)
    assert validate_radial(net, RadialConfiguration(edges, flows,
                                                    math.inf)).passed
    report = validate_radial(net, RadialConfiguration(edges, flows, 5.0))
    assert not report.cost_consistent
    free = build_network(["a", "b"], [(0, 1, 0.0)], [1e200, -1e200])
    assert validate_radial(free, RadialConfiguration(edges, flows, 0.0)).passed


def test_conservation_tolerance_scales_with_injections():
    # injections in watts rather than megawatts: the solver's rounding
    # residuals grow with sum(|p|), far past the absolute floor
    for seed in range(20):
        base = ws_instance(120, seed)
        net = build_network(base.names, base.edges,
                            [p * 1e7 for p in base.injections])
        cfg, _ = solve(net)
        report = validate_radial(net, cfg)
        assert report.passed, report.messages


def test_validate_foreign_edge():
    net = star4()
    cfg = RadialConfiguration(((1, 2), (0, 2), (0, 3)), (1.0, 2.0, 1.0), 0.0)
    report = validate_radial(net, cfg)
    assert not report.edge_subset


def test_validate_flags_zero_flow():
    net = build_network(["a", "b"], [(0, 1, 1.0)], [0.0, 0.0])
    cfg = RadialConfiguration(((0, 1),), (0.0,), 0.0)
    report = validate_radial(net, cfg)
    assert report.passed
    assert report.zero_flow_edges == (0,)


def test_config_json_round_trip(gap_ring):
    sol = solve_forest(gap_ring, [0, 2, 3, 4, 5])
    cfg = RadialConfiguration(sol.oriented_edges, sol.flows, sol.cost)
    text = config_to_json(gap_ring, cfg)
    again = config_from_json(gap_ring, text)
    assert set(zip(again.directed_edges, again.flows)) == \
        set(zip(cfg.directed_edges, cfg.flows))
    assert again.total_cost == cfg.total_cost
    assert config_to_json(gap_ring, again) == text


def test_config_json_rejects_garbage(gap_ring):
    with pytest.raises(ParseError):
        config_from_json(gap_ring, "nope")
    with pytest.raises(ParseError):
        config_from_json(gap_ring, json.dumps({"edges": []}))
    bad = {"edges": [{"u": "src", "v": "nosuch", "flow": 1.0}], "cost": 0.0}
    with pytest.raises(ValidationError):
        config_from_json(gap_ring, json.dumps(bad))


def test_export_dot(gap_ring):
    plain = export_dot(gap_ring)
    assert plain.startswith("digraph")
    assert plain.count("style=dashed") == gap_ring.m
    assert '"src"' in plain and "#9ecae1" in plain

    sol = solve_forest(gap_ring, [0, 2, 3, 4, 5])
    cfg = RadialConfiguration(sol.oriented_edges, sol.flows, sol.cost)
    rendered = export_dot(gap_ring, cfg)
    assert "x=" in rendered and "C=" in rendered
    assert rendered.count("style=dashed") == 1


def test_exact_sum_equals_fsum_of_every_term():
    # adds and removals of terms spread over 40 orders of magnitude, long
    # enough to compact the terms many times; the value must always be
    # math.fsum of everything added so far, bit for bit
    rng = random.Random(11)
    for _ in range(20):
        added = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20)
                 for _ in range(rng.randrange(0, 30))]
        total = ExactSum(added)
        assert total.value == math.fsum(added)
        for _ in range(300):
            if added and rng.random() < 0.3:
                batch = [-added[rng.randrange(len(added))]]
            else:
                batch = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20)
                         for _ in range(rng.randrange(1, 4))]
            added += batch
            assert total.add(batch) == total.value == math.fsum(added)
        assert len(total.terms) < len(added)


def test_exact_sum_compacts_its_starting_terms():
    # a large starting sum is compacted at once, so the first update does
    # not re-sum every starting term
    terms = [0.1 * k for k in range(1000)]
    total = ExactSum(terms)
    assert total.value == math.fsum(terms)
    assert len(total.terms) < 50
    assert total.add([-0.1]) == math.fsum(terms + [-0.1])



def test_build_names_an_overflowing_injection_sum():
    # the sum of |p| overflows although the injections balance exactly
    ring = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
    with pytest.raises(ValidationError, match="overflow"):
        build_network(["a", "b", "c", "d"], ring, [1e308, 1e308, -1e308, -1e308])


def test_exact_sum_overflows_where_fsum_does():
    # more than 16 terms, so the sum is compacted into partials at once
    terms = [1e308, 1e308, -1e308] + [0.0] * 20
    with pytest.raises(OverflowError):
        math.fsum(terms)
    with pytest.raises(OverflowError):
        ExactSum(terms)
    total = ExactSum([1e308] + [0.0] * 20)
    with pytest.raises(OverflowError):
        total.add([1e308] * 20)
