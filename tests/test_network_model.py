"""Network data model, serialization, and configuration validation."""

import json
import math
import random
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialflow import (DimensionMismatch, ParseError, RadialConfiguration,
                        ValidationError, build_network, config_from_json,
                        config_to_json, export_dot, load_network,
                        serialize_network, solve, solve_forest,
                        validate_radial)
from radialflow.network_model import (COST_RTOL, FLOW_ATOL, FLOW_RTOL,
                                      DistributionNetwork, ExactSum,
                                      balance_tolerance, connected,
                                      incidence_apply, quadratic_cost)

from conftest import DATA_DIR, random_tree_network, small_networks, ws_instance


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
    assert net.source_set == {net.name_to_id()["a"]}
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
    with pytest.raises(ParseError, match="^top-level JSON value must be an object$"):
        load_network("[]")
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


DEEP = 2000


def deep_document():
    """A 2,000-node path, node n0000 supplying every other node 1.0."""
    return {"nodes": [{"name": f"n{i:04d}", "p": -1.0 if i else DEEP - 1.0}
                      for i in range(DEEP)],
            "edges": [{"u": f"n{i - 1:04d}", "v": f"n{i:04d}", "c": 1.0}
                      for i in range(1, DEEP)]}


def at(part, index, **fields):
    """A fault: entry ``index`` of ``part`` takes ``fields``."""
    return lambda doc: doc[part][index].update(fields)


def put(part, index, value):
    """A fault: entry ``index`` of ``part`` becomes ``value``."""
    return lambda doc: doc[part].__setitem__(index, value)


def drop(part, index, key):
    return lambda doc: doc[part][index].pop(key)


def extra_edge(u, v):
    return lambda doc: doc["edges"].insert(1700, {"u": u, "v": v, "c": 2.0})


HUGE = 10 ** 400
E1500 = "{'u': 'n1500', 'v': 'n1501', 'c': %s}"
DEEP_FAULTS = {
    "node not an object": ([put("nodes", 1500, ["n1500", -1.0])], ParseError,
                           "node entry must have 'name' and 'p': ['n1500', -1.0]"),
    "node without p": ([drop("nodes", 1500, "p")], ParseError,
                       "node entry must have 'name' and 'p': {'name': 'n1500'}"),
    "name not a string": ([at("nodes", 1500, name=1500)], ParseError,
                          "node name must be a string: 1500"),
    "injection a bool": ([at("nodes", 1500, p=True)], ParseError,
                         "injection must be a number at node 'n1500'"),
    "injection a string": ([at("nodes", 1500, p="-1")], ParseError,
                           "injection must be a number at node 'n1500'"),
    "injection beyond float range": (
        [at("nodes", 1500, p=HUGE)], ParseError,
        "injection must be a number at node 'n1500': int too large to "
        "convert to float"),
    "injection NaN": ([at("nodes", 1500, p=math.nan)], ValidationError,
                      "non-finite injection at node 'n1500'"),
    "injection -Infinity": ([at("nodes", 1500, p=-math.inf)], ValidationError,
                            "non-finite injection at node 'n1500'"),
    "duplicate name": ([at("nodes", 1500, name="n0700")], ValidationError,
                       "duplicate node name 'n0700'"),
    "repeated node": ([lambda doc: doc["nodes"].insert(1500, {"name": "n0700",
                                                             "p": 0.0})],
                      ValidationError, "duplicate node name 'n0700'"),
    "edge not an object": ([put("edges", 1500, "n1500")], ParseError,
                           "edge entry must have 'u', 'v' and 'c': 'n1500'"),
    "edge without c": ([drop("edges", 1500, "c")], ParseError,
                       "edge entry must have 'u', 'v' and 'c': "
                       "{'u': 'n1500', 'v': 'n1501'}"),
    "endpoint not a string": ([at("edges", 1500, v=1501)], ParseError,
                              "edge endpoints must be node names: "
                              "{'u': 'n1500', 'v': 1501, 'c': 1.0}"),
    "cost a bool": ([at("edges", 1500, c=False)], ParseError,
                    "cost coefficient must be a number: " + E1500 % False),
    "cost beyond float range": (
        [at("edges", 1500, c=-HUGE)], ParseError,
        "cost coefficient must be a number: " + E1500 % -HUGE
        + ": int too large to convert to float"),
    "cost NaN": ([at("edges", 1500, c=math.nan)], ValidationError,
                 "negative or non-finite cost coefficient on edge "
                 "('n1500', 'n1501')"),
    "cost Infinity": ([at("edges", 1500, c=math.inf)], ValidationError,
                      "negative or non-finite cost coefficient on edge "
                      "('n1500', 'n1501')"),
    "unknown node": ([at("edges", 1500, v="zz")], ValidationError,
                     "unknown node 'zz' in edge list"),
    "self-loop": ([at("edges", 1500, v="n1500")], ValidationError,
                  "self-loop at node 'n1500'"),
    "duplicate edge": ([extra_edge("n1200", "n1201")], ValidationError,
                       "duplicate edge ('n1200', 'n1201')"),
    "duplicate edge reversed": ([extra_edge("n1201", "n1200")],
                                ValidationError,
                                "duplicate edge ('n1200', 'n1201')"),
    "negative cost": ([at("edges", 1500, c=-0.5)], ValidationError,
                      "negative or non-finite cost coefficient on edge "
                      "('n1500', 'n1501')"),
    # with two faults, nodes are checked before edges and each list in order
    "self-loop after a negative cost": (
        [at("edges", 1500, v="n1500"), at("edges", 600, c=-1.0)],
        ValidationError,
        "negative or non-finite cost coefficient on edge ('n0600', 'n0601')"),
    "endpoint before a bool injection": (
        [at("edges", 10, u=3), at("nodes", 1900, p=False)], ParseError,
        "injection must be a number at node 'n1900'"),
    "NaN injection before a bad endpoint": (
        [at("nodes", 100, p=math.nan), at("edges", 1500, u=None)], ParseError,
        "edge endpoints must be node names: "
        "{'u': None, 'v': 'n1501', 'c': 1.0}"),
    "duplicate name after a string injection": (
        [at("nodes", 1500, name="n0300"), at("nodes", 1200, p="x")],
        ParseError, "injection must be a number at node 'n1200'"),
    "imbalance": ([at("nodes", 1500, p=-2.0)], ValidationError,
                  "injection imbalance: sum(p) = -1.0"),
    "disconnected": ([lambda doc: doc["edges"].pop(1500)], ValidationError,
                     "disconnected network"),
    "meta not an object": ([lambda doc: doc.update(meta=[1])], ParseError,
                           "'meta' entry must be an object"),
    "empty": ([lambda doc: doc.update(nodes=[], edges=[])], ValidationError,
              "empty network: at least one node is required"),
}


@pytest.mark.parametrize("faults, error, message", DEEP_FAULTS.values(),
                         ids=DEEP_FAULTS)
def test_load_names_the_first_fault_deep_in_a_document(faults, error, message):
    doc = deep_document()
    for fault in faults:
        fault(doc)
    with pytest.raises(error) as info:
        load_network(json.dumps(doc))
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("change, message", [
    (lambda names, edges, p: edges.insert(1500, (1500, DEEP, 1.0)),
     f"edge (1500, {DEEP}) references an unknown node id"),
    (lambda names, edges, p: names.__setitem__(1500, "n0700"),
     "duplicate node name"),
    (lambda names, edges, p: p.pop(), "injection vector length does not "
     "match node count"),
    (lambda names, edges, p: edges.__setitem__(1500, (1501, 1500, -1.0)),
     "negative or non-finite cost coefficient on edge ('n1501', 'n1500')"),
    (lambda names, edges, p: edges.insert(1700, (1201, 1200, 1.0)),
     "duplicate edge ('n1200', 'n1201')"),
    (lambda names, edges, p: edges.__setitem__(1500, (1500, 1501.0, 1.0)),
     "edge (1500, 1501.0) has a node id that is not an integer"),
    (lambda names, edges, p: edges.__setitem__(1500, ("n1500", 1501, 1.0)),
     "edge ('n1500', 1501) has a node id that is not an integer"),
    (lambda names, edges, p: edges.insert(1500, (True, 1500, 1.0)),
     "edge (True, 1500) has a node id that is not an integer"),
    (lambda names, edges, p: edges.__setitem__(1500, (1500, 1501, "1.0")),
     "cost coefficient must be a number on edge ('n1500', 'n1501')"),
    (lambda names, edges, p: edges.__setitem__(1500, (1500, 1501, True)),
     "cost coefficient must be a number on edge ('n1500', 'n1501')"),
    (lambda names, edges, p: edges.__setitem__(1500, (1500, 1501, 10 ** 400)),
     "negative or non-finite cost coefficient on edge ('n1500', 'n1501')"),
    (lambda names, edges, p: p.__setitem__(1200, "-1.0"),
     "injection must be a number at node 'n1200'"),
    (lambda names, edges, p: p.__setitem__(1200, True),
     "injection must be a number at node 'n1200'"),
    (lambda names, edges, p: p.__setitem__(1200, -10 ** 400),
     "non-finite injection at node 'n1200'"),
    (lambda names, edges, p: edges.__setitem__(1500, (1500, 1501)),
     "edge (1500, 1501) is not a (u, v, cost) triple"),
    (lambda names, edges, p: names.__setitem__(1500, 1500),
     "node name must be a string: 1500"),
    (lambda names, edges, p: (names.clear(), edges.clear(), p.clear()),
     "empty network: at least one node is required"),
], ids=["unknown id", "duplicate name", "short injections", "negative cost",
        "duplicate edge reversed", "float endpoint", "string endpoint",
        "bool endpoint", "string cost", "bool cost", "huge int cost",
        "string injection", "bool injection", "huge int injection",
        "pair edge", "int name", "empty"])
def test_build_names_the_first_fault_deep_in_its_input(change, message):
    names = [f"n{i:04d}" for i in range(DEEP)]
    edges = [(i - 1, i, 1.0) for i in range(1, DEEP)]
    p = [DEEP - 1.0] + [-1.0] * (DEEP - 1)
    change(names, edges, p)
    with pytest.raises(ValidationError) as info:
        build_network(names, edges, p)
    assert str(info.value) == message


def test_build_takes_numpy_floats_as_floats():
    # numpy.float64 is a float subclass, so the C-level type checks fail and
    # the walk finds no fault; the network is the one plain floats build
    edges = [(0, 1, 1.5), (2, 1, 0.0), (0, 2, 3.0)]
    p = [2.0, -1.5, -0.5]
    plain = build_network(["a", "b", "c"], edges, p)
    net = build_network(["a", "b", "c"],
                        [(u, v, np.float64(c)) for u, v, c in edges],
                        list(map(np.float64, p)))
    assert net == plain
    assert {type(c) for *_, c in net.edges} == set(map(type, net.injections)) == {float}


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


def test_shipped_networks_are_canonical():
    # the files in data/ are what serialize_network writes, byte for byte
    paths = sorted(DATA_DIR.glob("*.json"))
    assert paths
    for path in paths:
        text = path.read_text()
        assert serialize_network(load_network(text)) == text, path.name


# Names with every character json escapes or writes as \u escapes, and
# values of every type json writes, at the edges of the float range.
json_names = st.text(st.sampled_from('ab"\\/\x00\x1f\x7f\n\té€\u2028\U0001d11e'),
                     max_size=4) | st.text(max_size=3)
json_numbers = (st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308,
                                 math.nan, math.inf, -math.inf, 0, -7, 2 ** 80,
                                 True, False])
                | st.floats() | st.integers())
json_meta = st.recursive(
    st.none() | st.booleans() | json_numbers | json_names,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(json_names, inner, max_size=3), max_leaves=8)


@st.composite
def hand_built(draw):
    """A network and configuration that skip every model check: repeated
    names and edges, self-loops, and costs, injections and flows of any
    type json writes."""
    n = draw(st.integers(1, 6))
    names = tuple(draw(st.lists(json_names, min_size=n, max_size=n)))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = tuple((u, v, c) for (u, v), c in
                  draw(st.lists(st.tuples(ends, json_numbers), max_size=6)))
    injections = tuple(draw(st.lists(json_numbers, min_size=n, max_size=n)))
    meta = draw(st.none() | st.dictionaries(json_names, json_meta, max_size=3))
    directed = draw(st.lists(ends, max_size=6))
    directed += directed[:draw(st.integers(0, 2))]
    flows = draw(st.lists(json_numbers, min_size=len(directed),
                          max_size=len(directed)))
    return (DistributionNetwork(names, edges, injections, meta),
            RadialConfiguration(tuple(directed), tuple(flows),
                                draw(json_numbers)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(hand_built())
def test_documents_are_json_dumps_indent_2(case):
    net, cfg = case
    names = net.names

    def pair(u, v):
        return (names[u], names[v]) if names[u] <= names[v] else (names[v], names[u])

    doc = {"nodes": [{"name": names[i], "p": net.injections[i]}
                     for i in sorted(range(net.n), key=lambda i: names[i])],
           "edges": [{"u": a, "v": b, "c": c} for (a, b), c in sorted(
               ((pair(u, v), c) for u, v, c in net.edges),
               key=lambda e: e[0])]}
    if net.metadata is not None:
        doc["meta"] = net.metadata
    assert serialize_network(net) == json.dumps(doc, indent=2) + "\n"
    # a stable sort: repeated directed edges keep their order
    order = sorted(range(len(cfg.flows)), key=lambda i: cfg.directed_edges[i])
    doc = {"edges": [{"u": names[cfg.directed_edges[i][0]],
                      "v": names[cfg.directed_edges[i][1]],
                      "flow": cfg.flows[i]} for i in order],
           "cost": cfg.total_cost}
    assert config_to_json(net, cfg) == json.dumps(doc, indent=2) + "\n"


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
    # each square is finite, but their sum is not, and fsum raises on it
    path = build_network(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0)],
                         [1.2e154, 0.0, -1.2e154])
    edges, flows = ((0, 1), (1, 2)), (1.2e154, 1.2e154)
    assert validate_radial(path, RadialConfiguration(edges, flows,
                                                     math.inf)).passed
    report = validate_radial(path, RadialConfiguration(edges, flows, 5.0))
    assert not report.cost_consistent
    assert report.messages == ("declared cost 5.0 differs from sum(C x^2) = inf",)


@pytest.mark.parametrize("edges, flows", [
    (((1, 2), (0, 1)), (math.nan, 2.0)),
    (((0, 1), (1, 2)), (2.0, math.nan)),
    (((1, 2), (0, 1)), (1.0, math.nan)),
], ids=["nan second", "nan last", "nan first"])
def test_validate_nan_residual_fails_conservation(edges, flows):
    # max() skips a NaN that is not its first item, and a's residual is 0.0
    # in the first two cases
    net = load_network(path3())
    report = validate_radial(net, RadialConfiguration(edges, flows, 4.0))
    assert math.isnan(report.max_residual)
    assert not report.kirchhoff
    assert "conservation residual nan exceeds 1.000e-08" in report.messages


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
    no_flow = {"edges": [{"u": "src", "v": "t1"}], "cost": 0.0}
    with pytest.raises(ParseError) as info:
        config_from_json(gap_ring, json.dumps(no_flow))
    assert str(info.value) == ("edge entry must have 'u', 'v' and 'flow': "
                               "{'u': 'src', 'v': 't1'}")


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


#: A DOT quoted string: a backslash escapes the character after it.
DOT_STRING = r'"(?:[^"\\]|\\.)*"'


def test_export_dot_escapes_names():
    # a quote or a trailing backslash in a name must not end its string
    names = ['a"b', "c\\", "d"]
    net = build_network(names, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                        [1.0, -0.5, -0.5])
    sol = solve_forest(net, [0, 1])
    cfg = RadialConfiguration(sol.oriented_edges, sol.flows, sol.cost)
    lines = export_dot(net, cfg).splitlines()
    node = re.compile(rf"  ({DOT_STRING}) \[label=({DOT_STRING})[^\]]*\];")
    edge = re.compile(rf"  ({DOT_STRING}) -> ({DOT_STRING}) \[[^\]]*\];")

    def unquote(text):
        return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1],
                      text[1:-1])

    got = [node.fullmatch(line) for line in lines[1:1 + net.n]]
    assert [unquote(m[1]) for m in got] == names
    assert [unquote(m[2]) for m in got] == [
        'a"b\np=1', "c\\\np=-0.5", "d\np=-0.5"]
    ends = [edge.fullmatch(line) for line in lines[1 + net.n:-1]]
    assert sorted((unquote(m[1]), unquote(m[2])) for m in ends) == sorted(
        [('a"b', "c\\"), ("c\\", "d"), ('a"b', "d")])


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



# Terms from the smallest subnormal to 1e308 of either sign, some of them
# the negation of an earlier term so that sums cancel.
exact_terms = st.floats(min_value=5e-324, max_value=1e308) | st.floats(
    min_value=-1e308, max_value=-5e-324) | st.just(0.0)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(st.lists(exact_terms, max_size=20),
                          st.lists(st.integers(0, 10 ** 6), max_size=3)),
                max_size=12))
def test_exact_sum_is_fsum_of_every_add(batches):
    added: list[float] = []
    total = None
    for fresh, picks in batches:
        # negate earlier terms, picked by position
        batch = fresh + [-added[k % len(added)] for k in picks if added]
        added += batch
        try:
            want = math.fsum(added)
        except OverflowError:
            with pytest.raises(OverflowError):
                grow(total, batch)
            return
        total = grow(total, batch)
        assert total.value == want


def grow(total: ExactSum | None, batch: list[float]) -> ExactSum:
    """``total`` with ``batch`` added; the first batch starts the sum."""
    if total is None:
        return ExactSum(batch)
    total.add(batch)
    return total


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


def test_validate_names_each_fault_in_edge_order():
    # the messages as they read before the checks ran as flat passes: faults
    # edge by edge, then coverage, roots, conservation and cost
    net = build_network(list("abcdefg"),
                        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 2.0),
                         (3, 4, 1.0), (4, 5, 0.5), (5, 6, 1.0)],
                        [3.0, -1.0, -1.0, 0.0, -0.5, -0.5, 0.0])
    cfg = RadialConfiguration(((0, 1), (1, 2), (2, 3), (3, 0), (2, 1), (1, 3), (5, 4)),
                              (1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.5), 3.0)
    report = validate_radial(net, cfg)
    assert report.messages == (
        "edge (a, d) closes a cycle", "duplicate undirected edge (b, c)",
        "edge (b, d) is not a network edge", "edge (b, d) closes a cycle",
        "uncovered nodes: g", "root f has negative injection -0.5",
        "conservation residual 2.000e+00 exceeds 1.000e-08",
        "declared cost 3.0 differs from sum(C x^2) = nan")
    assert report.zero_flow_edges == (3,)
    far = RadialConfiguration(((0, 1), (9, 2), (1, "c")), (1.0, 1.0, 1.0), 3.0)
    assert validate_radial(net, far).messages[:2] == (
        "edge (9, 2) references an unknown node",
        "edge (1, c) references an unknown node")


def test_quadratic_cost_reads_an_overflowing_sum_as_inf():
    assert quadratic_cost([1.0, 1.0], [1.2e154, 1.2e154]) == math.inf
    # the square overflows, but a small coefficient keeps the term finite
    assert quadratic_cost([1e-300, 2.0], [1e200, 3.0]) == 1e100 + 18.0
    assert quadratic_cost([0.0, 2.0], [math.inf, 3.0]) == 18.0
    assert quadratic_cost([0.0, 1.0], [math.nan, 1e200]) == math.inf
    # fsum raises on the overflow after the NaN, which the sum keeps
    assert math.isnan(quadratic_cost([math.nan, 1.0, 1.0], [1.0, 1.2e154, 1.2e154]))


def reference_report(net: DistributionNetwork, cfg: RadialConfiguration) -> dict:
    """Every :class:`ValidationReport` field but the messages, computed
    without the module: ``networkx.is_forest`` on the skeleton and
    ``math.fsum`` per node.  An id is a node when it is an int in range; an
    edge with an end that is none counts only at the end that is one."""
    n, p = net.n, net.injections

    def is_node(x):
        return type(x) is int and 0 <= x < n

    inner = [e for e in cfg.directed_edges if is_node(e[0]) and is_node(e[1])]
    skeleton = nx.MultiGraph(inner)
    pairs = {(u, v): c for u, v, c in net.edges}
    coeffs = [pairs.get((min(e), max(e)), math.nan)
              if is_node(e[0]) and is_node(e[1]) else math.nan
              for e in cfg.directed_edges]
    covered = set(skeleton)
    heads = {h for _, h in inner}
    terms: list[list[float]] = [[-x] for x in p]
    for (tail, head), x in zip(cfg.directed_edges, cfg.flows):
        for end, sign in ((tail, 1), (head, -1)):
            if is_node(end):
                terms[end].append(sign * x)
    residuals = []
    for t in terms:
        try:
            residuals.append(abs(math.fsum(t)))
        except ValueError:  # inf - inf
            residuals.append(math.nan)
        except OverflowError:
            residuals.append(math.inf)
    cost_terms = [c * x * x if c else 0.0 for c, x in zip(coeffs, cfg.flows)]
    try:
        cost = math.fsum(cost_terms)
    except OverflowError:
        cost = math.nan if any(map(math.isnan, cost_terms)) else math.inf
    aligned = len(cfg.flows) == len(cfg.directed_edges)
    return {
        "acyclic": not inner or nx.is_forest(skeleton),
        "edge_subset": len(inner) == len(cfg.directed_edges)
                       and all((min(e), max(e)) in pairs for e in inner),
        "spanning": (not cfg.directed_edges if n == 1
                     else covered == set(range(n))),
        "root_source": all(p[v] >= 0 for v in covered - heads),
        "max_residual": (math.inf if not aligned else math.nan
                         if any(map(math.isnan, residuals)) else max(residuals)),
        "nonnegative_flows": aligned and all(x >= 0 for x in cfg.flows),
        "finite_flows": aligned and all(map(math.isfinite, cfg.flows)),
        "cost": cost if aligned else math.nan,
        "zero_flow_edges": tuple(i for i, x in enumerate(cfg.flows)
                                 if x == 0.0) if aligned else (),
    }


MUTATIONS = ("drop", "repeat", "reverse", "replace", "chord", "far id",
             "non-int id", "negate", "nan", "inf", "cost", "long flows")


@st.composite
def mutated_configurations(draw):
    """A solved configuration of a small network with a few mutations."""
    net = draw(small_networks())
    cfg, _ = solve(net)
    edges, flows, cost = list(cfg.directed_edges), list(cfg.flows), cfg.total_cost
    node = st.integers(0, net.n - 1)
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        i = draw(st.integers(0, len(edges) - 1)) if edges else None
        if kind == "chord":
            edges.append((draw(node), draw(node)))
            flows.append(draw(st.sampled_from([0.0, 1.0, 2.5])))
        elif kind == "cost":
            cost = draw(st.sampled_from([0.0, -1.0, cost * 2 + 1, math.inf]))
        elif kind == "long flows":
            flows.append(1.0)
        elif i is None:
            continue
        elif kind == "drop":
            del edges[i], flows[i % len(flows)]
        elif kind == "repeat":
            edges.append(edges[i])
            flows.append(flows[i % len(flows)])
        elif kind == "reverse":
            edges[i] = edges[i][::-1]
        elif kind == "replace":
            edges[i] = (edges[i][0], draw(node))
        elif kind == "far id":
            edges[i] = (draw(st.sampled_from([-1, net.n, net.n + 3])), edges[i][1])
        elif kind == "non-int id":
            edges[i] = (edges[i][0], draw(st.sampled_from([1.0, "v1", None])))
        elif i < len(flows):
            flows[i] = {"negate": -flows[i], "nan": math.nan, "inf": math.inf}[kind]
    return net, RadialConfiguration(tuple(edges), tuple(flows), cost)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(mutated_configurations())
def test_validate_matches_an_independent_reference(case):
    net, cfg = case
    report = validate_radial(net, cfg)
    want = reference_report(net, cfg)
    for name in ("acyclic", "edge_subset", "spanning", "root_source",
                 "nonnegative_flows", "finite_flows", "zero_flow_edges"):
        assert getattr(report, name) == want[name], name
    got = report.max_residual
    assert (math.isnan(got) and math.isnan(want["max_residual"])
            or math.isclose(got, want["max_residual"], rel_tol=1e-9, abs_tol=1e-12))
    tol = max(FLOW_ATOL, FLOW_RTOL * math.fsum(map(abs, net.injections)))
    assert report.kirchhoff == (len(cfg.flows) == len(cfg.directed_edges)
                                and got <= tol)
    assert report.cost_consistent == math.isclose(cfg.total_cost, want["cost"],
                                                  rel_tol=COST_RTOL)
    assert bool(report.messages) == (not report.passed)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=2 * n))))
def test_connected_matches_networkx(case):
    n, edges = case
    graph = nx.Graph(edges)
    graph.add_nodes_from(range(n))
    assert connected(n, edges) == nx.is_connected(graph)
