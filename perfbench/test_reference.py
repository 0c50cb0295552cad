"""Tests of the benchmark's own references and output checker.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from radialflow import (build_network, enumerate_optimal, generate, GenSpec,  # noqa: E402
                        serialize_network, solve_forest)

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

RING = (ROOT / "data" / "mst_gap_ring.json").read_text()
#: The ring's optimum: every edge but t3-t4, cost 6.6875 * 2^2 + 5.0625 * 2^2.
RING_OPTIMUM = [("src", "t1", 3.0), ("t1", "t2", 2.0), ("t2", "t3", 1.0),
                ("src", "t5", 2.0), ("t5", "t4", 1.0)]


def config(edges, cost):
    return json.dumps({"edges": [{"u": u, "v": v, "flow": x} for u, v, x in edges],
                       "cost": cost})


@pytest.fixture(scope="module")
def ring():
    return reference.parse_network(RING)


def problems(net, text):
    return reference.check(net, text, bound=reference.lower_bound(net))[1]


def test_checker_accepts_the_ring_optimum(ring):
    cost, found = reference.check(ring, config(RING_OPTIMUM, 47.0),
                                  bound=reference.lower_bound(ring),
                                  optimum=reference.exact_optimum(ring))
    assert found == []
    assert cost == 47.0


@pytest.mark.parametrize("declared", [-5.0, 48.0, 47.0 * (1 + 1e-8)])
def test_checker_rejects_a_wrong_declared_cost(ring, declared):
    assert any("declared cost" in p for p in problems(ring, config(RING_OPTIMUM, declared)))


def test_checker_rejects_a_cycle(ring):
    edges = RING_OPTIMUM + [("t3", "t4", 0.0)]
    assert any("cycle" in p for p in problems(ring, config(edges, 47.0)))


def test_checker_rejects_a_negative_flow(ring):
    edges = RING_OPTIMUM[:-1] + [("t4", "t5", -1.0)]
    assert any("carries flow" in p for p in problems(ring, config(edges, 47.0)))


def test_checker_rejects_an_uncovered_node(ring):
    edges = [("src", "t1", 2.0), ("t1", "t2", 1.0), ("src", "t5", 2.0), ("t5", "t4", 1.0)]
    assert any("not covered" in p for p in problems(ring, config(edges, 26.9375)))


def test_checker_rejects_broken_conservation(ring):
    edges = [("src", "t1", 3.0), ("t1", "t2", 2.0), ("t2", "t3", 1.5),
             ("src", "t5", 2.0), ("t5", "t4", 1.0)]
    assert any("conservation" in p for p in problems(ring, config(edges, 47.0)))


def test_checker_rejects_a_cost_below_the_optimum(ring):
    found = reference.check(ring, config(RING_OPTIMUM, 47.0), bound=0.0, optimum=50.0)[1]
    assert any("below the exhaustive optimum" in p for p in found)


def test_lower_bound_equals_solve_forest_cost_on_a_tree():
    names, edges, p = inputs.feeder(random.Random(5), 400, tie_share=0.0)
    net = build_network(names, edges, p)
    parsed = reference.parse_network(serialize_network(net))
    forest = solve_forest(net, range(net.m)).cost
    assert math.isclose(reference.lower_bound(parsed), forest, rel_tol=1e-9)
    assert math.isclose(reference.tree_flow_cost(parsed), forest, rel_tol=1e-12)


def test_lower_bound_is_below_every_radial_cost():
    net = generate(GenSpec(n=9, k=4, beta=0.2, n_sources=2, seed=3))
    parsed = reference.parse_network(serialize_network(net))
    assert reference.lower_bound(parsed) <= reference.exact_optimum(parsed)


def test_exact_optimum_of_the_ring(ring):
    assert reference.exact_optimum(ring) == 47.0


@pytest.mark.parametrize("index", range(12))
def test_exact_optimum_matches_the_programs_enumeration(index):
    item = inputs.plan("small_exact", 0)[index]
    if item.kind == "generate":
        net = generate(GenSpec(**item.args))
    else:
        net = build_network(*item.args)
    mine = reference.exact_optimum(reference.parse_network(serialize_network(net)))
    assert math.isclose(mine, enumerate_optimal(net).optimal_cost, rel_tol=1e-9)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    first = inputs.plan("feeder_ties", 4)[0].args
    assert first == inputs.plan("feeder_ties", 4)[0].args
    assert first != inputs.plan("feeder_ties", 5)[0].args
    # The watt-scale document, last in its round, is the same for every seed.
    assert inputs.plan("radial_json", 4)[-1].args == inputs.plan("radial_json", 5)[-1].args


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_host_factor_is_one_at_the_reference_speed():
    ref = hostspeed.REFERENCE_STEP_S
    assert math.isclose(hostspeed.factor([(3 * ref, 3), (ref, 1)]), 1.0)
    # Weighted by probe length: 3 steps at twice the time, 1 at the reference.
    assert math.isclose(hostspeed.factor([(6 * ref, 3), (ref, 1)]), 7 / 4)


def test_probe_samples_a_fixed_search():
    graph = hostspeed.probe_graph(50)
    assert graph == hostspeed.probe_graph(50)
    assert hostspeed.search(graph, 0, 50) == hostspeed.search(graph, 0, 50) > 0
    # A bounded search stops early and finds fewer distances.
    assert hostspeed.search(graph, 0, 5) < hostspeed.search(graph, 0, 50)
    probe = hostspeed.HostProbe()
    probe.probe(0.0)
    probe.maybe()  # too soon after the first: no second sample
    assert len(probe.samples) == 1
    seconds, steps = probe.samples[0]
    assert seconds > 0 and steps == 1
