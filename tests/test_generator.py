"""Seeded instance generator: determinism, balance, and spec validation."""

import math
import random

import pytest

from radialflow import (GenSpec, InvalidSpec, build_network, generate,
                        serialize_network)
from radialflow.network_model import connected


def quadratic_generate(spec):
    """The generator with its former rewiring check, a whole-graph
    connectivity search for every tried target; also returns how many
    targets that check refused."""
    n, k = spec.n, spec.k
    refused = 0
    rng = random.Random(spec.seed)
    edges = set()
    for i in range(n):
        for j in range(1, k // 2 + 1):
            u, v = i, (i + j) % n
            edges.add((min(u, v), max(u, v)))
    for j in range(1, k // 2 + 1):
        for i in range(n):
            if rng.random() >= spec.beta:
                continue
            old = (min(i, (i + j) % n), max(i, (i + j) % n))
            if old not in edges:
                continue
            offset = rng.randrange(n)
            for step in range(n):
                w = (offset + step) % n
                cand = (min(i, w), max(i, w))
                if w == i or cand in edges:
                    continue
                edges.remove(old)
                edges.add(cand)
                if connected(n, edges):
                    break
                refused += 1
                edges.remove(cand)
                edges.add(old)
    sources = sorted(rng.sample(range(n), spec.n_sources))
    source_set = set(sources)
    p = [0.0] * n
    lo, hi = spec.demand_range
    for i in range(n):
        if i not in source_set:
            p[i] = -rng.uniform(lo, hi)
    share = -math.fsum(p) / spec.n_sources
    for s in sources:
        p[s] = share
    p[sources[0]] = 0.0
    p[sources[0]] = -math.fsum(p)
    for _ in range(8):
        drift = math.fsum(p)
        if drift == 0.0:
            break
        j = min(range(n), key=lambda v: (abs(p[v]), v))
        p[j] -= drift
    rlo, rhi = spec.resistance_range
    edge_list = [(u, v, rng.uniform(rlo, rhi)) for u, v in sorted(edges)]
    width = len(str(n - 1))
    names = [f"v{i:0{width}d}" for i in range(n)]
    meta = {"generator": {
        "n": n, "k": k, "beta": spec.beta, "n_sources": spec.n_sources,
        "demand_range": list(spec.demand_range),
        "resistance_range": list(spec.resistance_range), "seed": spec.seed}}
    return build_network(names, edge_list, p, meta), refused


def test_rewiring_matches_the_whole_graph_check():
    # the breadth-first check accepts and refuses the same targets, so every
    # network is byte for byte the same; k=2 with beta=1 refuses some
    refused = {}
    for n in (5, 8, 30, 120):
        for k in (2, 4, 6):
            for beta in (0.0, 0.2, 0.5, 1.0):
                for seed in range(3):
                    if k >= n:
                        continue
                    spec = GenSpec(n=n, k=k, beta=beta, n_sources=2, seed=seed)
                    want, count = quadratic_generate(spec)
                    assert serialize_network(generate(spec)) == \
                        serialize_network(want)
                    refused[k, beta] = refused.get((k, beta), 0) + count
    assert refused[2, 1.0] > 0


def test_edge_count_and_connectivity():
    # construction itself enforces connectivity, so surviving build_network
    # with the right counts is the whole assertion
    for n, k in ((10, 2), (12, 4), (30, 4), (61, 6)):
        for beta in (0.0, 0.2, 1.0):
            net = generate(GenSpec(n=n, k=k, beta=beta, n_sources=2, seed=9))
            assert net.n == n
            assert net.m == n * k // 2


def test_injections_balance_exactly():
    for seed in range(6):
        net = generate(GenSpec(n=25, k=4, beta=0.3, n_sources=3, seed=seed))
        assert math.fsum(net.injections) == 0.0


def test_supply_and_demand_ranges():
    spec = GenSpec(n=40, k=4, beta=0.2, n_sources=4, seed=2,
                   demand_range=(0.5, 1.5), resistance_range=(0.1, 1.0))
    net = generate(spec)
    positives = [p for p in net.injections if p > 0.0]
    negatives = [p for p in net.injections if p < 0.0]
    assert len(positives) == 4
    assert len(negatives) == 36
    # the exact-balance nudge may move one entry by a few ulps
    assert all(-1.5 - 1e-12 <= p <= -0.5 + 1e-12 for p in negatives)
    assert all(0.1 <= c <= 1.0 for _, _, c in net.edges)


def test_same_spec_same_bytes():
    spec = GenSpec(n=30, k=4, beta=0.2, n_sources=5, seed=123)
    a = serialize_network(generate(spec))
    b = serialize_network(generate(spec))
    assert a == b


def test_seed_changes_instance():
    base = GenSpec(n=30, k=4, beta=0.2, n_sources=5, seed=0)
    other = GenSpec(n=30, k=4, beta=0.2, n_sources=5, seed=1)
    assert serialize_network(generate(base)) != serialize_network(
        generate(other))


def test_names_are_padded_and_ordered():
    net = generate(GenSpec(n=30, k=2, beta=0.0, n_sources=1, seed=0))
    assert net.names[0] == "v00"
    assert net.names[-1] == "v29"
    assert list(net.names) == sorted(net.names)
    wide = generate(GenSpec(n=120, k=2, beta=0.0, n_sources=1, seed=0))
    assert wide.names[7] == "v007"


def test_metadata_records_parameters():
    spec = GenSpec(n=16, k=4, beta=0.5, n_sources=2, seed=77)
    meta = generate(spec).metadata["generator"]
    assert meta["n"] == 16
    assert meta["k"] == 4
    assert meta["beta"] == 0.5
    assert meta["n_sources"] == 2
    assert meta["seed"] == 77
    assert meta["demand_range"] == [0.5, 1.5]


@pytest.mark.parametrize("bad", [
    GenSpec(n=1),
    GenSpec(n=8, k=3),
    GenSpec(n=8, k=0),
    GenSpec(n=4, k=4),
    GenSpec(n=8, beta=-0.1),
    GenSpec(n=8, beta=1.5),
    GenSpec(n=8, n_sources=0),
    GenSpec(n=8, n_sources=8),
    GenSpec(n=8, demand_range=(0.0, 1.0)),
    GenSpec(n=8, demand_range=(2.0, 1.0)),
    GenSpec(n=8, resistance_range=(-1.0, 1.0)),
])
def test_rejects_bad_specs(bad):
    with pytest.raises(InvalidSpec):
        generate(bad)


def test_full_rewiring_stays_connected():
    for seed in range(4):
        net = generate(GenSpec(n=20, k=4, beta=1.0, n_sources=2, seed=seed))
        assert net.m == 40
