"""Acceptance checks for the whole pipeline.

Each test prints one ``ACCEPTANCE <id>: PASS|FAIL`` line (run with ``-s`` or
``-rA`` to see the lines for passing tests) and then asserts, so the verdict
and the supporting numbers survive into the report either way.
"""

import math
import random
import statistics
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (kruskal_config, random_forest_case, small_instances,
                      ws_instance)
from radialflow import (InvariantViolation, config_to_json, solve,
                        solve_forest, validate_radial)
from radialflow import forward_engine
from radialflow.forward_engine import complexity_probe, fit_exponent
from radialflow.network_model import balance_tolerance
from radialflow.oracle import enumerate_optimal
from radialflow.preprocessor import preprocess

SWEEP_SIZES = (30, 120, 240, 400)
SWEEP_SEEDS = 100


def _line(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")


def _invariant_scope():
    """Instances solved under full invariant checking (4c and 4d)."""
    for label, net in small_instances(50):
        yield label, net
    for n in (30, 120):
        for seed in range(25):
            yield f"ws{n}s{seed}", ws_instance(n, seed)


def test_criterion_1_regression_ring(gap_ring):
    start = time.perf_counter()
    oracle = enumerate_optimal(gap_ring)
    mst = solve_forest(gap_ring, kruskal_config(gap_ring))
    cfg, _ = solve(gap_ring)
    elapsed = time.perf_counter() - start
    ok = (abs(oracle.optimal_cost - 47.0) <= 1e-9
          and abs(mst.cost - 81.0) <= 1e-9
          and 47.0 - 1e-9 <= cfg.total_cost <= 81.0 + 1e-9
          and elapsed < 1.0)
    _line(1, ok, f"oracle {oracle.optimal_cost:.9f}, cheapest-coefficient "
                 f"tree {mst.cost:.9f}, greedy {cfg.total_cost:.9f}, "
                 f"{elapsed:.3f}s")
    assert ok


@pytest.fixture(scope="module")
def sweep():
    """Solve and validate every sweep instance once, for checks 2 and 4b.

    Every side of every growth split is checked for balance as the split
    returns it; the wrapper adds that sum to the time check 2 reads.
    """
    real_split = forward_engine.split_at_cut
    out = SimpleNamespace(failures=[], offenders=[], splits=0, sides=0)
    instance = None

    def checked_split(sub, cut, outcome, **kwargs):
        sides = real_split(sub, cut, outcome, **kwargs)
        out.splits += 1
        for k, side in enumerate(sides):
            out.sides += 1
            tol = balance_tolerance(side.injections.values())
            drift = math.fsum(side.injections.values())
            if abs(drift) > tol:
                out.offenders.append((*instance, out.splits, k, drift))
        return sides

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forward_engine, "split_at_cut", checked_split)
        start = time.perf_counter()
        for n in SWEEP_SIZES:
            for seed in range(SWEEP_SEEDS):
                instance = (n, seed)
                net = ws_instance(n, seed)
                cfg, _ = solve(net)
                r = validate_radial(net, cfg)
                checks = (r.acyclic, r.edge_subset, r.spanning,
                          r.root_source, r.kirchhoff, r.nonnegative_flows)
                if not all(checks):
                    out.failures.append((n, seed, r.summary()))
        out.elapsed = time.perf_counter() - start
    return out


def test_criterion_2_feasibility_sweep(sweep):
    ok = not sweep.failures and sweep.elapsed < 120.0
    _line(2, ok, f"{len(SWEEP_SIZES) * SWEEP_SEEDS} instances, "
                 f"{len(sweep.failures)} failures, {sweep.elapsed:.1f}s")
    assert ok, sweep.failures[:5]


def test_criterion_3_oracle_agreement():
    gaps = []
    tree_gaps = []
    problems = []
    for label, net in small_instances(50):
        oracle = enumerate_optimal(net)
        if oracle.optimum is None:
            continue
        try:
            cfg, _ = solve(net)
        except Exception as exc:
            problems.append(f"{label}: solve failed where oracle is "
                            f"feasible ({exc})")
            continue
        if not validate_radial(net, cfg).passed:
            problems.append(f"{label}: output fails validation")
        tol = 1e-9 * max(1.0, oracle.optimal_cost)
        if cfg.total_cost < oracle.optimal_cost - tol:
            problems.append(f"{label}: cost {cfg.total_cost!r} below "
                            f"optimum {oracle.optimal_cost!r}")
        gap = (cfg.total_cost / oracle.optimal_cost
               if oracle.optimal_cost > 0 else 1.0)
        gaps.append(gap)
        if label.startswith("tree"):
            tree_gaps.append(gap)
            if abs(gap - 1.0) > 1e-9:
                problems.append(f"{label}: tree ratio {gap!r} != 1")
    ok = not problems and len(gaps) == 50
    _line(3, ok, f"{len(gaps)} instances, median gap "
                 f"{statistics.median(gaps):.4f}, max {max(gaps):.4f}, "
                 f"{len(tree_gaps)} trees exact")
    assert ok, problems[:5]


def test_criterion_4a_reduced_min_degree():
    offenders = []
    for n in SWEEP_SIZES:
        for seed in range(SWEEP_SEEDS):
            net = ws_instance(n, seed)
            pre = preprocess(net)
            if pre.fully_reduced:
                continue
            low = min(map(len, pre.reduced.adj.values()))
            if low < 2:
                offenders.append((n, seed, low))
    ok = not offenders
    _line("4a", ok, f"reduced views of {len(SWEEP_SIZES) * SWEEP_SEEDS} "
                    f"instances, {len(offenders)} below degree 2")
    assert ok, offenders[:5]


def test_criterion_4b_partition_balance(sweep):
    # the peeled graph is one partition; the growth splits divide it, so
    # every side of every split must balance on its own
    ok = not sweep.offenders and sweep.splits > 0
    _line("4b", ok, f"{sweep.sides} sides of {sweep.splits} growth splits, "
                    f"{len(sweep.offenders)} imbalanced")
    assert ok, sweep.offenders[:5]


def test_criterion_4c_condensations_irreducible():
    # growth can merge the endpoints of a chord into one tree, leaving the
    # merged super group as a cut vertex of the condensation; the engine then
    # splits the subproblem there before sampling, so every condensation the
    # sampler consults, and therefore this count, must be free of them
    reducible = 0
    solves = 0
    for _, net in _invariant_scope():
        _, report = solve(net, check_invariants=True)
        reducible += report.reducible_condensations
        solves += 1
    ok = reducible == 0
    _line("4c", ok, f"{reducible} reducible condensations across "
                    f"{solves} invariant-checked solves")
    assert ok, (f"{reducible} condensations had a supply super node as a "
                f"cut vertex")


def test_criterion_4d_monotone_drain():
    violations = []
    solves = 0
    for label, net in _invariant_scope():
        try:
            solve(net, check_invariants=True)
        except InvariantViolation as exc:
            violations.append(f"{label}: {exc}")
        solves += 1
    ok = not violations
    _line("4d", ok, f"{solves} invariant-checked solves, "
                    f"{len(violations)} drain violations")
    assert ok, violations[:5]


def test_criterion_5_forest_flows_match_least_squares():
    rng = random.Random(20240)
    worst = 0.0
    for _ in range(200):
        net, kept = random_forest_case(rng, 50)
        sol = solve_forest(net, kept)
        if not kept:
            continue
        a = np.zeros((net.n, len(kept)))
        for col, ei in enumerate(kept):
            u, v, _ = net.edges[ei]
            a[u, col] = 1.0
            a[v, col] = -1.0
        x, *_ = np.linalg.lstsq(a, np.array(net.injections), rcond=None)
        signed = {}
        for pos, ei in enumerate(sol.edge_indices):
            tail, head = sol.oriented_edges[pos]
            u, v, _ = net.edges[ei]
            signed[ei] = sol.flows[pos] if (tail, head) == (u, v) \
                else -sol.flows[pos]
        diff = max(abs(signed[ei] - x[col]) for col, ei in enumerate(kept))
        worst = max(worst, diff)
    ok = worst <= 1e-8
    _line(5, ok, f"200 forests, worst per-edge deviation {worst:.2e}")
    assert ok


def test_criterion_6_scaling_exponent():
    points = complexity_probe([60, 120, 240, 480], seeds=5, k=4)
    exponent = fit_exponent(points)
    ok = exponent <= 2.5
    times = ", ".join(f"n={p[0]}:{p[2] * 1000:.1f}ms" for p in points)
    _line(6, ok, f"exponent {exponent:.3f} ({times})")
    assert ok


def test_criterion_7_determinism():
    net = ws_instance(120, seed=7)
    first, _ = solve(net)
    second, _ = solve(net)
    default_a, _ = solve(net)
    default_b, _ = solve(net)
    same_fixed = config_to_json(net, first) == config_to_json(net, second)
    same_default = (config_to_json(net, default_a)
                    == config_to_json(net, default_b))
    ok = same_fixed and same_default
    _line(7, ok, "byte-identical solution JSON across repeated runs")
    assert ok
