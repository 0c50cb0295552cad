"""Benchmark of radialflow: solve speed and solution cost.

    python3 perfbench/run.py --workload mesh_ws --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22

Each workload runs in a separate worker process (``worker.py``) that builds
the inputs with the program and makes every timed call.  This process then
checks every output against independent references (``reference.py``) and
prints one line per metric followed by a JSON result as the last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Every timing is divided by the host-speed factor (``hostspeed.py``) of the
phase it was taken in, set-up or operations, so it reads as seconds at the
reference speed.  See README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mesh_ws", "feeder_ties", "radial_json", "small_exact")
END_TO_END = {"solve_s_p50": "s", "pipeline_s_p50": "s", "nodes_per_s": "nodes/s",
              "cost_ratio_lb": "ratio", "gap_to_optimum": "ratio", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "network_model.load_network_s": "s", "network_model.config_to_json_s": "s",
    "network_model.validate_radial_s": "s", "network_model.build_network_s": "s",
    "network_model.serialize_network_s": "s", "generator.generate_s": "s",
    "preprocessor.preprocess_s": "s", "preprocessor.presampled_edges": "count",
    "islander.islander_s": "s", "islander.partitions": "count",
    "forward_engine.loop_s": "s", "forward_engine.loop_self_s": "s",
    "forward_engine.split_at_cut_s": "s", "forward_engine.iterations": "count",
    "forward_engine.splits": "count", "forward_engine.merges": "count",
    "forward_engine.flipped_edges": "count", "forward_engine.partition_wait_s": "s",
    "forward_engine.solve_self_s": "s", "condenser.net_concad_s": "s",
    "condenser.net_concad_calls": "count", "condenser.nodes_condensed": "count",
    "condenser.source_cut_vertices_s": "s", "sampler.sample_s": "s",
    "sampler.pool_edges_scanned": "count", "sampler.candidates_scored": "count",
    "sampler.scan_yield": "ratio", "tree_flow.solve_forest_s": "s",
    "solve.time_exponent": "slope", "trace.overhead_s": "s",
}
#: Per-layer metrics of the set-up phase, scaled by the set-up host-speed factor.
SETUP_LAYERS = ("network_model.build_network_s", "network_model.serialize_network_s",
                "generator.generate_s")
#: The worker's share of the 180 s a run may take.
WORKER_TIMEOUT_S = 150


def geometric_mean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run_worker(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        command += ["--spans", str(results / f"spans-{workload}-{seed}.json.gz")]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def evaluate(workload: str, payload: dict, trace: int) -> tuple[dict, dict]:
    """Check every output, count failures and compute the metrics."""
    items, ops = payload["items"], payload["ops"]
    nets = [reference.parse_network(doc) for doc in payload["docs"]]
    bounds = [reference.lower_bound(net) for net in nets]
    trees = [reference.tree_flow_cost(net) if net.is_tree() else None for net in nets]
    exact = [reference.exact_optimum(net) if workload == "small_exact" else None
             for net in nets]
    verdicts = {}
    for key, text in payload["outputs"].items():
        i = int(key.split(":")[0])
        verdicts[key] = reference.check(nets[i], text, bound=bounds[i], tree_cost=trees[i],
                                        optimum=exact[i])

    raised = [op for op in ops if "error" in op]
    wrong = [op for op in ops if "output" in op and verdicts[op["output"]][1]]
    rejected = [op for op in ops if "output" in op and not verdicts[op["output"]][1]
                and not op["validated"]]
    for op in raised[:3]:
        print(f"  item {op['item']}: solve raised {op['error']}", file=sys.stderr)
    for op in wrong[:3]:
        print(f"  item {op['item']}: wrong output: {verdicts[op['output']][1][:3]}",
              file=sys.stderr)
    for op in rejected[:1]:
        print(f"  item {op['item']}: validate_radial rejected a correct output: "
              f"{op['validation']}", file=sys.stderr)

    result = {"correct": not wrong, "attempted": len(ops),
              "failed": len(raised) + len(wrong) + len(rejected)}
    probes, split = payload["probe_s"], payload["setup_probes"]
    host = hostspeed.factor(probes[split:])
    setup_host = hostspeed.factor(probes[:split])
    breakdown = {"rounds": len(payload["rounds"]), "solve_raised": len(raised),
                 "check_rejected": len(wrong), "validate_radial_rejected": len(rejected),
                 "host": host, "setup_host": setup_host, "probes": len(probes)}
    if trace:
        return result | {"metrics": {
            name: value / (setup_host if name in SETUP_LAYERS else host)
            if PER_LAYER[name] == "s" else value
            for name, value in payload["layers"].items()}}, breakdown

    # One sample per network: its mean over the run's rounds, which evens out
    # the host's speed swings within the run.
    timed = [op for op in ops if "solve_s" in op]
    per_item: dict[int, list[dict]] = {}
    for op in timed:
        per_item.setdefault(op["item"], []).append(op)
    largest = [group for i, group in per_item.items() if items[i]["largest"]]
    solve_samples = [statistics.fmean(op["solve_s"] for op in group) / host
                     for group in largest]
    pipeline_samples = [statistics.fmean(op["pipeline_s"] for op in group) / host
                        for group in largest]
    good = [op for op in ops if "output" in op and not verdicts[op["output"]][1]]
    costs = [(verdicts[op["output"]][0], op["item"]) for op in good]
    optima = [exact[i] if exact[i] is not None else trees[i] if trees[i] is not None
              else bounds[i] for i in range(len(nets))]
    metrics = {
        "solve_s_p50": statistics.median(solve_samples),
        "pipeline_s_p50": statistics.median(pipeline_samples),
        "nodes_per_s": (sum(items[op["item"]]["n"] for op in timed)
                        / sum(op["solve_s"] for op in timed) * host),
        "cost_ratio_lb": geometric_mean([cost / bounds[i] for cost, i in costs]),
        "gap_to_optimum": geometric_mean([cost / optima[i] for cost, i in costs]),
        "setup_s": statistics.median(payload["setup_s"]) / setup_host,
        "peak_rss_mb": payload["peak_rss_mb"],
    }
    return result | {"metrics": metrics}, breakdown


def report(workload: str, seed: int, result: dict, breakdown: dict, units: dict) -> None:
    print(f"{workload} (seed {seed}): {breakdown['rounds']} round(s), "
          f"attempted {result['attempted']}, failed {result['failed']} "
          f"(solve raised {breakdown['solve_raised']}, benchmark check rejected "
          f"{breakdown['check_rejected']}, validate_radial rejected "
          f"{breakdown['validate_radial_rejected']}), correct {result['correct']}")
    print(f"  host-speed factor {breakdown['host']:.4f} in operations and "
          f"{breakdown['setup_host']:.4f} in set-up, over {breakdown['probes']} probes; "
          f"timings are raw seconds divided by it")
    for name, unit in units.items():
        print(f"  {name:38s} {result['metrics'][name]:14.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "radialflow" / "__init__.py").is_file():
        print(f"no radialflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        start = time.perf_counter()
        payload = run_worker(workload, args.seed, args.seconds, args.trace)
        result, breakdown = evaluate(workload, payload, args.trace)
        units = PER_LAYER if args.trace else END_TO_END
        report(workload, args.seed, result, breakdown, units)
        result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                             for name, unit in units.items()}
        print(f"  ({time.perf_counter() - start:.1f} s)", file=sys.stderr)
        results[workload] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
