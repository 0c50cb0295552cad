"""The process that makes the timed calls into the program.

Run by ``run.py``; prints one JSON payload on stdout.  It builds the
workload's input documents with the program (the timed set-up), then runs
whole rounds of operations, each input once per round, until the next round
would end past ``--seconds``.  One operation is the path ``radialflow solve``
takes: ``load_network`` -> ``solve`` -> ``config_to_json`` ->
``validate_radial``.

With ``--trace 1`` the first round runs untraced; timing wrappers are then
installed on the names the engine calls through (see ``spans.py``) and the
remaining rounds are traced.  Without it no wrapper is ever installed.

Between set-up inputs and between operations, at least
``hostspeed.PROBE_EVERY_S`` apart, the worker times the host-speed probe
(``hostspeed.py``); the samples go into the payload, and ``run.py`` scales
set-up times by the samples taken during set-up and every other timing by
the rest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import radialflow  # noqa: E402
from radialflow import (GenSpec, build_network, config_to_json, generate,  # noqa: E402
                        load_network, serialize_network, solve, validate_radial)

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

#: Set-ups per run, and the time after which no more are started; set-up
#: time is their median.
SETUP_REPEATS = (3, 15)
SETUP_SECONDS = 3.0


def direct(name, fn, *args):
    return fn(*args)


def set_up(items: list[inputs.Item], call,
           probe: hostspeed.HostProbe) -> tuple[list[str], float]:
    """Build every input with the program; return the documents and the time.

    The probe runs between inputs, outside the time.
    """
    seconds = 0.0
    docs = []
    for item in items:
        start = time.perf_counter()
        if item.kind == "generate":
            net = call("generator.generate", generate, GenSpec(**item.args))
        else:
            net = call("network_model.build_network", build_network, *item.args)
        docs.append(call("network_model.serialize_network", serialize_network, net))
        seconds += time.perf_counter() - start
        probe.maybe()
    return docs, seconds


def operate(doc: str, call) -> dict:
    """One load -> solve -> serialise -> validate pass over a document."""
    try:
        t0 = time.perf_counter()
        net = call("network_model.load_network", load_network, doc)
        t1 = time.perf_counter()
        cfg, report = call("forward_engine.solve", solve, net)
        t2 = time.perf_counter()
        text = call("network_model.config_to_json", config_to_json, net, cfg)
        t3 = time.perf_counter()
        valid = call("network_model.validate_radial", validate_radial, net, cfg)
        t4 = time.perf_counter()
    except Exception as exc:  # any exception fails the operation, and the run goes on
        return {"error": f"{type(exc).__name__}: {exc}"}
    rec = {"pipeline_s": t4 - t0, "solve_s": t2 - t1, "validated": valid.passed, "text": text,
           "report": {"iterations": report.iterations, "splits": report.splits,
                      "merges": report.merges, "flipped_edges": report.flipped_edges,
                      "presampled": report.presampled, "partitions": report.partitions}}
    if not valid.passed:
        rec["validation"] = "; ".join(valid.messages[:3])
    return rec


def run_round(docs: list[str], call, round_no: int, ops: list, outputs: dict,
              probe: hostspeed.HostProbe, tracer: spans.Tracer | None = None) -> float:
    start = time.perf_counter()
    for index, doc in enumerate(docs):
        if tracer is not None:
            tracer.begin_op(len(ops))
        rec = operate(doc, call)
        text = rec.pop("text", None)
        if text is not None:
            key = f"{index}:{hashlib.sha1(text.encode()).hexdigest()}"
            outputs.setdefault(key, text)
            rec["output"] = key
        rec.update(item=index, round=round_no, traced=tracer is not None)
        ops.append(rec)
        probe.maybe()
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args()
    if not Path(radialflow.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"radialflow was imported from {radialflow.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    items = inputs.plan(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    setup_call = tracer.call if tracer else direct
    probe = hostspeed.HostProbe()
    setup_times: list[float] = []
    while len(setup_times) < SETUP_REPEATS[0] or (
            len(setup_times) < SETUP_REPEATS[1] and sum(setup_times) < SETUP_SECONDS):
        docs, seconds = set_up(items, setup_call, probe)
        setup_times.append(seconds)
    setup_probes = len(probe.samples)

    operate(docs[min(range(len(items)), key=lambda i: items[i].n)], direct)  # warm-up
    ops: list[dict] = []
    outputs: dict[str, str] = {}
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        if tracer and rounds:
            with tracer.installed():
                rounds.append(run_round(docs, tracer.call, len(rounds), ops, outputs, probe,
                                         tracer))
        else:
            rounds.append(run_round(docs, direct, len(rounds), ops, outputs, probe))
        # A traced run needs its untraced round and at least one traced one.
        if len(rounds) >= (2 if tracer else 1) and (
                time.perf_counter() - start + statistics.fmean(rounds) > args.seconds):
            break

    payload = {
        "items": [{"n": it.n, "largest": it.largest} for it in items],
        "docs": docs,
        "ops": ops,
        "outputs": outputs,
        "rounds": rounds,
        "setup_s": setup_times,
        "probe_s": probe.samples,
        "setup_probes": setup_probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        payload["layers"] = tracer.layers(items, ops, len(setup_times))
        if args.spans:
            tracer.dump(args.spans)
    json.dump(payload, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
