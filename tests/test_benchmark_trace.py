"""The benchmark's names and fields of the program must keep working.

``perfbench/spans.py`` replaces functions of ``radialflow.forward_engine`` by
name and reads a few of their arguments, and ``perfbench/worker.py`` reads
fields of the solve report.  This loads both as they are, traces a solve
that grows and splits, and runs one benchmark operation.
"""

import importlib.util
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from radialflow import serialize_network, solve, validate_radial

from conftest import random_tree_network
from test_forward_engine import ring_with_chord

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """The benchmark module ``name``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_records_every_growth_loop_layer():
    spans = load("spans")
    tracer = spans.Tracer()
    net = ring_with_chord(chord_cost=0.5)
    # a count that raised would have ended the solve
    with tracer.installed():
        cfg, report = solve(net)
    assert report.splits == 1
    assert validate_radial(net, cfg).passed
    named = Counter(span[1] for span in tracer.spans)
    assert set(spans.LOOP_CHILDREN) == {
        "condenser.net_concad", "condenser.source_cut_vertices",
        "sampler.sample", "forward_engine.split_at_cut"}
    assert all(named[name] > 0 for name in spans.LOOP_CHILDREN), named
    counts = [span[8] for span in tracer.spans if span[8] is not None]
    assert {"nodes": net.n} in counts
    assert any(c.keys() == {"pool", "candidates"} and c["candidates"] > 0
               for c in counts)


def test_worker_operation_reads_the_report(monkeypatch):
    # the worker imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = load("worker")
    rec = worker.operate(serialize_network(ring_with_chord()), worker.direct)
    assert "error" not in rec, rec["error"]
    assert rec["validated"]
    assert rec["report"]["partitions"] == 1


def test_fully_peeled_operation_traces_each_stage_once(monkeypatch):
    # peeling settles every edge of a tree, and the forest solve still runs,
    # so the spans that bound the loop are there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = load("worker")
    tracer = worker.spans.Tracer()
    net = random_tree_network(random.Random(8), 40)
    doc = serialize_network(net)
    ops = [dict(worker.operate(doc, worker.direct), item=0, traced=False)]
    tracer.begin_op(len(ops))
    with tracer.installed():
        ops.append(dict(worker.operate(doc, tracer.call), item=0, traced=True))
    assert all(op["validated"] and op["report"]["partitions"] == 0 for op in ops)
    named = Counter(span[1] for span in tracer.spans)
    assert named["preprocessor.preprocess"] == 1
    assert named["tree_flow.solve_forest"] == 1
    layers = tracer.layers([SimpleNamespace(n=net.n)], ops, 1)
    assert layers["preprocessor.presampled_edges"] == net.m
    assert layers["forward_engine.iterations"] == 0
