"""The benchmark's names and fields of the program must keep working.

``perfbench/spans.py`` replaces functions of ``radialflow.forward_engine`` by
name and reads a few of their arguments, and ``perfbench/worker.py`` reads
fields of the solve report.  This loads both as they are, traces a solve
that grows and splits, and runs one benchmark operation.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from radialflow import serialize_network, solve, validate_radial

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
