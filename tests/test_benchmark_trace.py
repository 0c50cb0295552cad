"""The benchmark's traced run wraps engine names; they must keep working.

``perfbench/spans.py`` replaces functions of ``radialflow.forward_engine`` by
name and reads a few of their arguments.  This loads it as it is and traces a
solve that grows and splits.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from radialflow import solve, validate_radial

from test_forward_engine import ring_with_chord

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_records_every_growth_loop_layer():
    spans = load_spans()
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
