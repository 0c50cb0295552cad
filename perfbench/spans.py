"""Spans around the calls into each layer, taken from outside the program.

:meth:`Tracer.installed` replaces, for its duration, the names that
``radialflow.forward_engine`` calls its stages through with wrappers that
record a span: name, start, end, the calling thread's CPU time inside it,
parent span, thread, the operation it belongs to, and a few counts read off
the arguments or the result.  The benchmark's own calls into
``network_model`` and ``generator`` go through :meth:`Tracer.call`.  Spans
stay in memory; :meth:`Tracer.dump` writes them.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict

import radialflow.forward_engine as engine

#: Engine names to wrap, each with the counts its span records.
ENGINE_NAMES = {
    "preprocess": None,
    "islander": None,
    "run_partition": None,
    "net_concad": lambda args, result: {"nodes": len(args[0].nodes)},
    "source_cut_vertices": None,
    "sample": lambda args, result: {"pool": len(args[4]), "candidates": len(result.ranked)},
    "split_at_cut": None,
    "solve_forest": None,
}
#: Spans inside the growth loop; the rest of the loop is its self time.
LOOP_CHILDREN = ("condenser.net_concad", "condenser.source_cut_vertices",
                 "sampler.sample", "forward_engine.split_at_cut")
#: Spans of solve's stages; the rest of solve is its self time.
SOLVE_STAGES = ("preprocessor.preprocess", "islander.islander",
                "forward_engine.run_partition", "tree_flow.solve_forest")
REPORT_COUNTS = {"forward_engine.iterations": "iterations", "forward_engine.splits": "splits",
                 "forward_engine.merges": "merges",
                 "forward_engine.flipped_edges": "flipped_edges",
                 "preprocessor.presampled_edges": "presampled",
                 "islander.partitions": "partitions"}


class Tracer:
    """Spans of one worker process, from every thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin_op(self, op: int) -> None:
        self.op = op

    def call(self, name, fn, *args, count=None, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack()
        # A pool thread starts with an empty stack: its caller is the span the
        # main thread is waiting in.
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        sid = next(self._ids)
        stack.append(sid)
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            stack.pop()
        counts = count(args, result) if count else None
        self.spans.append((sid, name, start, end, cpu, parent, threading.get_ident(), self.op,
                           counts))
        return result

    @contextlib.contextmanager
    def installed(self):
        """Wrap the engine's stage names while the block runs."""
        saved = {name: getattr(engine, name) for name in ENGINE_NAMES}

        def wrapper(fn, count):
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            return lambda *args, **kwargs: self.call(name, fn, *args, count=count, **kwargs)

        for name, count in ENGINE_NAMES.items():
            setattr(engine, name, wrapper(saved[name], count))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(engine, name, fn)

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "cpu", "parent", "thread",
                                  "op", "counts"], "spans": self.spans}, fh)

    def layers(self, items, ops: list[dict], setups: int) -> dict[str, float]:
        """Per-layer metrics: seconds and counts per traced operation.

        A layer's seconds are the CPU time its calling threads spent inside
        it, so the time a partition thread waits for the other one under the
        interpreter lock is not charged to the layer it waits in; that wait
        is ``forward_engine.partition_wait_s``.  The loop and solve figures
        are wall time.  Set-up layers are per set-up.  ``solve.time_exponent``
        and ``trace.overhead_s`` compare with the untraced first round.
        """
        by_op: dict[int | None, list[tuple]] = {}
        for span in self.spans:
            by_op.setdefault(span[7], []).append(span)
        traced = [i for i, op in enumerate(ops) if op["traced"] and "solve_s" in op]
        plain = [i for i, op in enumerate(ops) if not op["traced"] and "solve_s" in op]
        totals: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            totals[key] = totals.get(key, 0.0) + value

        for i in traced:
            spans = by_op.get(i, [])
            named: dict[str, list[tuple]] = {}
            for span in spans:
                named.setdefault(span[1], []).append(span)
                add(span[1] + "_s", span[4])
                for key, value in (span[8] or {}).items():
                    add(f"{span[1]}:{key}", value)
                add(span[1] + ":calls", 1)
            (solve_span,) = named["forward_engine.solve"]
            before = named.get("islander.islander") or named["preprocessor.preprocess"]
            loop = (before[0][3], named["tree_flow.solve_forest"][0][2])
            add("loop", loop[1] - loop[0])
            add("loop_self", loop[1] - loop[0] - _covered(
                [s for name in LOOP_CHILDREN for s in named.get(name, [])], loop))
            parts = sum(s[3] - s[2] for s in named.get("forward_engine.run_partition", []))
            add("wait", max(0.0, parts - (loop[1] - loop[0])))
            add("solve_self", solve_span[3] - solve_span[2] - _covered(
                [s for name in SOLVE_STAGES for s in named.get(name, [])],
                (solve_span[2], solve_span[3])))
            for key, field in REPORT_COUNTS.items():
                add(key, ops[i]["report"][field])

        count = max(len(traced), 1)
        per_op = defaultdict(float, {key: value / count for key, value in totals.items()})
        setup: defaultdict[str, float] = defaultdict(float)
        for span in by_op.get(None, []):
            setup[span[1]] += span[4] / setups

        def mean_pipeline(indices: list[int]) -> float:
            return statistics.fmean(ops[i]["pipeline_s"] for i in indices)

        scanned = per_op["sampler.sample:pool"]
        out = {name: per_op[name] for name in (
            "network_model.load_network_s", "network_model.config_to_json_s",
            "network_model.validate_radial_s", "preprocessor.preprocess_s",
            "islander.islander_s", "forward_engine.split_at_cut_s", "condenser.net_concad_s",
            "condenser.source_cut_vertices_s", "sampler.sample_s", "tree_flow.solve_forest_s",
            *REPORT_COUNTS)}
        out.update({
            "network_model.build_network_s": setup["network_model.build_network"],
            "network_model.serialize_network_s": setup["network_model.serialize_network"],
            "generator.generate_s": setup["generator.generate"],
            "forward_engine.loop_s": per_op["loop"],
            "forward_engine.loop_self_s": per_op["loop_self"],
            "forward_engine.partition_wait_s": per_op["wait"],
            "forward_engine.solve_self_s": per_op["solve_self"],
            "condenser.net_concad_calls": per_op["condenser.net_concad:calls"],
            "condenser.nodes_condensed": per_op["condenser.net_concad:nodes"],
            "sampler.pool_edges_scanned": scanned,
            "sampler.candidates_scored": per_op["sampler.sample:candidates"],
            "sampler.scan_yield": per_op["forward_engine.iterations"] / scanned if scanned else 0.0,
            "solve.time_exponent": time_exponent(
                [(items[ops[i]["item"]].n, ops[i]["solve_s"]) for i in plain]),
            "trace.overhead_s": mean_pipeline(traced) - mean_pipeline(plain),
        })
        return out


def _covered(spans: list[tuple], window: tuple[float, float]) -> float:
    """Length of the part of ``window`` that the spans' union covers."""
    total = 0.0
    reach = window[0]
    for _, _, start, end, *_ in sorted(spans, key=lambda s: s[2]):
        start, end = max(start, reach), min(end, window[1])
        if end > start:
            total += end - start
            reach = end
    return total


def time_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(median solve time) against log(n)."""
    by_n: dict[int, list[float]] = {}
    for n, seconds in points:
        by_n.setdefault(n, []).append(seconds)
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(ts)) for ts in by_n.values()]
    return statistics.linear_regression(xs, ys).slope
