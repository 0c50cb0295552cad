"""A host-speed probe: a fixed pure-Python kernel timed between operations.

The benchmark shares a host whose speed for the same interpreted work drifts
by about 15% over minutes (a Dijkstra search's mean time in 20 s windows
spread 14.8%, q3 - q1 over the median, in 30 s windows 13.5%), so runs made
a minute apart differ that much whatever their length.  The worker times
this probe at regular moments of its run, between set-up inputs and between
operations, never inside a call into the program.  :func:`factor` turns the
samples into the host's slowness relative to a fixed reference, and
``run.py`` divides every timing by it, so the timings read as seconds at the
reference speed.

The kernel imports nothing from the program, so a change to the program
cannot change the probe.  It does what the program does most: dict and list
look-ups, a heap and float arithmetic, in Dijkstra searches on two fixed
sparse graphs.  A small graph that fits in the caches tracks the growth loop
on meshes; a large one, whose look-ups miss the caches, tracks the work on
20,000-bus documents, which slows differently when the host is busy.  A
step searches each once, for about the same time.  The collector is off
while the probe runs, so its time does not depend on how many objects the
program keeps alive.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import time

#: A probe takes steps for this share of the time since the previous probe
#: ended, so that the probes take the same share of every part of a run, and
#: it runs once at least this much time has passed.
PROBE_SHARE = 0.1
PROBE_EVERY_S = 0.1
#: Time of one step at the reference speed: 1.98 ms, the median of the mean
#: step time in 598 quarter-second windows of steps run back to back for
#: 150 s on a 2-core x86 virtual machine with CPython 3.11.7, rounded.
REFERENCE_STEP_S = 2.0e-3
#: The probe's two graphs, small (fits in the caches) and large (does not),
#: each with its node count and the nodes a search settles; edges drawn per
#: node; and the graphs' fixed seed.
SMALL_GRAPH = (300, 300)
LARGE_GRAPH = (20000, 140)
GRAPH_DEGREE = 3
GRAPH_SEED = 20240229


def probe_graph(nodes: int) -> dict[int, list[tuple[int, float]]]:
    """A fixed connected sparse graph with float edge weights."""
    rng = random.Random(GRAPH_SEED)
    adj: dict[int, list[tuple[int, float]]] = {v: [] for v in range(nodes)}
    for v in range(nodes):
        for w in [(v + 1) % nodes] + [rng.randrange(nodes) for _ in range(GRAPH_DEGREE - 1)]:
            c = rng.uniform(0.1, 1.0)
            adj[v].append((w, c))
            adj[w].append((v, c))
    return adj


def search(adj: dict[int, list[tuple[int, float]]], source: int, limit: int) -> float:
    """Dijkstra from ``source`` until ``limit`` nodes are settled; returns
    the sum of the distances found."""
    dist = {source: 0.0}
    done: set[int] = set()
    heap = [(0.0, source)]
    while heap and len(done) < limit:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for w, c in adj[v]:
            nd = d + c * c
            if nd < dist.get(w, float("inf")):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return sum(dist.values())


class HostProbe:
    """Probe samples of one worker process: (seconds, steps) per probe."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, int]] = []
        self._graphs = [(probe_graph(nodes), nodes, limit)
                        for nodes, limit in (SMALL_GRAPH, LARGE_GRAPH)]
        self._last = time.perf_counter()

    def step(self, index: int) -> None:
        """One search in each graph, from sources that move with ``index``."""
        for adj, nodes, limit in self._graphs:
            search(adj, index * 7919 % nodes, limit)

    def probe(self, seconds: float) -> None:
        """Take steps for ``seconds``, at least one, with the collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = now = time.perf_counter()
            steps = 0
            while steps == 0 or now - start < seconds:
                self.step(steps)
                steps += 1
                now = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((now - start, steps))
        self._last = now

    def maybe(self) -> None:
        """Probe if ``PROBE_EVERY_S`` has passed since the last probe ended."""
        elapsed = time.perf_counter() - self._last
        if elapsed >= PROBE_EVERY_S:
            self.probe(PROBE_SHARE * elapsed)


def factor(samples: list[tuple[float, int]]) -> float:
    """The host's slowness over the run: mean step time over the reference.

    Weighted by probe length, so that like a timed call it averages the
    host's speed over time.
    """
    return (math.fsum(s for s, _ in samples) / sum(n for _, n in samples)
            / REFERENCE_STEP_S)
