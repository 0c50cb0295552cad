"""Network data model, JSON serialization, and configuration validation.

A distribution network is an undirected, connected graph with one signed
injection per node (positive = supply, negative = demand) and one non-negative
quadratic cost coefficient per edge.  Injections must balance to zero within a
relative tolerance.  A radial configuration is a directed edge subset whose
undirected skeleton is a forest, together with its per-edge flows.

Node ids are contiguous integers assigned in sorted-name order at load time;
external files always refer to nodes by their string names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Any, Iterable, Mapping, Sequence

from .exceptions import DimensionMismatch, ParseError, ValidationError

NodeId = int

#: Relative tolerance for injection balance checks, scaled by total |p|.
BALANCE_RTOL = 1e-9
#: Floor of the per-node flow conservation tolerance.
FLOW_ATOL = 1e-8
#: Per-node flow conservation tolerance as a share of total |p|.
FLOW_RTOL = 1e-10
#: Relative tolerance between a declared cost and the recomputed one.
COST_RTOL = 1e-9


def balance_tolerance(values: Iterable[float]) -> float:
    """Absolute balance tolerance for a collection of injections."""
    return BALANCE_RTOL * max(1.0, math.fsum(abs(v) for v in values))


def find(parent: list[int], x: int) -> int:
    """Root of ``x`` in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class ExactSum:
    """A running float sum that never rounds.

    ``value`` always equals ``math.fsum`` of every term added so far, in any
    order; subtracting is adding the negated term.  The terms are kept as a
    list whose exact sum is the total.  Once it holds more than 16 terms, or
    updates have doubled it since, it is compacted into Shewchuk partials,
    non-overlapping floats with the same exact sum (Shewchuk 1997, the
    algorithm inside ``math.fsum``).  So an update costs one ``fsum`` over a
    list at most about twice as long as the last compacted one, however many
    terms the sum started with.
    """

    __slots__ = ("terms", "value", "_limit")

    def __init__(self, terms: Iterable[float] = ()) -> None:
        self.terms = list(terms)
        self._limit = 16
        self._settle()

    def add(self, terms: Iterable[float]) -> float:
        """Add ``terms``; return the new value."""
        self.terms.extend(terms)
        return self._settle()

    def _settle(self) -> float:
        if len(self.terms) > self._limit:
            self.terms = _partials(self.terms)
            self._limit = 2 * len(self.terms) + 16
        self.value = math.fsum(self.terms)
        return self.value


def _partials(terms: list[float]) -> list[float]:
    """Shewchuk partials: non-overlapping floats with the exact sum of ``terms``."""
    partials: list[float] = []
    for x in terms:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
    # the terms are finite, and every later term passes an overflowed partial
    if partials and not math.isfinite(partials[-1]):
        raise OverflowError("intermediate overflow in fsum")
    return partials


def connected(n: int, edges: Iterable[Sequence[int]]) -> bool:
    """Whether edges ``(u, v, ...)`` join nodes ``0..n-1`` into one component."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        adj[e[0]].append(e[1])
        adj[e[1]].append(e[0])
    seen = [False] * n
    seen[0] = True
    count = 1
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n


@dataclass(frozen=True)
class DistributionNetwork:
    """Immutable network: node names, normalized edges, and injections.

    Attributes:
        names: Node names indexed by node id.
        edges: Tuples ``(u, v, cost)`` with ``u < v``.
        injections: Per-node signed injection, indexed by node id.
        metadata: Optional free-form mapping preserved through serialization.
    """

    names: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]
    injections: tuple[float, ...]
    metadata: dict | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.edges)

    def name_to_id(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown node {name!r}") from None

    @property
    def source_set(self) -> frozenset[int]:
        """Nodes with strictly positive injection."""
        return frozenset(i for i, p in enumerate(self.injections) if p > 0)

    def edge_index_map(self) -> dict[tuple[int, int], int]:
        return {(u, v): idx for idx, (u, v, _) in enumerate(self.edges)}


@dataclass(frozen=True)
class GraphView:
    """A subgraph of a network: node subset plus a subset of its edges.

    Node and edge ids always refer to the parent network, so views produced by
    different stages of the pipeline compose without re-mapping.
    """

    net: DistributionNetwork
    nodes: tuple[int, ...]
    edge_indices: tuple[int, ...]

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.nodes}
        for idx in self.edge_indices:
            u, v, _ = self.net.edges[idx]
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        return adj


def full_view(net: DistributionNetwork) -> GraphView:
    """The whole network as a view over itself."""
    return GraphView(net, tuple(range(net.n)), tuple(range(net.m)))


@dataclass(frozen=True)
class RadialConfiguration:
    """A directed forest with per-edge flows and its quadratic cost."""

    directed_edges: tuple[tuple[int, int], ...]
    flows: tuple[float, ...]
    total_cost: float


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def build_network(names: Sequence[str], edges: Sequence[tuple[int, int, float]],
                  injections: Sequence[float],
                  metadata: dict | None = None) -> DistributionNetwork:
    """Validate raw network data and build a :class:`DistributionNetwork`.

    Args:
        names: Node names; ids are assigned by position.
        edges: ``(u, v, cost)`` triples over node ids, any endpoint order.
        injections: Signed injection per node id.
        metadata: Optional mapping carried through serialization.

    Raises:
        ValidationError: On duplicate names or edges, self-loops, negative or
            non-finite coefficients, injection imbalance, or a disconnected
            graph.
    """
    n = len(names)
    if n == 0:
        raise ValidationError("empty network: at least one node is required")
    if len(set(names)) != n:
        raise ValidationError("duplicate node name")
    if len(injections) != n:
        raise ValidationError("injection vector length does not match node count")
    for name, p in zip(names, injections):
        if not math.isfinite(p):
            raise ValidationError(f"non-finite injection at node {name!r}")

    normalized: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for u, v, c in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u}, {v}) references an unknown node id")
        if u == v:
            raise ValidationError(f"self-loop at node {names[u]!r}")
        if not math.isfinite(c) or c < 0:
            raise ValidationError(
                f"negative or non-finite cost coefficient on edge "
                f"({names[u]!r}, {names[v]!r})")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValidationError(
                f"duplicate edge ({names[key[0]]!r}, {names[key[1]]!r})")
        seen.add(key)
        normalized.append((key[0], key[1], float(c)))

    try:
        total, tol = math.fsum(injections), balance_tolerance(injections)
    except OverflowError:
        raise ValidationError("injections overflow: their sum exceeds the "
                              "float range") from None
    if abs(total) > tol:
        raise ValidationError(f"injection imbalance: sum(p) = {total!r}")

    if not connected(n, normalized):
        raise ValidationError("disconnected network")
    return DistributionNetwork(tuple(names), tuple(normalized),
                               tuple(float(p) for p in injections), metadata)


def load_network(source: str | bytes | IO) -> DistributionNetwork:
    """Parse and validate a network from JSON text, bytes, or a file object.

    The expected document shape is::

        {"nodes": [{"name": "a", "p": 2.0}, ...],
         "edges": [{"u": "a", "v": "b", "c": 1.0}, ...]}

    An optional top-level ``"meta"`` object is preserved as metadata.

    Raises:
        ParseError: If the document is not valid JSON or has the wrong shape.
        ValidationError: If the network violates a model invariant.
    """
    doc = _read_json(source, "network")
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("nodes", "edges"):
        if key not in doc or not isinstance(doc[key], list):
            raise ParseError(f"missing or non-list {key!r} entry")

    names: list[str] = []
    raw_p: dict[str, float] = {}
    for item in doc["nodes"]:
        if not isinstance(item, dict) or "name" not in item or "p" not in item:
            raise ParseError(f"node entry must have 'name' and 'p': {item!r}")
        name, p = item["name"], item["p"]
        if not isinstance(name, str):
            raise ParseError(f"node name must be a string: {name!r}")
        p = _number(p, "injection must be a number at node %r", name)
        if name in raw_p:
            raise ValidationError(f"duplicate node name {name!r}")
        names.append(name)
        raw_p[name] = p

    names.sort()
    ids = {name: i for i, name in enumerate(names)}

    edges: list[tuple[int, int, float]] = []
    for item in doc["edges"]:
        if not isinstance(item, dict) or not {"u", "v", "c"} <= set(item):
            raise ParseError(f"edge entry must have 'u', 'v' and 'c': {item!r}")
        u, v, c = item["u"], item["v"], item["c"]
        if not isinstance(u, str) or not isinstance(v, str):
            raise ParseError(f"edge endpoints must be node names: {item!r}")
        c = _number(c, "cost coefficient must be a number: %r", item)
        if u not in ids or v not in ids:
            missing = u if u not in ids else v
            raise ValidationError(f"unknown node {missing!r} in edge list")
        edges.append((ids[u], ids[v], c))

    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ParseError("'meta' entry must be an object")
    return build_network(names, edges, [raw_p[name] for name in names], meta)


def _read_json(source: str | bytes | IO, what: str) -> Any:
    """The JSON document in text, bytes or a file object."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} file is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _number(value: Any, message: str, arg: Any) -> float:
    """``value`` as a float; raises :class:`ParseError` with ``message % arg``
    for a bool, a non-number or an integer beyond float range.  The message
    is formatted only then: this runs for every node and edge of a file."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(message % (arg,))
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError(f"{message % (arg,)}: {exc}") from exc


def serialize_network(net: DistributionNetwork) -> str:
    """Canonical JSON for a network: nodes sorted by name, edges by name pair.

    Loading the serialized text yields a network equal to the input, and
    serializing again reproduces the text byte for byte.
    """
    order = sorted(range(net.n), key=lambda i: net.names[i])
    nodes = [{"name": net.names[i], "p": net.injections[i]} for i in order]

    def edge_key(e: tuple[int, int, float]) -> tuple[str, str]:
        a, b = net.names[e[0]], net.names[e[1]]
        return (a, b) if a <= b else (b, a)

    edges = []
    for u, v, c in sorted(net.edges, key=edge_key):
        a, b = edge_key((u, v, c))
        edges.append({"u": a, "v": b, "c": c})
    doc: dict = {"nodes": nodes, "edges": edges}
    if net.metadata is not None:
        doc["meta"] = net.metadata
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Radial configurations
# ---------------------------------------------------------------------------

def incidence_apply(cfg: RadialConfiguration, x: Sequence[float],
                    n_nodes: int | None = None) -> list[float]:
    """Apply the oriented incidence matrix of ``cfg`` to a flow vector.

    Entry ``i`` of the result is the net outflow of node ``i``: each edge
    ``(tail, head)`` contributes ``+x`` at its tail and ``-x`` at its head.
    For a conservative flow the result equals the injection vector.

    Raises:
        DimensionMismatch: If ``x`` has a different length than the edge list.
    """
    if len(x) != len(cfg.directed_edges):
        raise DimensionMismatch(
            f"flow vector has {len(x)} entries for {len(cfg.directed_edges)} edges")
    if n_nodes is None:
        n_nodes = max((max(t, h) for t, h in cfg.directed_edges), default=-1) + 1
    out = [0.0] * n_nodes
    for (tail, head), flow in zip(cfg.directed_edges, x):
        out[tail] += flow
        out[head] -= flow
    return out


def config_to_json(net: DistributionNetwork, cfg: RadialConfiguration) -> str:
    """Serialize a configuration as ``{"edges": [{u, v, flow}...], "cost": c}``.

    ``u`` is the tail name and ``v`` the head name of each directed edge;
    entries are sorted by (tail id, head id) so output is deterministic.
    """
    order = sorted(range(len(cfg.directed_edges)),
                   key=lambda i: cfg.directed_edges[i])
    edges = [{"u": net.names[cfg.directed_edges[i][0]],
              "v": net.names[cfg.directed_edges[i][1]],
              "flow": cfg.flows[i]} for i in order]
    return json.dumps({"edges": edges, "cost": cfg.total_cost}, indent=2) + "\n"


def config_from_json(net: DistributionNetwork, source: str | bytes | IO) -> RadialConfiguration:
    """Parse a configuration document produced by :func:`config_to_json`.

    Raises:
        ParseError: If the document is not valid JSON or has the wrong shape.
        ValidationError: If an edge names a node the network lacks.
    """
    doc = _read_json(source, "configuration")
    if (not isinstance(doc, dict) or not isinstance(doc.get("edges"), list)
            or "cost" not in doc):
        raise ParseError("configuration document must have 'edges' and 'cost'")
    ids = net.name_to_id()
    directed: list[tuple[int, int]] = []
    flows: list[float] = []
    for item in doc["edges"]:
        if not isinstance(item, dict) or not {"u", "v", "flow"} <= set(item):
            raise ParseError(f"edge entry must have 'u', 'v' and 'flow': {item!r}")
        u, v = item["u"], item["v"]
        if not isinstance(u, str) or not isinstance(v, str):
            raise ParseError(f"edge endpoints must be node names: {item!r}")
        if u not in ids or v not in ids:
            raise ValidationError(f"unknown node in configuration edge: {item!r}")
        directed.append((ids[u], ids[v]))
        flows.append(_number(item["flow"], "flow must be a number: %r", item))
    cost = _number(doc["cost"], "cost must be a number: %r", doc["cost"])
    return RadialConfiguration(tuple(directed), tuple(flows), cost)


# ---------------------------------------------------------------------------
# Validation of radial configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the eight structural, flow and cost checks for a configuration.

    ``zero_flow_edges`` lists positions (into the configuration's edge list)
    that carry exactly zero flow; these are legal but worth surfacing.
    """

    acyclic: bool
    edge_subset: bool
    spanning: bool
    root_source: bool
    kirchhoff: bool
    nonnegative_flows: bool
    finite_flows: bool
    cost_consistent: bool
    max_residual: float
    zero_flow_edges: tuple[int, ...]
    messages: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (self.acyclic and self.edge_subset and self.spanning
                and self.root_source and self.kirchhoff
                and self.nonnegative_flows and self.finite_flows
                and self.cost_consistent)

    def summary(self) -> str:
        checks = [("acyclic", self.acyclic), ("edge-subset", self.edge_subset),
                  ("spanning", self.spanning), ("root-source", self.root_source),
                  ("kirchhoff", self.kirchhoff),
                  ("nonnegative-flows", self.nonnegative_flows),
                  ("finite-flows", self.finite_flows),
                  ("cost", self.cost_consistent)]
        parts = [f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks]
        return ", ".join(parts)


def validate_radial(net: DistributionNetwork, cfg: RadialConfiguration) -> ValidationReport:
    """Check that ``cfg`` is a feasible radial configuration of ``net``.

    The checks: the undirected skeleton is a forest and a subset of the
    network's edges, every node is covered, every in-degree-zero node has a
    non-negative injection, per-node conservation holds within
    ``max(FLOW_ATOL, FLOW_RTOL * sum(|p|))``, all flows are non-negative and
    finite, and the declared ``total_cost`` matches ``sum(C * x**2)`` within
    ``COST_RTOL``.
    """
    messages: list[str] = []
    n = net.n
    cost_of = {(u, v): c for u, v, c in net.edges}

    edge_subset = True
    seen: set[tuple[int, int]] = set()
    acyclic = True
    parent = list(range(n))
    coeffs: list[float] = []
    covered: set[int] = set()
    indeg = [0] * n

    for tail, head in cfg.directed_edges:
        if not (0 <= tail < n and 0 <= head < n):
            edge_subset = False
            coeffs.append(math.nan)
            messages.append(f"edge ({tail}, {head}) references an unknown node")
            continue
        covered.add(tail)
        covered.add(head)
        indeg[head] += 1
        key = (min(tail, head), max(tail, head))
        coeffs.append(cost_of.get(key, math.nan))
        if key not in cost_of:
            edge_subset = False
            messages.append(
                f"edge ({net.names[key[0]]}, {net.names[key[1]]}) is not a network edge")
        if key in seen:
            acyclic = False
            messages.append(
                f"duplicate undirected edge ({net.names[key[0]]}, {net.names[key[1]]})")
            continue
        seen.add(key)
        ru, rv = find(parent, key[0]), find(parent, key[1])
        if ru == rv:
            acyclic = False
            messages.append(
                f"edge ({net.names[key[0]]}, {net.names[key[1]]}) closes a cycle")
        else:
            parent[ru] = rv

    if n == 1:
        spanning = len(cfg.directed_edges) == 0
    else:
        spanning = len(covered) == n
    if not spanning:
        missing = sorted(set(range(n)) - covered)
        messages.append(
            "uncovered nodes: " + ", ".join(net.names[v] for v in missing[:5]))

    root_source = True
    for v in covered:
        if indeg[v] == 0 and net.injections[v] < 0:
            root_source = False
            messages.append(
                f"root {net.names[v]} has negative injection {net.injections[v]!r}")

    try:
        residual = incidence_apply(cfg, cfg.flows, n)
    except DimensionMismatch as exc:
        messages.append(str(exc))
        return ValidationReport(acyclic, edge_subset, spanning, root_source,
                                False, False, False, False, math.inf, (),
                                tuple(messages))
    max_residual = max((abs(r - p) for r, p in zip(residual, net.injections)),
                       default=0.0)
    tol = max(FLOW_ATOL, FLOW_RTOL * math.fsum(abs(p) for p in net.injections))
    kirchhoff = max_residual <= tol
    if not kirchhoff:
        messages.append(f"conservation residual {max_residual:.3e} exceeds {tol:.3e}")

    nonnegative = all(f >= 0 for f in cfg.flows)
    if not nonnegative:
        messages.append("negative flow present")
    finite = all(math.isfinite(f) for f in cfg.flows)
    if not finite:
        messages.append("non-finite flow present")
    cost = math.fsum(c * (x * x) if c else 0.0
                     for c, x in zip(coeffs, cfg.flows))
    cost_consistent = math.isclose(cfg.total_cost, cost, rel_tol=COST_RTOL)
    if not cost_consistent:
        messages.append(
            f"declared cost {cfg.total_cost!r} differs from sum(C x^2) = {cost!r}")
    zero_flow = tuple(i for i, f in enumerate(cfg.flows) if f == 0.0)

    return ValidationReport(acyclic, edge_subset, spanning, root_source,
                            kirchhoff, nonnegative, finite, cost_consistent,
                            max_residual, zero_flow, tuple(messages))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def export_dot(net: DistributionNetwork, cfg: RadialConfiguration | None = None) -> str:
    """Render the network (and optionally a solved configuration) as DOT.

    Configuration edges are drawn directed and labeled ``x=<flow>, C=<coeff>``;
    network edges not used by the configuration are drawn dashed without
    direction.  Source nodes are filled.
    """
    lines = ["digraph radial {"]
    for i, name in enumerate(net.names):
        attrs = [f'label="{name}\\np={net.injections[i]:g}"']
        if net.injections[i] > 0:
            attrs.append('style=filled')
            attrs.append('fillcolor="#9ecae1"')
        lines.append(f'  "{name}" [{", ".join(attrs)}];')
    cost_by_pair = {(u, v): c for u, v, c in net.edges}
    used: set[tuple[int, int]] = set()
    if cfg is not None:
        order = sorted(range(len(cfg.directed_edges)),
                       key=lambda i: cfg.directed_edges[i])
        for i in order:
            tail, head = cfg.directed_edges[i]
            key = (min(tail, head), max(tail, head))
            used.add(key)
            coeff = cost_by_pair.get(key, float("nan"))
            lines.append(
                f'  "{net.names[tail]}" -> "{net.names[head]}" '
                f'[label="x={cfg.flows[i]:g}, C={coeff:g}"];')
    for u, v, c in net.edges:
        if (u, v) in used:
            continue
        lines.append(
            f'  "{net.names[u]}" -> "{net.names[v]}" '
            f'[dir=none, style=dashed, label="C={c:g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
