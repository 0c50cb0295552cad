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
from json.encoder import encode_basestring_ascii
from itertools import repeat
from operator import eq, ge, index, itemgetter, sub
from sys import float_info
from typing import IO, Any, Iterable, Mapping, Sequence

from .exceptions import DimensionMismatch, ParseError, ValidationError

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
    return BALANCE_RTOL * max(1.0, math.fsum(map(abs, values)))


class ExactSum:
    """A running float sum that never rounds.

    ``value`` always equals ``math.fsum`` of every term added so far, in any
    order; subtracting is adding the negated term.  The terms are kept as a
    list whose exact sum is the total.  Once it holds more than 16 terms, or
    updates have doubled it since, it is compacted into a few parts with the
    same exact sum: each part is ``math.fsum`` of the terms less the parts
    found before it, until that is 0.0.  So an update costs one ``fsum`` over
    a list at most about twice as long as the last compacted one, however many
    terms the sum started with.  A compaction raises ``OverflowError`` where
    ``math.fsum`` of its terms does.
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
        terms = self.terms
        if len(terms) > self._limit:
            # each part is the exact remainder rounded, so the parts sum
            # exactly to the terms, each within half an ulp of the last
            parts = []
            while part := math.fsum(terms):
                parts.append(part)
                terms.append(-part)
            self.terms = terms = parts
            self._limit = 2 * len(parts) + 16
        self.value = math.fsum(terms)
        return self.value


def quadratic_cost(coeffs: Sequence[float], flows: Sequence[float]) -> float:
    """``math.fsum`` of ``c * (x * x)`` over paired coefficients (none
    negative) and flows, with three exceptions.

    A zero coefficient adds 0.0 whatever its flow, as ``0 * inf`` is NaN.
    A square beyond the float range is inf even where ``c`` is small enough
    to keep the term finite, so a term that is inf is computed again as
    ``(c * x) * x``, which is inf only where the term truly is (or ``c`` or
    ``x`` is); a finite term keeps its bits.  Terms that are each finite but
    sum beyond the float range give inf where ``fsum`` raises
    ``OverflowError``.  ``x * x`` rather than ``x ** 2``: a square too large
    for a float is inf, where the power raises.
    """
    terms = [c * (x * x) if c else 0.0 for c, x in zip(coeffs, flows)]
    if math.inf in terms:
        terms = [t if t != math.inf else (c * x) * x
                 for t, c, x in zip(terms, coeffs, flows)]
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.nan if any(map(math.isnan, terms)) else math.inf


def unjoined(n: int, us: Iterable[int], vs: Iterable[int]) -> list[int]:
    """Positions of the pairs ``(us[i], vs[i])`` that join nothing.

    A union-find forest over nodes ``0..n-1`` (path halving) takes the
    pairs in turn, and a pair joins nothing when its ends are already in one
    tree: a repeat, a self-loop or a cycle's last edge.  So m pairs form a
    forest exactly when none is returned (Tarjan 1975), and they join the n
    nodes into one component exactly when ``m - (n - 1)`` are.
    """
    parent = list(range(n))
    missed: list[int] = []
    joined = 0
    for u, v in zip(us, vs):
        while (w := parent[u]) != u:
            parent[u] = u = parent[w]
        while (w := parent[v]) != v:
            parent[v] = v = parent[w]
        if u == v:
            missed.append(joined + len(missed))
        else:
            # under the first end's root, which keeps paths short on edges
            # listed outward from a root, as sorted and solved lists mostly are
            parent[v] = u
            joined += 1
    return missed


def connected(n: int, edges: Iterable[Sequence[int]]) -> bool:
    """Whether edges ``(u, v, ...)`` join nodes ``0..n-1`` into one component."""
    edges = list(edges)
    return len(edges) - len(unjoined(n, map(itemgetter(0), edges),
                                      map(itemgetter(1), edges))) == n - 1


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

    @property
    def source_set(self) -> frozenset[int]:
        """Nodes with strictly positive injection."""
        return frozenset(i for i, p in enumerate(self.injections) if p > 0)


@dataclass(frozen=True)
class GraphView:
    """A subgraph of a network, as each node's ``(neighbor, edge index)`` pairs.

    Node and edge ids always refer to the parent network, so views produced by
    different stages of the pipeline compose without re-mapping.
    """

    net: DistributionNetwork
    adj: dict[int, list[tuple[int, int]]]

    @property
    def nodes(self) -> tuple[int, ...]:
        """The keys of ``adj``, which every view lists in ascending order."""
        return tuple(self.adj)


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
        names: Node names, strings; ids are assigned by position.
        edges: ``(u, v, cost)`` triples over int node ids, any endpoint order.
        injections: Signed injection per node id.
        metadata: Optional mapping carried through serialization.

    Raises:
        ValidationError: Naming the first fault: a name that is not a string,
            duplicate names or edges, an edge that is no such triple,
            self-loops, a cost or injection that is not an int or float (a
            bool is neither), negative or non-finite coefficients, injection
            imbalance, or a disconnected graph.
    """
    n = len(names)
    if n == 0:
        raise ValidationError("empty network: at least one node is required")
    if len(injections) != n:
        raise ValidationError("injection vector length does not match node count")
    try:
        plain = (set(map(type, names)) <= {str} and set(map(type, injections)) <= {int, float}
                 and all(map(math.isfinite, injections)))
    except OverflowError:  # an int beyond float range
        plain = False
    if not plain:
        for name, p in zip(names, injections):
            if not isinstance(name, str):
                raise ValidationError(f"node name must be a string: {name!r}")
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise ValidationError(f"injection must be a number at node {name!r}")
            if not abs(p) <= float_info.max:
                raise ValidationError(f"non-finite injection at node {name!r}")
    if len(set(names)) != n:
        raise ValidationError("duplicate node name")
    return _network(names, _normalized(names, edges), injections, metadata)


def _network(names: Sequence[str], edges: list[tuple[int, int, float]],
             injections: Sequence[float], metadata: dict | None) -> DistributionNetwork:
    """The network of checked names, injections and normalized edges, once
    the injections balance and the edges join every node."""
    try:
        total, tol = math.fsum(injections), balance_tolerance(injections)
    except OverflowError:
        raise ValidationError("injections overflow: their sum exceeds the "
                              "float range") from None
    if abs(total) > tol:
        raise ValidationError(f"injection imbalance: sum(p) = {total!r}")

    if not connected(len(names), edges):
        raise ValidationError("disconnected network")
    return DistributionNetwork(tuple(names), tuple(edges),
                               tuple(map(float, injections)), metadata)


def _normalized(names: Sequence[str], edges: Sequence) -> list[tuple[int, int, float]]:
    """``(u, v, float(cost))`` per edge with ``u < v``.  C-level passes check
    the edges; only if one fails are they walked, raising on the first fault."""
    n = len(names)
    try:
        # None marks a self-loop, or an id that is unknown or not an int
        keys = [((u, v) if 0 <= u < v < n else (v, u) if 0 <= v < u < n else None)
                if type(u) is int and type(v) is int else None for u, v, _ in edges]
        costs = list(map(itemgetter(2), edges))
        if (None not in keys and len(set(keys)) == len(keys)
                and set(map(type, costs)) <= {int, float}
                and all(map(math.isfinite, costs)) and min(costs, default=0) >= 0):
            return [(u, v, c) for (u, v), c in zip(keys, map(float, costs))]
    except (TypeError, ValueError, OverflowError):
        pass

    out: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        try:
            u, v, c = edge
        except (TypeError, ValueError):
            raise ValidationError(f"edge {edge!r} is not a (u, v, cost) triple") from None
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (u, v)):
            raise ValidationError(f"edge ({u!r}, {v!r}) has a node id that is not an integer")
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u}, {v}) references an unknown node id")
        if u == v:
            raise ValidationError(f"self-loop at node {names[u]!r}")
        ends = (names[u], names[v])
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise ValidationError(f"cost coefficient must be a number on edge {ends}")
        if not abs(c) <= float_info.max or c < 0:
            raise ValidationError(f"negative or non-finite cost coefficient on edge {ends}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValidationError(
                f"duplicate edge ({names[key[0]]!r}, {names[key[1]]!r})")
        seen.add(key)
        out.append((*key, float(c)))
    return out


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
    parsed = _parse(doc["nodes"], doc["edges"])
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ParseError("'meta' entry must be an object")
    del doc  # the parsed lists hold all that is left to check
    return _parsed_network(*parsed, meta)


def _parse(nodes: list, edge_items: list) -> tuple[list, list, list, list, list]:
    """Sorted names, injections by id, and each edge's end ids and float cost.
    C-level passes check the entries; only if one fails are they walked, to
    raise on the first."""
    try:
        names, ps = (list(map(itemgetter(key), nodes)) for key in ("name", "p"))
        us, vs, cs = (list(map(itemgetter(key), edge_items)) for key in "uvc")
        # ids holds only names, so an endpoint found there is a string
        if set(map(type, names)) <= {str} and set(map(type, ps + cs)) <= {int, float}:
            raw_p = dict(zip(names, map(float, ps)))
            ids = {name: i for i, name in enumerate(sorted(raw_p))}
            if len(ids) == len(names):
                return (list(ids), list(map(raw_p.__getitem__, ids)),
                        list(map(ids.__getitem__, us)), list(map(ids.__getitem__, vs)),
                        list(map(float, cs)))
    except (LookupError, TypeError, OverflowError):
        pass

    raw_p: dict[str, float] = {}
    for item in nodes:
        if not isinstance(item, dict) or "name" not in item or "p" not in item:
            raise ParseError(f"node entry must have 'name' and 'p': {item!r}")
        name, p = item["name"], item["p"]
        if not isinstance(name, str):
            raise ParseError(f"node name must be a string: {name!r}")
        p = _number(p, "injection must be a number at node %r", name)
        if name in raw_p:
            raise ValidationError(f"duplicate node name {name!r}")
        raw_p[name] = p

    for item in edge_items:
        if not isinstance(item, dict) or not {"u", "v", "c"} <= set(item):
            raise ParseError(f"edge entry must have 'u', 'v' and 'c': {item!r}")
        u, v, c = item["u"], item["v"], item["c"]
        if not isinstance(u, str) or not isinstance(v, str):
            raise ParseError(f"edge endpoints must be node names: {item!r}")
        _number(c, "cost coefficient must be a number: %r", item)
        if u not in raw_p or v not in raw_p:
            missing = u if u not in raw_p else v
            raise ValidationError(f"unknown node {missing!r} in edge list")
    raise ParseError("malformed network document")


def _parsed_network(names: list[str], injections: list[float], us: list[int],
                    vs: list[int], cs: list[float], metadata: dict | None) -> DistributionNetwork:
    """:func:`build_network` of what :func:`_parse` returns.  ``_parse`` has
    checked the types, the names and the ends, so only the checks it does not
    make run here, and with the same outcome: finite injections, edges that
    are no self-loop or repeat and whose costs are finite and not negative,
    balance and connectivity."""
    n = len(names)
    if n == 0:
        raise ValidationError("empty network: at least one node is required")
    if not all(map(math.isfinite, injections)):
        bad = next(name for name, p in zip(names, injections) if not math.isfinite(p))
        raise ValidationError(f"non-finite injection at node {bad!r}")
    edges = [(u, v, c) if u < v else (v, u, c) for u, v, c in zip(us, vs, cs)]
    if (any(map(eq, us, vs)) or not all(map(math.isfinite, cs))
            or min(cs, default=0.0) < 0 or len({u * n + v for u, v, _ in edges}) < len(edges)):
        _normalized(names, list(zip(us, vs, cs)))  # raises on the first fault
    return _network(names, edges, injections, metadata)


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
    names = net.names
    text = _json_values(names, _ROW)
    values = _json_values(net.injections, _ROW)
    nodes = [(text[i], values[i]) for i in sorted(range(net.n), key=names.__getitem__)]
    ends = []
    for (u, v, _), c in zip(net.edges, _json_values([e[2] for e in net.edges], _ROW)):
        if not names[u] <= names[v]:
            u, v = v, u
        ends.append((names[u], names[v], text[u], text[v], c))
    ends.sort(key=itemgetter(0, 1))
    edges = [end[2:] for end in ends]
    fields = [("nodes", _json_objects(("name", "p"), nodes)),
              ("edges", _json_objects(("u", "v", "c"), edges))]
    if net.metadata is not None:
        fields.append(("meta", _json_values([net.metadata], _FIELD)[0]))
    return _json_document(fields)


# The network and configuration documents are ``json.dumps(doc, indent=2)``
# of a dict of lists of flat objects.  That call always runs json's pure
# Python encoder, which takes most of the time of writing a large network, so
# the writer below lays the same text out itself from C-level pieces.
# ``tests/test_network_model.py`` holds both documents to ``json.dumps``.

#: The indent of a top-level field, and of a key inside a listed object.
_FIELD = "  "
_ROW = "      "


def _json_values(xs: Sequence[Any], indent: str) -> list[str]:
    """Each of ``xs`` as ``json.dumps(doc, indent=2)`` writes it at ``indent``."""
    kinds = set(map(type, xs))
    if kinds <= {str}:
        return list(map(encode_basestring_ascii, xs))
    if kinds == {float} and math.isfinite(sum(xs)):
        return list(map(float.__repr__, xs))
    return [json.dumps(x, indent=2).replace("\n", "\n" + indent) for x in xs]


def _json_objects(keys: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    """A top-level list of objects, each row the written values of ``keys``."""
    if not rows:
        return "[]"
    row = "{\n" + ",\n".join(f'{_ROW}"{key}": %s' for key in keys) + "\n    }"
    return "[\n    " + ",\n    ".join(map(row.__mod__, rows)) + "\n  ]"


def _json_document(fields: list[tuple[str, str]]) -> str:
    """The document of the ``(key, written value)`` pairs, with its newline."""
    return "{\n" + ",\n".join(f'{_FIELD}"{key}": {text}'
                                for key, text in fields) + "\n}\n"


# ---------------------------------------------------------------------------
# Radial configurations
# ---------------------------------------------------------------------------

def incidence_apply(cfg: RadialConfiguration, x: Sequence[float],
                    n_nodes: int) -> list[float]:
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
    directed = cfg.directed_edges
    text = _json_values(net.names, _ROW)
    flows = _json_values(cfg.flows, _ROW)
    n = net.n
    keys = [u * n + v for u, v in directed]  # orders as (u, v) does
    edges = [(text[directed[i][0]], text[directed[i][1]], flows[i])
             for i in sorted(range(len(directed)), key=keys.__getitem__)]
    cost = cfg.total_cost
    return _json_document([("edges", _json_objects(("u", "v", "flow"), edges)),
                           ("cost", float.__repr__(cost)
                            if type(cost) is float and math.isfinite(cost)
                            else _json_values([cost], _FIELD)[0])])


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
    ``COST_RTOL`` (a sum beyond the float range is inf).

    The structural checks run as C-level passes over flat lists and one
    union-find pass; only if one of them fails are the edges walked one by
    one to name the faults in ``messages``, in edge order.  An edge with an
    id that is no node fails ``edge_subset``; its flow counts in conservation
    at the end that is a node.  A NaN residual gives ``max_residual`` NaN.
    """
    n = net.n
    directed = cfg.directed_edges
    m = len(directed)
    cost_of = {u * n + v: c for u, v, c in net.edges}
    tails = list(map(itemgetter(0), directed))
    heads = list(map(itemgetter(1), directed))
    try:
        # -1 marks a self-loop or an id out of range; a non-int id fails the
        # comparisons or the union-find's list indexing
        keys = [t * n + h if 0 <= t < h < n else h * n + t if 0 <= h < t < n else -1
                for t, h in directed]
        coeffs = list(map(cost_of.__getitem__, keys))
        del keys
        forest = not unjoined(n, tails, heads)  # of network edges
    except (KeyError, TypeError):
        forest = False
    if forest:
        sinks = set(heads)
        # a forest of n - 1 edges spans the n nodes
        spanning = m == n - 1 or len(sinks.union(tails)) == n
        root_source = min(map(net.injections.__getitem__, set(tails) - sinks),
                          default=0.0) >= 0
        del sinks
    messages: list[str] = []
    if not (forest and spanning and root_source):
        acyclic, edge_subset, spanning, root_source, coeffs, ends = \
            _structure_faults(net, directed, cost_of, messages)
        # the flows between the walked ends, where an id that is no node
        # reads as node n, which has no injection
        cfg = RadialConfiguration(ends, cfg.flows, cfg.total_cost)
    else:
        acyclic = edge_subset = True
    del cost_of, tails, heads
    flows = cfg.flows

    try:
        residual = incidence_apply(cfg, flows, n + 1)
    except DimensionMismatch as exc:
        messages.append(str(exc))
        return ValidationReport(acyclic, edge_subset, spanning, root_source,
                                False, False, False, False, math.inf, (),
                                tuple(messages))
    residual = list(map(abs, map(sub, residual, net.injections)))
    # max skips a NaN that is not first; a sum of non-negative terms is NaN
    # exactly when one of them is
    max_residual = max(residual) if sum(residual) == sum(residual) else math.nan
    del residual
    tol = max(FLOW_ATOL, FLOW_RTOL * math.fsum(map(abs, net.injections)))
    kirchhoff = max_residual <= tol
    if not kirchhoff:
        messages.append(f"conservation residual {max_residual:.3e} exceeds {tol:.3e}")

    nonnegative = all(map(ge, flows, repeat(0)))
    if not nonnegative:
        messages.append("negative flow present")
    finite = all(map(math.isfinite, flows))
    if not finite:
        messages.append("non-finite flow present")
    cost = quadratic_cost(coeffs, flows)
    cost_consistent = math.isclose(cfg.total_cost, cost, rel_tol=COST_RTOL)
    if not cost_consistent:
        messages.append(
            f"declared cost {cfg.total_cost!r} differs from sum(C x^2) = {cost!r}")
    zero_flow = tuple(i for i, f in enumerate(flows) if f == 0.0)

    return ValidationReport(acyclic, edge_subset, spanning, root_source,
                            kirchhoff, nonnegative, finite, cost_consistent,
                            max_residual, zero_flow, tuple(messages))


def _structure_faults(net: DistributionNetwork, directed: Sequence[tuple[int, int]],
                      cost_of: dict[int, float], messages: list[str]) -> tuple:
    """:func:`validate_radial`'s structural checks, edge by edge.

    Appends a message per fault to ``messages``, in edge order, and returns
    the four flags, each edge's cost coefficient (NaN off the network) and
    each edge's ends, with ``net.n`` for an id that is no node.
    """
    n, names, injections = net.n, net.names, net.injections
    ends = tuple((_node(tail, n), _node(head, n)) for tail, head in directed)
    inner = [e for e in ends if n not in e]
    cycles = set(unjoined(n, map(itemgetter(0), inner), map(itemgetter(1), inner)))
    acyclic = edge_subset = True
    coeffs: list[float] = []
    seen: set[int] = set()
    covered: set[int] = set()  # filled in edge order: roots are named in its order
    indeg = [0] * n
    j = 0  # position among the edges between nodes
    for (tail, head), (t, h) in zip(directed, ends):
        if n in (t, h):
            edge_subset = False
            coeffs.append(math.nan)
            messages.append(f"edge ({tail}, {head}) references an unknown node")
            continue
        covered.add(t)
        covered.add(h)
        indeg[h] += 1
        lo, hi = min(t, h), max(t, h)
        key = lo * n + hi
        pair = f"({names[lo]}, {names[hi]})"
        coeffs.append(cost_of.get(key, math.nan))
        if key not in cost_of:
            edge_subset = False
            messages.append(f"edge {pair} is not a network edge")
        if key in seen:
            acyclic = False
            messages.append(f"duplicate undirected edge {pair}")
        elif j in cycles:
            acyclic = False
            messages.append(f"edge {pair} closes a cycle")
        seen.add(key)
        j += 1

    spanning = not ends if n == 1 else len(covered) == n
    if not spanning:
        missing = sorted(set(range(n)) - covered)
        messages.append("uncovered nodes: " + ", ".join(names[v] for v in missing[:5]))
    root_source = True
    for v in covered:
        if indeg[v] == 0 and injections[v] < 0:
            root_source = False
            messages.append(f"root {names[v]} has negative injection {injections[v]!r}")
    return acyclic, edge_subset, spanning, root_source, coeffs, ends


def _node(x: Any, n: int) -> int:
    """``x`` as a node id below ``n``, or ``n`` if it is none."""
    try:
        x = index(x)
    except TypeError:
        return n
    return x if 0 <= x < n else n


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def export_dot(net: DistributionNetwork, cfg: RadialConfiguration | None = None) -> str:
    """Render the network (and optionally a solved configuration) as DOT.

    Configuration edges are drawn directed and labeled ``x=<flow>, C=<coeff>``;
    network edges not used by the configuration are drawn dashed without
    direction.  Source nodes are filled.  ``"`` and ``\\`` in node names
    are escaped.
    """
    names = [n.replace("\\", "\\\\").replace('"', '\\"') for n in net.names]
    lines = ["digraph radial {"]
    for i, name in enumerate(names):
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
                f'  "{names[tail]}" -> "{names[head]}" '
                f'[label="x={cfg.flows[i]:g}, C={coeff:g}"];')
    for u, v, c in net.edges:
        if (u, v) in used:
            continue
        lines.append(
            f'  "{names[u]}" -> "{names[v]}" '
            f'[dir=none, style=dashed, label="C={c:g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
