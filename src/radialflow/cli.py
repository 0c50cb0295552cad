"""Command line interface.

Subcommands: ``validate``, ``solve``, ``oracle``, ``gen``, ``bench`` and
``export-dot``.  Networks are read from JSON files (``-`` for stdin).  Exit
codes: 0 on success or a feasible result, 1 on input errors, 2 when a
configuration is infeasible or fails validation, 3 when the oracle refuses
an oversized network.

Set ``FORWARD_LOG`` to ``error`` (default), ``info`` or ``debug`` to control
diagnostic output on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import platform
import sys

from .exceptions import Infeasible, InvalidSpec, RadialFlowError, TooLarge
from .forward_engine import (complexity_probe, default_source_count,
                             fit_exponent, solve)
from .generator import GenSpec, generate
from .network_model import (config_from_json, config_to_json, export_dot,
                            load_network, serialize_network, validate_radial)
from .oracle import DEFAULT_MAX_EDGES, DEFAULT_MAX_NODES, enumerate_optimal

#: Version of the ``bench --json`` document.
BENCH_SCHEMA_VERSION = 2

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = LOG_LEVELS.get(os.environ.get("FORWARD_LOG", "error").lower(),
                           logging.ERROR)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _read_network(path: str):
    if path == "-":
        return load_network(getattr(sys.stdin, "buffer", sys.stdin).read())
    with open(path, "rb") as fh:
        return load_network(fh)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_validate(args: argparse.Namespace) -> int:
    net = _read_network(args.network)
    if args.config is None:
        print(f"ok: {net.n} nodes, {net.m} edges, "
              f"{len(net.source_set)} supplies")
        return 0
    with open(args.config, "rb") as fh:
        cfg = config_from_json(net, fh)
    report = validate_radial(net, cfg)
    print(report.summary())
    for msg in report.messages:
        print(f"  {msg}", file=sys.stderr)
    if report.zero_flow_edges:
        print(f"  note: {len(report.zero_flow_edges)} zero-flow edge(s)",
              file=sys.stderr)
    return 0 if report.passed else 2


def cmd_solve(args: argparse.Namespace) -> int:
    net = _read_network(args.network)
    cfg, report = solve(net, check_invariants=args.check_invariants,
                        collect_trace=args.trace is not None)
    _write_text(args.out, config_to_json(net, cfg))
    if args.report is not None:
        _write_text(args.report, report.to_json())
    if args.trace is not None:
        rows = ["iter,edge,raw_weight,balance_ok,pendant,deleted_count"]
        rows += [f"{r.iteration},{r.edge_index},{r.raw_weight!r},"
                 f"{int(r.balance_ok)},{int(r.pendant)},{r.deleted_count}"
                 for r in report.trace]
        _write_text(args.trace, "\n".join(rows) + "\n")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    net = _read_network(args.network)
    result = enumerate_optimal(net, max_nodes=args.max_nodes,
                               max_edges=args.max_edges)
    if result.optimum is None:
        print(f"infeasible: no radial configuration balances "
              f"({result.enumerated_count} candidates examined)",
              file=sys.stderr)
        return 2
    if args.solution is not None:
        _write_text(args.solution, config_to_json(net, result.optimum))
    cfg, _ = solve(net)
    if result.optimal_cost > 0.0:
        gap = cfg.total_cost / result.optimal_cost
    else:
        gap = 1.0 if cfg.total_cost == result.optimal_cost else math.inf
    doc = {"optimal_cost": result.optimal_cost,
           "forward_cost": cfg.total_cost,
           # JSON has no infinity: an unbounded ratio is written as null
           "gap_ratio": gap if math.isfinite(gap) else None,
           "feasible_count": result.feasible_count}
    _write_text(args.out, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(n=args.n, k=args.k, beta=args.beta,
                   n_sources=args.sources
                   if args.sources is not None else default_source_count(args.n),
                   demand_range=tuple(args.demand),
                   resistance_range=tuple(args.resistance), seed=args.seed)
    net = generate(spec)
    _write_text(args.out, serialize_network(net))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise InvalidSpec(f"--sizes takes comma separated integers, "
                          f"not {args.sizes!r}") from None
    digest = hashlib.sha256()
    points = complexity_probe(sizes, seeds=args.seeds, k=args.k,
                              beta=args.beta, n_sources=args.sources,
                              digest=digest)
    exponent = fit_exponent(points) if len(points) >= 2 else None
    rows = ["n,m,median_ms,cost"]
    rows += [f"{n},{m},{t * 1000.0:.3f},{c:.6f}" for n, m, t, c in points]
    _write_text(args.out, "\n".join(rows) + "\n")
    if args.json is not None:
        doc = {"schema_version": BENCH_SCHEMA_VERSION,
               "sizes": sizes, "seeds": args.seeds, "k": args.k,
               "beta": args.beta, "sources": args.sources,
               "edges": [m for _, m, _, _ in points],
               "median_s": [t for _, _, t, _ in points],
               "median_cost": [c for _, _, _, c in points],
               "exponent": exponent,
               "solutions_sha256": digest.hexdigest(),
               "python": platform.python_version(),
               "nproc": len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count()}
        _write_text(args.json, json.dumps(doc, indent=2) + "\n")
    if exponent is not None:
        print(f"exponent={exponent:.3f}", file=sys.stderr)
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    net = _read_network(args.network)
    with open(args.solution, "rb") as fh:
        cfg = config_from_json(net, fh)
    _write_text(args.out, export_dot(net, cfg))
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="radialflow",
        description="Radial flow configurations on distribution networks.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network or a configuration")
    p.add_argument("network", help="network JSON file, or - for stdin")
    p.add_argument("--config", help="configuration JSON to validate")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="build a radial configuration")
    p.add_argument("network", help="network JSON file, or - for stdin")
    p.add_argument("-o", "--out", help="solution file (default stdout)")
    p.add_argument("--report", help="write solve statistics JSON here")
    p.add_argument("--trace", help="write per-iteration CSV here")
    p.add_argument("--check-invariants", action="store_true",
                   help="run internal consistency checks while solving")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle",
                       help="gap against the exhaustive optimum "
                            "(small networks)")
    p.add_argument("network", help="network JSON file, or - for stdin")
    p.add_argument("-o", "--out",
                   help="gap statistics JSON (default stdout)")
    p.add_argument("--solution", help="also write the optimal configuration")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a seeded synthetic network")
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument("--k", type=int, default=4, help="ring lattice degree")
    p.add_argument("--beta", type=float, default=0.2,
                   help="rewiring probability")
    p.add_argument("--sources", type=int, default=None,
                   help="supply count (default: size-based heuristic)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--demand", type=float, nargs=2, default=[0.5, 1.5],
                   metavar=("LO", "HI"))
    p.add_argument("--resistance", type=float, nargs=2, default=[0.1, 1.0],
                   metavar=("LO", "HI"))
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time the solver across sizes")
    p.add_argument("--sizes", default="120,240,400",
                   help="comma separated node counts")
    p.add_argument("--seeds", type=int, default=5,
                   help="instances per size (median is reported)")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--beta", type=float, default=0.2)
    p.add_argument("--sources", type=int, default=None)
    p.add_argument("-o", "--out", help="CSV output file (default stdout)")
    p.add_argument("--json", help="also write sizes, median seconds, the "
                                  "exponent and a solutions hash as JSON")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-dot",
                       help="render a solved configuration as Graphviz DOT")
    p.add_argument("solution", help="configuration JSON from solve or oracle")
    p.add_argument("network", help="network JSON file, or - for stdin")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_export_dot)
    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    _setup_logging()
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return 3
    except (OSError, RadialFlowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
