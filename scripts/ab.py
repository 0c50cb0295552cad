"""Time this checkout against another revision, interleaved in one process.

``python scripts/ab.py --base REV`` extracts ``src/radialflow`` at the git
revision ``REV`` with ``git archive`` into a temporary directory and imports
it as the package ``radialflow_base`` (every import inside the package is
relative, so the copy loads under that name).  ``--base-src DIR`` imports the
package directory ``DIR`` instead, such as a scratch copy with a deliberate
slowdown.  The change is this checkout's ``src/radialflow``.

Both sides get the same documents: the networks of
``perfbench/inputs.py``'s seed-1 plans (``--workload``, read as they are,
built and serialised by the change) and seed-0 meshes of ``--mesh`` nodes
(``k=4``, ``beta=0.2``, the default supply count).  Each round runs every
document through ``load_network`` -> ``solve`` -> ``config_to_json`` ->
``validate_radial`` on both sides; which side goes first alternates from one
document and one round to the next, so both see the same drift of the host.
Per stage and input set the script prints the median over rounds of the
change/base ratio of the round's summed seconds, its quartiles, and the
share of rounds the change was faster.  It exits non-zero if any output text
(the configuration JSON, the validation report or an error) differs between
the two sides.

Examples::

    python scripts/ab.py --base HEAD~1 --rounds 15
    python scripts/ab.py --base HEAD --workload small_exact --rounds 1
    python scripts/ab.py --base HEAD~1 --workload none --mesh 3840 --rounds 8
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import radialflow  # noqa: E402
from radialflow.forward_engine import default_source_count  # noqa: E402

import inputs  # noqa: E402

STAGES = ("load_network", "solve", "config_to_json", "validate_radial")
WORKLOADS = ("mesh_ws", "feeder_ties", "radial_json", "small_exact")


def extract(rev: str, into: Path) -> Path:
    """Write ``src/radialflow`` at git revision ``rev`` under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev,
                              "src/radialflow"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src" / "radialflow"


def load_base(package: Path):
    """Import the package directory ``package`` as ``radialflow_base``,
    afresh with its modules."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "radialflow_base"]:
        del sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        "radialflow_base", package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["radialflow_base"] = module
    spec.loader.exec_module(module)
    return module


def documents(workloads: list[str], meshes: list[int]) -> dict[str, list[str]]:
    """Input documents by input set, built and serialised by the change."""
    rf = radialflow
    sets = {}
    for workload in workloads:
        nets = [rf.generate(rf.GenSpec(**item.args)) if item.kind == "generate"
                else rf.build_network(*item.args) for item in inputs.plan(workload, 1)]
        sets[workload] = [rf.serialize_network(net) for net in nets]
    for n in meshes:
        spec = rf.GenSpec(n=n, k=4, beta=0.2, n_sources=default_source_count(n), seed=0)
        sets[f"mesh n={n}"] = [rf.serialize_network(rf.generate(spec))]
    return sets


def operate(side, doc: str) -> tuple[list[float], str]:
    """Seconds of each stage for one document, and its output text."""
    marks = [time.perf_counter()]
    try:
        net = side.load_network(doc)
        marks.append(time.perf_counter())
        cfg, _ = side.solve(net)
        marks.append(time.perf_counter())
        text = side.config_to_json(net, cfg)
        marks.append(time.perf_counter())
        text += repr(side.validate_radial(net, cfg))
        marks.append(time.perf_counter())
    except Exception as exc:  # an error is an output too, and must match
        text = f"{type(exc).__name__}: {exc}"
    seconds = [b - a for a, b in zip(marks, marks[1:])]
    return seconds + [0.0] * (len(STAGES) - len(seconds)), text


def compare(name: str, docs: list[str], base, rounds: int) -> bool:
    """Time both sides on ``docs``, print one line per stage; True if every
    output matched."""
    sides = {"base": base, "change": radialflow}
    ratios: list[list[float]] = [[] for _ in STAGES]
    totals = {side: [[] for _ in STAGES] for side in sides}
    same = True
    for round_no in range(rounds):
        summed = {side: [0.0] * len(STAGES) for side in sides}
        for index, doc in enumerate(docs):
            order = ("change", "base") if (round_no + index) % 2 == 0 else ("base", "change")
            texts = {}
            for side in order:
                seconds, texts[side] = operate(sides[side], doc)
                summed[side] = [a + b for a, b in zip(summed[side], seconds)]
            if texts["base"] != texts["change"]:
                if same:
                    print(f"{name}: document {index} gives different outputs", file=sys.stderr)
                same = False
        for k in range(len(STAGES)):
            for side in sides:
                totals[side][k].append(summed[side][k])
            ratios[k].append(summed["change"][k] / max(summed["base"][k], 1e-12))
    print(f"\n{name}: {len(docs)} documents, {rounds} rounds, outputs "
          f"{'identical' if same else 'DIFFER'}")
    print(f"{'stage':<16} {'base s':>9} {'change s':>9} {'ratio':>7} {'q1':>7} {'q3':>7}  wins")
    for k, stage in enumerate(STAGES):
        r = ratios[k]
        q1, _, q3 = statistics.quantiles(r, n=4) if len(r) > 1 else (r[0],) * 3
        wins = sum(x < 1.0 for x in r)
        print(f"{stage:<16} {statistics.median(totals['base'][k]):9.4f} "
              f"{statistics.median(totals['change'][k]):9.4f} {statistics.median(r):7.3f} "
              f"{q1:7.3f} {q3:7.3f}  {wins}/{len(r)}")
    return same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--base", metavar="REV", help="git revision to time against")
    where.add_argument("--base-src", metavar="DIR", type=Path,
                       help="radialflow package directory to time against")
    parser.add_argument("--workload", action="append", choices=(*WORKLOADS, "none"),
                        help="perfbench workload, seed-1 plan (repeatable; default all "
                             "four, 'none' for meshes only)")
    parser.add_argument("--mesh", action="append", type=int, default=[], metavar="N",
                        help="also a seed-0 mesh of N nodes (repeatable)")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    workloads = [w for w in args.workload or WORKLOADS if w != "none"]
    with tempfile.TemporaryDirectory() as tmp:
        package = args.base_src or extract(args.base, Path(tmp))
        base = load_base(package)
        print(f"base {args.base or package}, change {ROOT / 'src' / 'radialflow'}")
        same = True
        for name, docs in documents(workloads, args.mesh).items():
            same &= compare(name, docs, base, args.rounds)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
