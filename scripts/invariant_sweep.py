"""Solve a fixed set of 636 networks with every invariant check on.

The set is 40 small-world meshes shaped like the benchmark's ``mesh_ws``
(n = 30, 60, 120 and 400, seeds 0 to 9, the default supply count), then the
36 ``feeder_ties`` feeders and the 560 ``small_exact`` networks of
``perfbench/inputs.py``'s seed-1 plans.  Each network is solved with
``check_invariants=True``: before every growth step the condensation is
rebuilt from scratch and compared, every pick is held to a full scan, and
the result is validated.  The script prints the network count, the SHA-256
of every ``config_to_json`` text in order, and the summed iterations, growth
splits and tree merges.  It exits non-zero unless all five equal the values
below, which a change that keeps outputs byte-identical leaves as they are.
It takes about 20 s on a 2-core box.

Run it from anywhere: ``python scripts/invariant_sweep.py``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from radialflow import (GenSpec, build_network, config_to_json, generate,  # noqa: E402
                        solve)
from radialflow.forward_engine import default_source_count  # noqa: E402

import inputs  # noqa: E402

#: ``(networks, config hash, iterations, splits, merges)`` of the sweep.
EXPECTED = (636, "ad66875603ed2f01abfeb3868a7f964567506e9b0af25abadaddee9507034c02",
            57_407, 3_337, 1_659)


def networks():
    """The sweep's networks, in hash order."""
    for n in (30, 60, 120, 400):
        for seed in range(10):
            yield generate(GenSpec(n=n, k=4, beta=0.2,
                                   n_sources=default_source_count(n), seed=seed))
    for workload in ("feeder_ties", "small_exact"):
        for item in inputs.plan(workload, 1):
            if item.kind == "generate":
                yield generate(GenSpec(**item.args))
            else:
                yield build_network(*item.args)


def main() -> int:
    digest = hashlib.sha256()
    count = iterations = splits = merges = 0
    for net in networks():
        cfg, report = solve(net, check_invariants=True)
        digest.update(config_to_json(net, cfg).encode())
        count += 1
        iterations += report.iterations
        splits += report.splits
        merges += report.merges
    got = (count, digest.hexdigest(), iterations, splits, merges)
    print(f"networks {got[0]}, config sha256 {got[1]}, iterations {got[2]}, "
          f"splits {got[3]}, merges {got[4]}")
    if got != EXPECTED:
        print(f"expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
