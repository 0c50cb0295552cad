"""Print where a growth solve spends its time, by network size.

For each size, the seed-0 mesh (``k=4``, ``beta=0.2``, the default supply
count) is solved once.  The script prints a Markdown table: the solve's wall
time, and from its ``SolveReport`` the shares of that time spent building,
updating and searching condensations (``condense``), in selection and the
frontier's upkeep (``sample``), and in the rest of the growth loop (the
loop's own), and the orientations weighed per step (``candidates`` over
``iterations``).  Single solves drift from run to run, so the shares say
more than the seconds.  The default sizes take about half a minute on a
2-core box.

Run it from anywhere: ``python scripts/loop_shares.py [--sizes 960,3840]``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from radialflow import GenSpec, generate, solve  # noqa: E402
from radialflow.forward_engine import default_source_count  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="960,3840,7680,15360,30720",
                        help="comma-separated node counts")
    args = parser.parse_args(argv)
    print("| n | solve | `condense` | `sample` | loop's own | weighed per step |")
    print("|---|---|---|---|---|---|")
    for n in map(int, args.sizes.split(",")):
        net = generate(GenSpec(n=n, k=4, beta=0.2, n_sources=default_source_count(n),
                               seed=0))
        start = time.perf_counter()
        _, report = solve(net)
        seconds = time.perf_counter() - start
        t = report.timings
        own = t["loop"] - t["condense"] - t["sample"]
        print(f"| {n:,} | {seconds:.2f} s | {t['condense'] / seconds:.0%} "
              f"| {t['sample'] / seconds:.0%} | {own / seconds:.0%} "
              f"| {report.candidates / max(report.iterations, 1):.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
