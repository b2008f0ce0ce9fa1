"""Print the inputs of every workload for one seed as a markdown table.

Usage, from the repository root::

    python3 servebench/describe.py --seed 1

Columns: domain, rows, nonzeros, levels, levels after ``merge_levels``,
the paper's Eq. 1 granularity, the lane ``execution="auto"`` picks, and
requests per round.  The README's input table is this output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from repro.analysis.features import extract_features
    from repro.analysis.levels import merge_levels
    from repro.solvers.compiled import prefers_compiled

    print("| workload | matrix | rows | nnz | levels | merged levels "
          "| granularity | lane | per round |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload, specs in (("deep", workloads.DEEP), ("wide", workloads.WIDE)):
        for spec, L in zip(specs, workloads.generate(specs, args.seed)):
            f = extract_features(L)
            merged = merge_levels(L, f.schedule).n_levels
            lane = "compiled" if prefers_compiled(f) else "host"
            print(f"| {workload} | {spec.name} | {L.n_rows} | {L.nnz} "
                  f"| {f.n_levels} | {merged} | {f.granularity:.3f} "
                  f"| {lane} | {spec.weight} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
