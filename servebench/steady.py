"""Steadiness check: run each workload N times and report each metric's spread.

Usage, from the repository root::

    python3 servebench/steady.py --runs 10 [--workloads deep wide] [--seconds 10]

Each run is ``run.py`` in its own process with its own seed (``--seed0``,
``--seed0 + 1``, ...).  Per workload and end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(Q3 - Q1) / median`` as a share of the metric's bound in
``BENCHMARK.json``.  A metric whose spread exceeds its bound, or a
workload whose failed share differs between runs, is flagged
UNRESOLVED and the command exits 1.  This is how the bounds are set and
re-checked: a bound should sit at three times the spread or more.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: list[dict], declared: list) -> bool:
    """Print one workload's table; True when every metric is resolved."""
    resolved = True
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    correct = all(r["correct"] for r in results)
    print(f"\n{workload}: {len(results)} runs, correct={correct}, "
          f"failed share(s) {sorted(str(s) for s in shares)}")
    if len(shares) != 1 or not correct:
        resolved = False
        print("  UNRESOLVED: failed share differs between runs"
              if len(shares) != 1 else "  UNRESOLVED: incorrect answers")
    print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s} {'share':>6s}")
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m["bound"]
        flag = ""
        if spread > bound:
            flag = "  UNRESOLVED"
            resolved = False
        print(f"  {m['name']:28s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.3f} {bound:>6} {spread / bound:6.2f}{flag}")
    return resolved


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")
    ok = True
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            t0 = time.perf_counter()
            results.append(one_run(workload, args.seed0 + i, args.seconds))
            print(f"  {workload} seed {args.seed0 + i}: "
                  f"{time.perf_counter() - t0:.1f} s wall", flush=True)
        ok &= summarize(workload, results, spec["end_to_end"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
