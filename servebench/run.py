"""Wall-clock serving benchmark: one workload, one run, one JSON line.

Usage, from the repository root::

    python3 servebench/run.py --workload deep --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` traces every other round, prints every per-layer metric
plus the tracing overhead, and writes the spans to
``servebench/_spans/<workload>-seed<seed>.jsonl``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
The program is imported from ``src/`` next to this directory; without
it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "_spans"


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and workloads."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_block(values: dict, declared: list) -> dict:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(
            f"measured metrics {sorted(values)} != declared {sorted(names)}"
        )
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }


def execute(workload: str, seed: int, seconds: float, trace: bool,
            setups: int | None = None) -> dict:
    """Run one workload and return the result object (not yet printed)."""
    import workloads

    spec = load_spec()
    run = workloads.run_workload(workload, seed, seconds, trace, setups)
    if trace:
        layers = workloads.per_layer(run)
        path = SPANS_DIR / f"{workload}-seed{seed}.jsonl"
        run.tracer.write(path)
        print(f"spans: {len(run.tracer.spans)} written to "
              f"{path.relative_to(ROOT)}")
        print(f"tracing overhead on latency p50: "
              f"{layers['trace.overhead_p50_pct']:+.1f}% "
              f"(traced vs untraced rounds of this run)")
        metrics = metric_block(layers, spec["per_layer"])
    else:
        metrics = metric_block(workloads.end_to_end(run), spec["end_to_end"])
    disturbed = sum(r.stolen > workloads.STOLEN_MAX for r in run.rounds)
    print(f"rounds: {len(run.rounds)}, of which {disturbed} disturbed "
          f"(CPU time stolen meanwhile); untraced medians over "
          f"{len(workloads._rounds(run, False))}")
    for name, m in metrics.items():
        print(f"  {workload:8s} {name:28s} {m['value']:14.4f} {m['unit']}")
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"servebench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(ROOT / "src"))
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
