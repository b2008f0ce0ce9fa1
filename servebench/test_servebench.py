"""Smoke and check tests of the serving benchmark.

Run from the repository root with ``python -m pytest servebench -q``.
The smoke tests run every workload with one set-up and a fraction of a
second of serving, with every answer checked.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import shutil
import subprocess
import sys
from fractions import Fraction
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.datasets import domains  # noqa: E402
from repro.errors import QueueFullError, SolverError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _system(seed=0):
    L = domains.circuit(400, seed)
    A = checks.to_scipy(L)
    b = np.random.default_rng(seed).standard_normal(L.n_rows)
    x, _ = checks.reference_solve(A, b)
    return A, x, b


def test_exact_answer_passes_both_checks():
    A, x, b = _system()
    assert checks.answer_ok(A, x, b)
    assert checks.matches_reference(A, x, b)


@pytest.mark.parametrize("scale", [1e-6, 1e-3])
def test_perturbed_x_is_caught(scale):
    A, x, b = _system()
    bad = x.copy()
    bad[len(bad) // 2] += scale * np.max(np.abs(x))
    assert not checks.answer_ok(A, bad, b)
    assert not checks.matches_reference(A, bad, b)


def test_non_finite_x_is_caught():
    A, x, b = _system()
    bad = x.copy()
    bad[3] = np.nan
    assert checks.backward_error(A, bad, b) == math.inf
    assert not checks.answer_ok(A, bad, b)


class _Answer:
    def __init__(self, x):
        self.x = x


def test_wrong_answer_fails_and_marks_run_incorrect():
    A, x, b = _system()
    bad = x * (1 + 1e-5)
    r = workloads.Run("wide", False)
    r.check([
        workloads.Sample(workloads.Op("m", b, A), _Answer(x), 0.0, 1.0),
        workloads.Sample(workloads.Op("m", b, A), _Answer(bad), 0.0, 1.0),
    ])
    assert (r.attempted, r.failed, r.correct) == (2, 1, False)


def test_nan_request_passes_only_when_refused_with_serve_error():
    A, x, b = _system()
    poison = workloads.Op("m", workloads.nan_rhs(len(b)), A, poison=True)
    r = workloads.Run("wide", False)
    r.check([
        workloads.Sample(poison, _Answer(np.full_like(x, np.nan)), 0.0, 1.0),
        workloads.Sample(poison, SolverError("bad b"), 0.0, 1.0),
        workloads.Sample(poison, QueueFullError("refused"), 0.0, 1.0),
    ])
    # answered or refused with a non-ServeError: failed; the run stays
    # correct because no answer it accepted was wrong
    assert (r.attempted, r.failed, r.correct) == (3, 2, True)


#: Per-layer metrics that must be positive in a traced run: each comes
#: from a wrapper or a phase that fires on that workload, so a 0 means a
#: wrapper stopped reaching its layer.
USED_LAYERS = {
    "deep": ["inspector.levels_ms", "inspector.compiled_ms",
             "inspector.builds", "inspector.executed_levels",
             "executor.solve_ms", "executor.busy_s", "executor.rhs_per_call",
             "executor.bytes_per_rhs", "engine.overhead_ms", "engine.batches",
             "engine.batch_width", "engine.lane.compiled",
             "reference.scipy_ms"],
    "wide": ["inspector.levels_ms", "inspector.plan_ms", "inspector.builds",
             "inspector.executed_levels", "executor.solve_ms",
             "executor.busy_s", "executor.rhs_per_call",
             "executor.bytes_per_rhs", "engine.overhead_ms", "engine.batches",
             "engine.batch_width", "engine.lane.host", "cluster.submit_ms",
             "cluster.hop_ms", "cluster.worker_ms", "cluster.spawn_s",
             "cluster.register_ms", "reference.scipy_ms"],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_smoke(workload, trace):
    result = run.execute(workload, seed=3, seconds=0.2, trace=bool(trace),
                         setups=1)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected_share = Fraction(1, 100) if workload == "wide" else 0
    assert Fraction(result["failed"], result["attempted"]) == expected_share
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])
        if not trace or m["name"] in USED_LAYERS[workload]:
            assert value["value"] > 0, m["name"]
    # the cluster phase's worker processes and the resource tracker that
    # spawning them started are all ended and reaped
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_used_layers_are_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    for names in USED_LAYERS.values():
        assert set(names) <= declared


class _Stolen:
    def __init__(self, stolen):
        self.stolen = stolen


def test_undisturbed_drops_stolen_rounds():
    items = [_Stolen(s) for s in (0.0, 0.2, 0.0, 0.03)]
    assert [x.stolen for x in workloads.undisturbed(items)] == [0.0, 0.0]
    # a quarter clean is still enough
    items = [_Stolen(s) for s in (0.1, 0.0, 0.03, 0.2)]
    assert [x.stolen for x in workloads.undisturbed(items)] == [0.0]
    # fewer than a quarter clean: the least-stolen half
    items = [_Stolen(s) for s in (0.3, 0.1, 0.2, 0.0, 0.4)]
    assert [x.stolen for x in workloads.undisturbed(items)] == [0.0, 0.1, 0.2]
    items = [_Stolen(s) for s in (0.3, 0.1, 0.2)]
    assert [x.stolen for x in workloads.undisturbed(items)] == [0.1, 0.2]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_cli_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "wide",
         "--seed", "5", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_cli_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("_spans", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
