"""Spans around the calls into each serving layer, kept in memory.

Nothing here is compiled into the program: :func:`traced` wraps public
entry points of ``repro`` for the duration of a ``with`` block and puts
the originals back on exit, so untraced rounds run the program exactly
as shipped.  Wrapped boundaries:

* inspector -- the artifact builders ``MatrixRegistry`` calls
  (``extract_features``, ``build_plan``, ``build_compiled_plan``);
* executor -- ``ExecutionPlan.solve_many`` and ``CompiledPlan.solve_many``;
* engine -- ``SolveEngine.solve``;
* cluster -- ``ShardRouter.submit`` (the cluster phase in
  ``workloads.py`` times spawn and register itself, around its calls).

An executor span's parent is the engine request that opened its batch:
the engine runs a batch in a copy of that request's context, so a
context variable set in the ``SolveEngine.solve`` wrapper reaches the
worker thread.  Other members of a coalesced batch have no executor
child.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Optional

import repro.serve.registry as registry_mod
from repro.serve.cluster import ShardRouter
from repro.serve.engine import SolveEngine
from repro.solvers.compiled import CompiledPlan
from repro.solvers.host_parallel import ExecutionPlan

#: The engine request span whose context the current code runs in.
_request: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar(
    "servebench_request", default=None
)


class Tracer:
    """In-memory span store; :meth:`write` dumps it as JSON lines."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: set-up currently running (index, ``None`` while measuring),
        #: stamped on every span
        self.setup: Optional[int] = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def new_id(self) -> int:
        """Reserve a span id for a span that children must name first."""
        return next(self._ids)

    def add(
        self,
        name: str,
        t0: float,
        t1: float,
        parent: Optional[int] = None,
        span_id: Optional[int] = None,
        **attrs,
    ) -> dict:
        """Record one finished span (times from ``perf_counter``)."""
        span = {
            "id": span_id if span_id is not None else self.new_id(),
            "name": name,
            "parent": parent,
            "setup": self.setup,
            "t0": t0,
            "t1": t1,
            "ms": (t1 - t0) * 1e3,
            **attrs,
        }
        with self._lock:
            self.spans.append(span)
        return span

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _plan_record(plan, kind: str) -> dict:
    """What one plan executes, from its array sizes."""
    compiled = kind == "compiled"
    return {
        "n_rows": plan.n_rows,
        "levels": plan.n_levels,
        # off-diagonal coefficients gathered per column; a compiled plan
        # also stores one b coefficient per row
        "gathers": (
            plan.coeff_nnz - plan.n_rows if compiled else len(plan.cols)
        ),
        "redundant_nnz": plan.redundant_nnz if compiled else 0,
        "nbytes": plan.nbytes,
    }


def bytes_per_rhs(info: dict, k: int) -> float:
    """Computed bytes one solve moves per right-hand side.

    The plan's arrays are read once per call and shared by its ``k``
    columns; each column reads ``b``, writes ``x`` and gathers one solved
    ``x`` value per off-diagonal coefficient (8 bytes each).  Cache reuse
    is ignored, so this is a count from array sizes, not a measurement.
    """
    return info["nbytes"] / k + 8.0 * (2 * info["n_rows"] + info["gathers"])


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def builder(name: str, kind: Optional[str]):
        def make(original):
            def wrapper(L, *args, **kwargs):
                t0 = time.perf_counter()
                out = original(L, *args, **kwargs)
                t1 = time.perf_counter()
                attrs = {"n_rows": L.n_rows}
                if kind is not None:
                    info = _plan_record(out, kind)
                    attrs.update(levels=info["levels"],
                                 redundant_nnz=info["redundant_nnz"])
                tracer.add(name, t0, t1, **attrs)
                return out
            return wrapper
        return make

    def executor(kind: str):
        def make(original):
            def wrapper(self, B, *args, **kwargs):
                t0 = time.perf_counter()
                out = original(self, B, *args, **kwargs)
                t1 = time.perf_counter()
                k = 1 if B.ndim == 1 else B.shape[1]
                req = _request.get()
                tracer.add(
                    "executor.solve_many", t0, t1,
                    parent=req["id"] if req is not None else None,
                    kind=kind, k=k,
                    bytes_per_rhs=bytes_per_rhs(_plan_record(self, kind), k),
                )
                if req is not None:
                    req["exec_ms"] += (t1 - t0) * 1e3
                return out
            return wrapper
        return make

    def engine_solve(original):
        async def wrapper(self, ref, b, *args, **kwargs):
            req = {"id": tracer.new_id(), "exec_ms": 0.0}
            token = _request.set(req)
            t0 = time.perf_counter()
            try:
                return await original(self, ref, b, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _request.reset(token)
                tracer.add("engine.solve", t0, t1, span_id=req["id"],
                           exec_ms=req["exec_ms"])
        return wrapper

    def router_submit(original):
        def wrapper(self, *args, **kwargs):
            t0 = time.perf_counter()
            fut = original(self, *args, **kwargs)
            tracer.add("cluster.submit", t0, time.perf_counter())
            return fut
        return wrapper

    patch(registry_mod, "extract_features", builder("inspector.features", None))
    patch(registry_mod, "build_plan", builder("inspector.plan", "host"))
    patch(registry_mod, "build_compiled_plan",
          builder("inspector.compiled_plan", "compiled"))
    patch(ExecutionPlan, "solve_many", executor("host"))
    patch(CompiledPlan, "solve_many", executor("compiled"))
    patch(SolveEngine, "solve", engine_solve)
    patch(ShardRouter, "submit", router_submit)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
