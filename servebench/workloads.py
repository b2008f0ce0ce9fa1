"""The two seeded workloads and the closed-loop client that drives them.

Every workload is a closed loop: one client in one process sends its
next single-RHS request only when its previous one has been answered,
so one request is in flight.  Requests come in *rounds*, each a fixed
multiset of operations in a seeded order; a run attempts whole rounds
only, so the share of failed operations is the same in every run.
Answers are checked between rounds, off the clock.  Rounds and set-ups
during which the hypervisor stole CPU time from the machine are left
out of the medians (:data:`STOLEN_MAX`).  Set-ups and rounds run on
one CPU (:func:`one_cpu`).

``deep``
    Deep, skinny matrices (chain and FEM-banded, 5k-20k rows, thousands
    of levels).  ``execution="auto"`` sends them to the compiled lane
    with merged schedules: the executor is most of each request and
    ``merge_levels`` most of set-up.
``wide``
    Wide, shallow matrices (circuit, combinatorial, LP, graph, random;
    4k-8k rows, under 64 levels) with skewed popularity, on the host
    lane.  The executor takes about as long as the engine's admit ->
    batch -> thread hop -> publish, so this shows engine overhead.  One
    request in 100 carries a NaN in ``b`` and passes only when it is
    refused with a ``ServeError``.
A ``wide`` run with ``--trace 1`` also pushes the mix, without the NaN
request, through a two-worker ``ShardRouter`` with its default settings,
so the cluster layer (frame encode -> slab/pipe -> worker -> reply, and
worker spawn) is traced too.  It is not an end-to-end workload of its
own: on a 2-vCPU virtual machine its figures swung by 40-130%
between runs of the same code whenever the host was busy.  A numeric
refresh workload (register new values of a fixed pattern, then solve
four right-hand sides) was dropped for the same reason: its median
moved 28-38% between two ten-seed sets of the same code.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import os
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.datasets import domains, graphs, synthetic
from repro.errors import ReproError, ServeError
from repro.serve import ShardRouter, SolveEngine
from repro.sparse.csr import CSRMatrix

import checks
from tracing import Tracer, traced

#: Set-ups per run; ``setup_s`` is their median.  A ``deep`` set-up
#: merges thousands of levels (seconds); a ``wide`` one takes a fraction
#: of a second, so it is repeated more to steady the median.
SETUPS = {"deep": 7, "wide": 9}

#: One request in flight.  The requests are GIL-bound executor loops,
#: and two in flight time-slice the interpreter lock, so a request's
#: latency mostly measured which request ran beside it (the ``wide``
#: p90 moved 27% between runs of the same code).  The traced cluster
#: phase of ``wide`` keeps one too: the ring places the six
#: content-addressed keys on the two workers differently for every seed
#: (6% to 86% of the traffic on one worker over seeds 1-10), so two in
#: flight would measure the placement.

#: Longest wait for any one cluster reply before the run is abandoned.
CLUSTER_WAIT_S = 60.0

#: A round or set-up during which the hypervisor took more than this
#: share of the machine's CPU time (the ``steal`` column of
#: ``/proc/stat``) is left out of the medians.  On a 2-vCPU virtual
#: machine a ``wide`` request takes 1-2 ms; a stolen slice of the vCPU
#: that a thread hop waits on makes it several times longer, and a busy
#: host swung ten-seed spreads of ``wide`` from 7% to 33-92%.  The share
#: is zero: in a ten-minute ``wide`` log, rounds with one stolen tick
#: (a 2-5% share) were already 16% slower than rounds with none.
STOLEN_MAX = 0.0

#: When fewer than this share of the rounds (or set-ups) were
#: undisturbed, the medians use the least-stolen half instead.
CLEAN_MIN = 0.25

#: Serving ends after this many times ``--seconds`` even when fewer than
#: ``--seconds`` of it were undisturbed.
SERVING_CAP = 2

GENERATORS: dict[str, Callable[..., CSRMatrix]] = {
    "chain": synthetic.chain,
    "banded": synthetic.banded,
    "circuit": domains.circuit,
    "combinatorial": domains.combinatorial,
    "lp": domains.linear_programming,
    "scale-free": graphs.scale_free_graph,
    "road": graphs.road_network,
    # three dependencies per row keep it at 36-48 levels on every seed;
    # the default four reach 64 on some, where ``auto`` flips it to the
    # compiled lane and the seed, not the program, moves ``setup_s``
    "random": functools.partial(synthetic.random_lower, avg_nnz_per_row=3.0),
}


@dataclass(frozen=True)
class Spec:
    """One workload matrix: generator, size and requests per round."""

    domain: str
    n_rows: int
    weight: int

    @property
    def name(self) -> str:
        return f"{self.domain}-{self.n_rows // 1000}k"


#: Weights put a round's median request on ``banded-10k`` and its 90th
#: percentile on ``chain-20k``, whose latencies are well apart from
#: their neighbours', so neither percentile sits on the seam between
#: two matrices.
DEEP = (
    Spec("chain", 5000, 3),
    Spec("banded", 5000, 3),
    Spec("banded", 10000, 6),
    Spec("chain", 10000, 4),
    Spec("chain", 20000, 4),
)

#: Skewed popularity: the weights fall roughly as 1/rank and sum to 99,
#: so with one NaN request a ``wide`` round is exactly 100 requests.
WIDE = (
    Spec("circuit", 8000, 40),
    Spec("combinatorial", 6000, 24),
    Spec("lp", 8000, 15),
    Spec("scale-free", 5000, 10),
    Spec("road", 6000, 6),
    Spec("random", 4000, 4),
)

WORKLOADS = ("deep", "wide")


def generate(specs, seed: int) -> list[CSRMatrix]:
    """The workload's matrices; each generator gets its own seed."""
    out = []
    for i, spec in enumerate(specs):
        sub = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        out.append(GENERATORS[spec.domain](spec.n_rows, sub))
    return out


def nan_rhs(n: int) -> np.ndarray:
    """The poisoned right-hand side: the same on every seed."""
    b = np.ones(n)
    b[0] = np.nan
    return b


# ---------------------------------------------------------------------------
# operations and samples
# ---------------------------------------------------------------------------
@dataclass
class Op:
    """One single-RHS request."""

    ref: str
    b: np.ndarray
    A: object  # scipy CSR of the matrix, for the checks
    poison: bool = False


@dataclass
class Sample:
    """One answered (or refused) request, timed by the client."""

    op: Op
    result: object  # SolveResponse / ClusterResponse / ReproError
    t0: float
    t1: float

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3

    @property
    def answered(self) -> bool:
        return not isinstance(self.result, Exception)

    def record(self) -> "Record":
        r = self.result
        answered = self.answered
        return Record(
            ms=self.ms,
            poison=self.op.poison,
            answered=answered,
            refused=isinstance(r, ServeError),
            lane=r.lane if answered else "",
            batch_width=r.batch_width if answered else 0,
            served_ms=r.latency_ms if answered else 0.0,
        )


@dataclass(frozen=True)
class Record:
    """What the metrics need of one request once its answer is checked
    (the arrays are dropped: a run answers thousands of requests)."""

    ms: float
    poison: bool
    answered: bool
    refused: bool
    lane: str
    batch_width: int
    #: latency the serving side reports (the worker's, via a router)
    served_ms: float


async def engine_round(engine: SolveEngine, ops: list[Op]) -> list[Sample]:
    """One closed-loop client sends the ops in order."""
    samples: list[Sample] = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = await engine.solve(op.ref, op.b)
        except ReproError as exc:
            result = exc
        samples.append(Sample(op, result, t0, time.perf_counter()))
    return samples


def cluster_round(router: ShardRouter, ops: list[Op]) -> list[Sample]:
    """One request at a time through ``ShardRouter.submit``."""
    samples: list[Sample] = []
    for op in ops:
        done_at: list[float] = []
        t0 = time.perf_counter()
        fut = router.submit(op.ref, op.b, single=True)
        fut.add_done_callback(lambda _f: done_at.append(time.perf_counter()))
        try:
            result = fut.result(timeout=CLUSTER_WAIT_S)
        except ReproError as exc:
            result = exc
        # result() can return before the done callback has run
        t1 = done_at[0] if done_at else time.perf_counter()
        samples.append(Sample(op, result, t0, t1))
    return samples


# ---------------------------------------------------------------------------
# run state
# ---------------------------------------------------------------------------
def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the machine so far, from ``/proc/stat``;
    (0, 0) where it cannot be read, which counts as nothing stolen."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return ticks[7], sum(ticks)


class Stopwatch:
    """Wall time of a block and the share of CPU time stolen meanwhile."""

    seconds: float
    stolen: float

    def __enter__(self) -> "Stopwatch":
        self._ticks = cpu_ticks()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0
        stolen, total = (b - a for a, b in zip(self._ticks, cpu_ticks()))
        self.stolen = stolen / total if total > 0 else 0.0


def undisturbed(items: list) -> list:
    """The items (with a ``stolen`` share) measured while at most
    :data:`STOLEN_MAX` was stolen; the least-stolen half when fewer
    than :data:`CLEAN_MIN` of them were."""
    clean = [x for x in items if x.stolen <= STOLEN_MAX]
    if clean and len(clean) >= CLEAN_MIN * len(items):
        return clean
    return sorted(items, key=lambda x: x.stolen)[: (len(items) + 1) // 2]


@dataclass
class Round:
    """One measured round of requests."""

    traced: bool
    seconds: float
    stolen: float
    records: list[Record]

    @property
    def latencies(self) -> list[float]:
        """Client-timed request latencies, NaN requests left out."""
        return [r.ms for r in self.records if not r.poison]


@dataclass
class Run:
    """Everything one run measured."""

    workload: str
    trace: bool
    setups: list[Stopwatch] = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    spawn_s: list[float] = field(default_factory=list)
    register_ms: list[float] = field(default_factory=list)
    scipy_ms: list[float] = field(default_factory=list)
    #: requests of the traced cluster phase of ``wide``
    cluster_records: list[Record] = field(default_factory=list)
    tracer: Tracer = field(default_factory=Tracer)

    def check(self, samples: list[Sample]) -> None:
        """Check every answer; a wrong or missing one is a failed op.

        A NaN request passes only when it was refused with a
        ``ServeError``; its failure does not make the run incorrect,
        because it is the known admission fault, not a wrong answer.
        """
        for s in samples:
            if s.op.poison:
                ok = isinstance(s.result, ServeError)
            else:
                ok = s.answered and checks.answer_ok(s.op.A, s.result.x, s.op.b)
                if not ok:
                    self.correct = False
            self.attempted += 1
            self.failed += not ok

    def check_reference(self, samples: list[Sample]) -> None:
        """Set-up check: each fixed-RHS answer against scipy's solve."""
        for s in samples:
            if not (s.answered and checks.matches_reference(
                s.op.A, s.result.x, s.op.b
            )):
                self.correct = False

    def time_reference(self, samples: list[Sample]) -> None:
        """scipy's serial solve of each distinct matrix a round served."""
        seen = set()
        for s in samples:
            if s.op.ref not in seen and not s.op.poison:
                seen.add(s.op.ref)
                self.scipy_ms.append(checks.reference_solve(s.op.A, s.op.b)[1])

    def measure(self, engine: SolveEngine, loop, make_round: Callable[[], list],
                seconds: float) -> None:
        """Serve whole rounds until ``seconds`` of undisturbed serving
        time are spent, or :data:`SERVING_CAP` times that in all.

        In a traced run every other round is traced; the untraced rounds
        in between give the tracing overhead.
        """
        clean = total = 0.0
        while ((clean < seconds and total < SERVING_CAP * seconds)
               or len(self.rounds) < (2 if self.trace else 1)):
            ops = make_round()
            is_traced = self.trace and len(self.rounds) % 2 == 1
            with traced(self.tracer) if is_traced else nullcontext():
                with Stopwatch() as sw:
                    samples = loop.run_until_complete(engine_round(engine, ops))
            total += sw.seconds
            if sw.stolen <= STOLEN_MAX:
                clean += sw.seconds
            self.check(samples)
            if is_traced:
                self.time_reference(samples)
            self.rounds.append(Round(is_traced, sw.seconds, sw.stolen,
                                     [s.record() for s in samples]))


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def _fixed_ops(names, mats, As) -> list[Op]:
    """One request per matrix with the fixed RHS the set-up check uses."""
    return [Op(n, np.ones(L.n_rows), A) for n, L, A in zip(names, mats, As)]


def _request_rounds(specs, mats, As, rng, *, poison: bool):
    """Round factory: each matrix ``weight`` times, plus one NaN request."""
    names = [s.name for s in specs]

    def make_round() -> list[Op]:
        ops = [
            Op(names[i], rng.standard_normal(mats[i].n_rows), As[i])
            for i, spec in enumerate(specs)
            for _ in range(spec.weight)
        ]
        if poison:
            ops.append(Op(names[0], nan_rhs(mats[0].n_rows), As[0],
                          poison=True))
        return [ops[i] for i in rng.permutation(len(ops))]

    return make_round


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setups: Optional[int] = None) -> Run:
    """Set up ``setups`` times (default :data:`SETUPS`), then serve whole
    rounds for ``seconds`` on the last set-up's engine.

    A set-up is timed from the engine's construction until every matrix
    of the workload has been answered once, with the fixed RHS whose
    answers are then compared with scipy.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
    if setups is None:
        setups = SETUPS[name]
    seed %= 1 << 64  # numpy seeds are non-negative
    specs = DEEP if name == "deep" else WIDE
    mats = generate(specs, seed)
    As = [checks.to_scipy(L) for L in mats]
    names = [s.name for s in specs]
    rng = np.random.default_rng(seed)
    run = Run(name, trace)
    with one_cpu():
        loop = asyncio.new_event_loop()
        engine = None
        try:
            for i in range(setups):
                if engine is not None:
                    loop.run_until_complete(engine.close())
                    engine = None
                    gc.collect()
                run.tracer.setup = i
                with traced(run.tracer) if trace else nullcontext():
                    with Stopwatch() as sw:
                        engine = SolveEngine()
                        for n, L in zip(names, mats):
                            engine.register(L, name=n)
                        samples = loop.run_until_complete(
                            engine_round(engine, _fixed_ops(names, mats, As)))
                run.setups.append(sw)
                run.check_reference(samples)
            run.tracer.setup = None
            make_round = _request_rounds(specs, mats, As, rng,
                                         poison=name == "wide")
            run.measure(engine, loop, make_round, seconds)
        finally:
            if engine is not None:
                loop.run_until_complete(engine.close())
            loop.close()
    if trace and name == "wide":
        try:
            _trace_cluster(run, specs, mats, As, rng, seconds / 2)
        finally:
            stop_helper_processes()
    return run


@contextmanager
def one_cpu():
    """Run this thread, and every thread it starts meanwhile, on one CPU.

    The engine hands each request from the event loop to an executor
    thread and back.  Left to the scheduler, those hand-offs wake the
    other vCPU of the virtual machine, and a busy host makes that wake-up
    slow: alternating blocks of ``wide`` rounds in one process took a
    median 0.14 s per round on either single CPU and 0.275 s unpinned,
    and only the unpinned rounds showed stolen time.  With one request
    in flight the GIL-bound requests never run in parallel, so one CPU
    costs them nothing.  The original mask is restored on exit.
    """
    try:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
    except (AttributeError, OSError):  # not Linux, or not permitted
        yield
        return
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def stop_helper_processes() -> None:
    """End every process ``multiprocessing`` started, and wait for each.

    ``ShardRouter.close`` joins its workers, but spawning them also
    started the interpreter's resource-tracker process, which by design
    outlives its parent; left alone it ends only after the run has
    exited, unreaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def _trace_cluster(run: Run, specs, mats, As, rng, seconds: float) -> None:
    """Traced cluster phase of ``wide``: the same mix through a router.

    Its answers are checked like every other, but not counted in
    ``attempted``, so a traced ``wide`` run keeps the failed share of an
    untraced one.
    """
    names = [s.name for s in specs]
    make_round = _request_rounds(specs, mats, As, rng, poison=False)
    counted = (run.attempted, run.failed)
    with traced(run.tracer):
        t0 = time.perf_counter()
        router = ShardRouter()
        run.spawn_s.append(time.perf_counter() - t0)
    try:
        with traced(run.tracer):
            for n, L in zip(names, mats):
                t0 = time.perf_counter()
                router.register(L, name=n)
                run.register_ms.append((time.perf_counter() - t0) * 1e3)
            run.check_reference(
                cluster_round(router, _fixed_ops(names, mats, As)))
        serving = 0.0
        while serving < seconds or not run.cluster_records:
            ops = make_round()
            with traced(run.tracer):
                t0 = time.perf_counter()
                samples = cluster_round(router, ops)
                serving += time.perf_counter() - t0
            run.check(samples)
            run.cluster_records += [s.record() for s in samples]
    finally:
        router.close()
    run.attempted, run.failed = counted


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def _rounds(run: Run, traced_rounds: bool) -> list[Round]:
    """The run's undisturbed rounds, traced or untraced."""
    return undisturbed([r for r in run.rounds if r.traced == traced_rounds])


def _latency(run: Run, traced_rounds: bool, q: float) -> float:
    """Median over rounds of each round's ``q``-th latency percentile.

    Every round serves the same multiset of requests, so each round's
    percentile estimates the same quantity; rounds a neighbour on a
    shared machine slowed down move the median of them little, where
    they would move a percentile over all samples.
    """
    return _median(float(np.percentile(r.latencies, q))
                   for r in _rounds(run, traced_rounds))


def _throughput(run: Run, traced_rounds: bool) -> float:
    """Median over rounds of RHS answered per second of the round.

    Every round serves the same multiset of requests, so round rates
    are comparable; the median drops rounds that a neighbour on a
    shared machine slowed down.
    """
    return _median(
        sum(1 for s in r.records if s.answered and not s.poison) / r.seconds
        for r in _rounds(run, traced_rounds)
    )


def end_to_end(run: Run) -> dict[str, float]:
    """The user-visible numbers, from untraced rounds only."""
    return {
        "setup_s": _median(s.seconds for s in undisturbed(run.setups)),
        "throughput_rhs_s": _throughput(run, False),
        "latency_p50_ms": _latency(run, False, 50),
        "latency_p90_ms": _latency(run, False, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Run) -> dict[str, float]:
    """Per-layer numbers from the traced rounds and traced set-ups."""
    tr = run.tracer
    measured = [s for s in tr.spans if s["setup"] is None]
    records = [rec for r in run.rounds if r.traced for rec in r.records]
    answered = [r for r in records if r.answered]
    last_setup = [s for s in tr.spans
                  if s["name"] in ("inspector.plan", "inspector.compiled_plan")
                  and s["setup"] == len(run.setups) - 1]
    builds = [s for s in tr.spans if s["name"].startswith("inspector.")]
    batches = sum(1.0 / s.batch_width for s in answered)

    out = {
        "inspector.levels_ms": _median(
            s["ms"] for s in tr.named("inspector.features")),
        "inspector.compiled_ms": _median(
            s["ms"] for s in tr.named("inspector.compiled_plan")),
        "inspector.plan_ms": _median(
            s["ms"] for s in tr.named("inspector.plan")),
        "inspector.builds": float(len(builds)),
        "inspector.executed_levels": float(sum(s["levels"] for s in last_setup)),
        "inspector.redundant_nnz": float(
            sum(s["redundant_nnz"] for s in last_setup)),
        "engine.batches": batches,
        "engine.batch_width": len(answered) / batches if batches else 0.0,
        "engine.lane.host": float(
            sum(1 for s in answered if s.lane == "host")),
        "engine.lane.compiled": float(
            sum(1 for s in answered if s.lane == "compiled")),
        "engine.rejected": float(
            sum(1 for r in records if r.refused)),
        "cluster.spawn_s": _median(run.spawn_s),
        "cluster.register_ms": _median(run.register_ms),
        "reference.scipy_ms": _median(run.scipy_ms),
    }
    calls = [s for s in measured if s["name"] == "executor.solve_many"]
    requests = [s for s in measured
                if s["name"] == "engine.solve" and s["exec_ms"] > 0]
    hops = [s for s in run.cluster_records if s.answered]
    out.update({
        "executor.solve_ms": _median(s["ms"] for s in calls),
        "executor.busy_s": sum(s["ms"] for s in calls) / 1e3,
        "executor.rhs_per_call": _mean(s["k"] for s in calls),
        "executor.bytes_per_rhs": _mean(s["bytes_per_rhs"] for s in calls),
        "engine.overhead_ms": _median(
            s["ms"] - s["exec_ms"] for s in requests),
        "cluster.submit_ms": _median(
            s["ms"] for s in measured if s["name"] == "cluster.submit"),
        # router latency minus the latency the worker reports
        "cluster.hop_ms": _median(s.ms - s.served_ms for s in hops),
        "cluster.worker_ms": _median(s.served_ms for s in hops),
    })
    out["trace.overhead_p50_pct"] = (
        _latency(run, True, 50) / _latency(run, False, 50) - 1.0
    ) * 100.0
    return out
