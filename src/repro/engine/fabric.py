"""The executor fabric: one solve-unit path, run inline or in worker processes.

PR 5 made the ``(component, sense)`` pair the engine's unit of work;
this module makes it the unit of *dispatch*.  A :class:`SolveUnit` is a
fully picklable description of one solve — the dense BIP in canonical
column order, its fingerprint, deadline-carrying options, and the L2
cache path — and :func:`run_unit` is the one execution path every
fabric runs it through:

    L2 probe -> closed form (free blocks) -> backend solve -> L2 write

Two interchangeable fabrics schedule units:

* :class:`InlineFabric` — runs the unit on the calling thread (the
  serial engine path, zero scheduling overhead);
* :class:`ProcessFabric` — a ``ProcessPoolExecutor`` of forked workers;
  solves run on real cores.  Options are stripped of their unpicklable
  ``stop_check`` closure (the picklable ``deadline_at`` float and
  :class:`~repro.solver.cancel.CancelToken` survive), workers run with
  the null tracer (they must not write into the parent's span sinks),
  and each unit's ``engine.solve.*`` span comes home as a serialized
  record for :meth:`~repro.obs.tracer.Tracer.ingest` to re-parent into
  the request trace.

There is no thread-pool fabric: on every Q1-Q3 plan of the service
benchmark a two-thread pool measured no faster than inline, one request
at a time or four at once, the HiGHS-backed Q3 solves included.

The point of the abstraction: inline and process execution are
*configurations* of one code path, not two forks.  ``SolveSession``
talks only to the fabric interface; swapping ``--fabric inline`` for
``--fabric process`` changes scheduling, never semantics.

Worker-side telemetry is *repatriated*, not lost: each worker runs the
unit under a bounded :class:`~repro.obs.tracer.RecordingTracer`, so
solver-internal spans (``solver.solve``, ``bb.search`` with sampled
node events) come home as serialized records on the result, and the
worker's ``global_registry()`` delta (``repro_bb_nodes_per_solve`` and
friends, exemplars included) rides along for the parent to
``merge_delta`` — process-mode traces and ``/metrics`` are
indistinguishable from inline ones.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.engine.cache import CachedSolve
from repro.engine.l2cache import L2SolveCache
from repro.obs.tracer import Stopwatch
from repro.solver.cancel import CancelToken, create_scope, drop_scope
from repro.solver.decompose import closed_form
from repro.solver.interface import solve
from repro.solver.result import SolverOptions

__all__ = [
    "ExecutorFabric",
    "InlineFabric",
    "ProcessFabric",
    "SolveUnit",
    "UnitResult",
    "make_fabric",
    "run_unit",
]

FABRIC_KINDS = ("inline", "process")

# The unit-solve seam, kept by name: traced_serve.py wraps it, tests monkeypatch it.
portfolio_solve = solve


@dataclass
class SolveUnit:
    """One picklable ``(problem, sense)`` solve, ready for any fabric.

    ``problem`` is a prepared block in canonical column order, so the
    solver's vector is already the cache format.  ``authoritative`` marks
    a full-budget solve (no per-request deadline override) — the L2
    admission guard is stricter for non-authoritative outcomes.

    ``trace_id``/``sample_every`` seed the worker's recording tracer so
    repatriated spans and metric exemplars carry the *requesting*
    trace's id; ``repatriate=False`` turns worker-side telemetry
    capture off entirely (the overhead-benchmark control arm).
    """

    problem: object
    sense: str
    fingerprint: str
    options: SolverOptions
    authoritative: bool = True
    component: Optional[int] = None
    l2_path: Optional[str] = None
    trace_id: Optional[str] = None
    sample_every: int = 64
    repatriate: bool = True


@dataclass
class UnitResult:
    """The outcome of one unit, in canonical order (process-safe).

    ``spans`` carries serialized span records when the unit ran without
    an active tracer (i.e. in a worker process); the session ingests
    them into the request trace.  ``metrics_delta`` is the worker's
    :meth:`~repro.obs.export.MetricsRegistry.snapshot_delta` for this
    unit; the parent replays it into its own global registry.
    """

    fingerprint: str
    sense: str
    status: str
    objective: Optional[int] = None
    x_canonical: Optional[Tuple[int, ...]] = None
    bound: Optional[float] = None
    nodes: int = 0
    backend: str = ""
    solve_time: float = 0.0
    l2_hit: bool = False
    l2_stored: bool = False
    worker_pid: int = 0
    spans: list = field(default_factory=list)
    spans_dropped: int = 0
    metrics_delta: Optional[dict] = None

    @classmethod
    def from_cached(
        cls, fingerprint: str, sense: str, entry: CachedSolve, **fields
    ) -> "UnitResult":
        """A result carrying a cached outcome (``fields`` add the rest)."""
        return cls(
            fingerprint=fingerprint,
            sense=sense,
            status=entry.status,
            objective=entry.objective,
            x_canonical=entry.x_canonical,
            bound=entry.bound,
            nodes=entry.nodes,
            backend=entry.backend,
            **fields,
        )

    def to_cached(self) -> CachedSolve:
        return CachedSolve(
            status=self.status,
            objective=self.objective,
            x_canonical=self.x_canonical,
            bound=self.bound,
            nodes=self.nodes,
            backend=self.backend,
        )


# -- shared L2 handles --------------------------------------------------------
#: one L2 connection pool per database path, per process (forked workers
#: start with the parent's dict but their connections re-open pid-guarded)
_L2_HANDLES: Dict[str, L2SolveCache] = {}
_L2_LOCK = threading.Lock()


def l2_handle(path: Optional[str]) -> Optional[L2SolveCache]:
    """The process-local :class:`L2SolveCache` for ``path`` (memoized)."""
    if path is None:
        return None
    with _L2_LOCK:
        handle = _L2_HANDLES.get(path)
        if handle is None:
            handle = _L2_HANDLES[path] = L2SolveCache(path)
        return handle


# -- the one execution path ---------------------------------------------------
def _execute(unit: SolveUnit) -> UnitResult:
    l2 = l2_handle(unit.l2_path)
    if l2 is not None:
        read = Stopwatch()
        entry = l2.get(unit.fingerprint, unit.sense)
        if entry is not None:
            # An L2 hit's cost is its read: what fetching it again takes.
            return UnitResult.from_cached(
                unit.fingerprint, unit.sense, entry, l2_hit=True,
                solve_time=read.stop(), worker_pid=os.getpid(),
            )
    # Free blocks (objective-only variables) have an exact closed-form
    # optimum — no backend round-trip.
    solution = closed_form(unit.problem, unit.sense)
    if solution is None:
        # One exact solve on the backend the options name; 'auto' picks
        # the B&B for small blocks and HiGHS for large ones.
        solution = portfolio_solve(unit.problem, unit.sense, unit.options)
    result = UnitResult(
        fingerprint=unit.fingerprint,
        sense=unit.sense,
        status=solution.status,
        objective=solution.objective,
        x_canonical=None if solution.x is None else tuple(solution.x),
        bound=solution.bound,
        nodes=solution.nodes,
        backend=solution.backend,
        solve_time=solution.solve_time,
        worker_pid=os.getpid(),
    )
    if l2 is not None:
        result.l2_stored = l2.put(
            unit.fingerprint, unit.sense, result.to_cached(),
            authoritative=unit.authoritative,
        )
    return result


def run_unit(unit: SolveUnit) -> UnitResult:
    """Execute one unit under a span (live tracer) or a span record.

    The inline fabric opens a real ``engine.solve.{sense}`` span under
    the submitting caller's current span (none under the null tracer).
    In a forked worker the unit runs under a bounded
    :class:`~repro.obs.tracer.RecordingTracer` instead: the
    ``engine.solve.*`` span *and* everything the solver
    opens beneath it (``solver.solve``, ``bb.search`` node sampling)
    are serialized onto the result, together with the worker registry's
    metrics delta, for the parent to ingest/merge.  With
    ``repatriate=False`` a worker ships only the coarse
    ``engine.solve.*`` record.
    """
    from repro.obs.tracer import RecordingTracer, activate, current_tracer

    if _IN_WORKER and unit.repatriate:
        from repro.obs.export import global_registry

        recorder = RecordingTracer(
            trace_id=unit.trace_id, sample_every=unit.sample_every
        )
        with activate(recorder):
            with recorder.span(f"engine.solve.{unit.sense}") as span:
                result = _execute(unit)
                if unit.component is not None:
                    span.set("component", unit.component)
                span.set("cached", False).set("status", result.status)
                span.set("objective", result.objective).set("nodes", result.nodes)
                span.set("backend", result.backend)
                span.set("worker_pid", result.worker_pid)
                if result.l2_hit:
                    span.set("l2_hit", True)
        result.spans, result.spans_dropped = recorder.drain()
        result.metrics_delta = global_registry().snapshot_delta()
        return result

    tracer = current_tracer()
    if tracer.enabled:
        with tracer.span(f"engine.solve.{unit.sense}") as span:
            result = _execute(unit)
            if unit.component is not None:
                span.set("component", unit.component)
            span.set("cached", False).set("status", result.status)
            span.set("objective", result.objective).set("nodes", result.nodes)
            span.set("backend", result.backend)
            if result.l2_hit:
                span.set("l2_hit", True)
        return result
    if not _IN_WORKER:
        return _execute(unit)
    start_unix = time.time()
    t0 = time.perf_counter()
    result = _execute(unit)
    attributes = {
        "cached": False,
        "status": result.status,
        "objective": result.objective,
        "nodes": result.nodes,
        "backend": result.backend,
        "worker_pid": result.worker_pid,
    }
    if unit.component is not None:
        attributes["component"] = unit.component
    if result.l2_hit:
        attributes["l2_hit"] = True
    result.spans.append(
        {
            "name": f"engine.solve.{unit.sense}",
            "start_unix": start_unix,
            "duration": time.perf_counter() - t0,
            "status": "ok",
            "thread": threading.current_thread().name,
            "attributes": attributes,
        }
    )
    return result


# -- the fabrics --------------------------------------------------------------
class ExecutorFabric:
    """The interface ``SolveSession`` schedules solve units through.

    Subclasses implement :meth:`submit_unit` (returning a
    ``concurrent.futures.Future`` of :class:`UnitResult`) and may extend
    :meth:`close`.
    """

    kind = "base"

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))
        self._closed = False

    def submit_unit(self, unit: SolveUnit) -> Future:
        raise NotImplementedError

    def ping(self, timeout: float = 5.0) -> bool:
        """Liveness probe (deep health).  The inline fabric shares our
        fate, so reaching this code *is* the proof of life; the process
        fabric round-trips a no-op through a worker."""
        return not self._closed

    def close(self) -> None:
        self._closed = True

    def describe(self) -> dict:
        return {"kind": self.kind, "workers": self.workers}

    def __enter__(self) -> "ExecutorFabric":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class InlineFabric(ExecutorFabric):
    """Run units on the calling thread (the strictly-serial engine).

    Nothing can race an inline unit to cancel it, so no cancel token is
    attached; deadlines and caller-set tokens still apply.
    """

    kind = "inline"

    def __init__(self):
        super().__init__(workers=1)

    def submit_unit(self, unit: SolveUnit) -> Future:
        future: Future = Future()
        try:
            future.set_result(run_unit(unit))
        except BaseException as exc:  # noqa: BLE001 — future carries it
            future.set_exception(exc)
        return future


#: set only by :func:`_worker_init` — how :func:`run_unit` knows it is in
#: a forked worker (where spans must be recorded, not sunk) rather than
#: merely running under some enabled tracer.
_IN_WORKER = False


def _worker_init() -> None:
    """Process-pool initializer: sever inherited observability state.

    Forked children start with the parent's active tracer — including
    open JSONL file descriptors whose writes would interleave with the
    parent's.  The inherited tracer is replaced with the null one
    (:func:`run_unit` activates a per-unit recording tracer instead),
    and the inherited global-registry totals are baselined away so the
    first repatriated delta does not double-count the parent's history.
    """
    global _IN_WORKER
    import repro.obs.tracer as tracer_module
    from repro.obs.export import global_registry

    tracer_module._active = tracer_module.NULL_TRACER
    global_registry().snapshot_delta()
    _IN_WORKER = True


_FABRIC_IDS = itertools.count(1)

#: cancel-event slots per process fabric: slot 0 is the fabric-wide abort
#: signal, the rest are handed out round-robin by
#: :meth:`ProcessFabric.new_token`
_TOKEN_SLOTS = 33


class ProcessFabric(ExecutorFabric):
    """Schedule units on forked worker processes.

    The fabric owns one cancellation scope, created with the fork
    context's events *before* the pool exists, so workers inherit the
    registry and the picklable tokens resolve inside them: :meth:`abort`
    stops every in-flight unit cooperatively, and :meth:`new_token`
    mints a per-caller token for targeted cancellation.  ``stop_check``
    closures are stripped at submit (they cannot cross the boundary);
    absolute deadlines and cancel tokens survive.
    """

    kind = "process"

    def __init__(
        self,
        workers: int = 2,
        start_method: str = "fork",
        repatriate: bool = True,
    ):
        super().__init__(workers=workers)
        self._ctx = multiprocessing.get_context(start_method)
        self.repatriate = repatriate
        self._scope_name = f"repro-fabric-{os.getpid()}-{next(_FABRIC_IDS)}"
        self._token_slots = itertools.count(1)
        create_scope(self._scope_name, _TOKEN_SLOTS, factory=self._ctx.Event)
        # Fork every worker now, while the caller is (as a server's boot
        # is) the only thread: a child forked while serving threads hold
        # locks can inherit one held forever.  A fork-context pool
        # launches all its workers at its first submit (cpython #90622).
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._ctx, initializer=_worker_init
        )
        self._pool.submit(os.getpid)

    # -- cancellation ------------------------------------------------------
    @property
    def abort_token(self) -> CancelToken:
        return CancelToken(self._scope_name, 0)

    def new_token(self) -> CancelToken:
        """A fresh token for one caller-managed cancellation."""
        return CancelToken(
            self._scope_name, 1 + next(self._token_slots) % (_TOKEN_SLOTS - 1)
        )

    def abort(self) -> None:
        """Cooperatively stop every in-flight and queued unit."""
        self.abort_token.set()

    # -- scheduling --------------------------------------------------------
    def submit_unit(self, unit: SolveUnit) -> Future:
        # The fabric abort token rides along unless the caller set one;
        # the stop_check closure cannot cross the boundary.
        options = dataclasses.replace(
            unit.options,
            cancel=unit.options.cancel or self.abort_token,
            stop_check=None,
        )
        unit = dataclasses.replace(
            unit,
            options=options,
            repatriate=self.repatriate and unit.repatriate,
        )
        # The worker records span dicts; the parent re-parents them on ingest.
        return self._pool.submit(run_unit, unit)

    def ping(self, timeout: float = 5.0) -> bool:
        if self._closed:
            return False
        try:
            return isinstance(
                self._pool.submit(os.getpid).result(timeout=timeout), int
            )
        except Exception:  # noqa: BLE001 — any failure means "not healthy"
            return False

    def close(self) -> None:
        if self._closed:
            return
        self.abort()  # queued-but-unstarted units stop at their next poll
        self._pool.shutdown(wait=True)
        drop_scope(self._scope_name)
        super().close()

    def __del__(self):  # pragma: no cover - GC safety net for unclosed fabrics
        try:
            drop_scope(self._scope_name)  # idempotent after close()
        except Exception:
            pass


def make_fabric(kind: str, workers: int = 1, **kwargs) -> ExecutorFabric:
    """Build a fabric from CLI-ish configuration (``workers`` and
    ``kwargs`` configure the process pool; inline runs one unit at a
    time)."""
    if kind == "inline":
        return InlineFabric()
    if kind == "process":
        return ProcessFabric(workers, **kwargs)
    raise ValueError(f"unknown fabric kind {kind!r}; expected one of {FABRIC_KINDS}")
