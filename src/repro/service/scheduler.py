"""Concurrent request scheduling: admission, deadlines, in-flight dedup.

The scheduler is the service's core loop.  Requests enter a queue under a
*bounded admission count* (admission control: a full queue rejects
immediately with 429-semantics rather than building unbounded backlog)
and a worker pool drains it.  Each worker:

1. opens a ``service.request`` root span under a **fresh trace id**, so
   the request's whole scheduler → engine → solver span tree is
   distinguishable in the shared JSONL stream;
2. evaluates the LICM plan and *prepares* the BIP under the encoding's
   model lock (plan evaluation appends lineage to the shared model, so it
   must be serialized per model; the expensive solves happen outside);
3. **dedups in-flight work** at two levels: identical requests coalesce
   *before* plan evaluation (the request's dedup key) and reuse the
   leader's published bounds; distinct requests that prepare to the same
   canonical BIP fingerprint coalesce on the fingerprint and read the
   answer through the session's solve cache — either way, identical
   concurrent problems cost one engine solve.  The leader solves on its
   own worker; only followers **park**: they attach a completion
   callback to the leader's flight and release their worker slot instead
   of blocking on an event, so a burst of identical requests cannot
   starve the pool.  A deadline-monitor thread fires the degrade path
   for any parked request whose budget runs out first;
4. answers at the request's **precision** through one call,
   :meth:`~repro.estimator.TieredAnswerer.answer`: ``tight`` solves every
   component exactly; ``fast``/``balanced`` consult the tiered estimator
   ladder (:mod:`repro.estimator`) per decomposed component and escalate
   only disagreeing components to the exact solver — estimated bounds
   are per-request only and never enter the shared solve caches;
5. enforces the request **deadline** with a deadline-clamped
   ``time_limit`` plus the solver's absolute ``deadline_at`` (picklable —
   it crosses into forked solve workers, unlike a closure); a solve cut
   short by its budget **degrades** down the ladder — a fast estimator
   interval (provably containing the exact range) whenever the request
   holds a prepared problem, the Monte Carlo estimator (observed range ⊆
   exact range) only without one — instead of hanging, and a request
   with neither rung available answers ``timeout``.

Every request therefore reaches a terminal status — ``ok``, ``degraded``,
``timeout``, ``rejected`` or ``error`` — the service's no-hang invariant.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import itertools
import logging
import queue
import threading
import time
from collections import deque
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import InfeasibleError, ServiceError, ValidationError
from repro.estimator import (
    PRECISION_FAST,
    PRECISION_TIGHT,
    TIER_EXACT,
    TieredAnswerer,
)
from repro.mc import run_monte_carlo
from repro.obs.export import ESTIMATOR_BUCKETS, MetricsRegistry
from repro.obs.logs import request_logger, wide_event
from repro.obs.profiler import active_profiler, tagged
from repro.obs.slo import SLOTracker
from repro.obs.tracer import current_tracer, new_trace_id
from repro.queries.licm_eval import evaluate_licm
from repro.queries.workload import QUERY_BUILDERS
from repro.relational.query import CountStar, MaxAttr, MinAttr, NaturalJoin, Scan, SumAttr
from repro.service.api import (
    PRECISIONS,
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    QueryRequest,
    QueryResponse,
)
from repro.solver.result import SolverOptions

logger = logging.getLogger(__name__)


def _percentile(samples, fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


class SchedulerStats:
    """Thread-safe counters + a bounded latency reservoir (for p50/p99)."""

    def __init__(self, latency_window: int = 2048):
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.rejected_full = 0
        self.dedup_hits = 0
        self.deadline_misses = 0
        self.by_status: Dict[str, int] = {}
        self._latencies = deque(maxlen=latency_window)
        self._solve_latencies = deque(maxlen=latency_window)

    def record_submit(self) -> None:
        with self._lock:
            self.submitted += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected_full += 1
            self.by_status[STATUS_REJECTED] = self.by_status.get(STATUS_REJECTED, 0) + 1

    def record_dedup_hit(self) -> None:
        with self._lock:
            self.dedup_hits += 1

    def record_deadline_miss(self) -> None:
        with self._lock:
            self.deadline_misses += 1

    def record_done(self, status: str, total_s: float, solve_s: float) -> None:
        with self._lock:
            self.completed += 1
            self.by_status[status] = self.by_status.get(status, 0) + 1
            self._latencies.append(total_s)
            self._solve_latencies.append(solve_s)

    def snapshot(self) -> dict:
        with self._lock:
            latencies = list(self._latencies)
            solves = list(self._solve_latencies)
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected_full": self.rejected_full,
                "dedup_hits": self.dedup_hits,
                "deadline_misses": self.deadline_misses,
                "by_status": dict(self.by_status),
                "latency_p50_s": _percentile(latencies, 0.50),
                "latency_p99_s": _percentile(latencies, 0.99),
                "solve_p50_s": _percentile(solves, 0.50),
                "solve_p99_s": _percentile(solves, 0.99),
                "latency_samples": len(latencies),
            }


class _Flight:
    """One in-flight unit of work, continued by deduped followers.

    The leader publishes its ``fingerprint`` and (tight) ``answer``
    before :meth:`finish` fires the attached callbacks; followers reuse
    them directly.  ``answer`` stays ``None`` when the leader failed or
    answered at an estimated precision, and is inexact when its solve was
    cut short by *its* deadline — followers then answer under their own
    budget.
    """

    __slots__ = ("key", "fingerprint", "answer", "_lock", "_callbacks", "_finished")

    def __init__(self, key: tuple):
        self.key = key
        self.fingerprint = None
        self.answer = None
        self._lock = threading.Lock()
        self._callbacks: list = []
        self._finished = False

    def attach(self, callback) -> bool:
        """Register a completion callback; False if already finished
        (the caller should run its continuation itself)."""
        with self._lock:
            if not self._finished:
                self._callbacks.append(callback)
                return True
        return False

    def finish(self) -> None:
        with self._lock:
            self._finished = True
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback()
            except Exception:  # noqa: BLE001 — one follower must not block others
                logger.exception("flight continuation failed")


class _Task:
    """An internal work item (a parked follower's continuation).

    ``on_shutdown`` runs instead of ``run`` when the scheduler closes
    before the task executes — it must still drive the owning request to
    a terminal response (the no-hang invariant).
    """

    __slots__ = ("run", "on_shutdown")

    def __init__(self, run, on_shutdown):
        self.run = run
        self.on_shutdown = on_shutdown


class _Pending:
    """A submitted request waiting for (or holding) its terminal response."""

    __slots__ = (
        "request",
        "enqueued",
        "deadline_at",
        "_done",
        "_claim_lock",
        "_claimed",
        "response",
        "explain_ctx",
        "queue_ms",
        "trace_id",
    )

    def __init__(self, request: QueryRequest, deadline_at: Optional[float]):
        self.request = request
        self.enqueued = time.monotonic()
        self.deadline_at = deadline_at
        self._done = threading.Event()
        self._claim_lock = threading.Lock()
        self._claimed = False
        self.response: Optional[QueryResponse] = None
        #: Set at the start of each serve attempt: the admission-to-worker
        #: wait and the attempt's trace id, reported by every response.
        self.queue_ms = 0.0
        self.trace_id: Optional[str] = None
        #: EXPLAIN raw material captured while it is in scope (the
        #: decomposition map, tier provenance, IIS) — assembled into the
        #: response's ``explain`` block at completion.
        self.explain_ctx: dict = {}

    def claim(self) -> bool:
        """First-wins completion right: a parked request can be finished
        by its leader's continuation *or* the deadline monitor — whichever
        claims first owns the terminal response."""
        with self._claim_lock:
            if self._claimed:
                return False
            self._claimed = True
            return True

    def finish(self, response: QueryResponse) -> None:
        self.response = response
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> Optional[QueryResponse]:
        """Block until the terminal response (None only on wait timeout)."""
        if self._done.wait(timeout):
            return self.response
        return None

    @property
    def done(self) -> bool:
        return self._done.is_set()


def _adhoc_plan(encoded, aggregate: str):
    """An ad-hoc aggregate over the uncertain (TID, ItemName) view."""
    view = encoded.transitem_plan()
    if aggregate == "count":
        return CountStar(view)
    priced = NaturalJoin(view, Scan("ITEM"))
    if aggregate == "sum":
        return SumAttr(priced, "Price")
    if aggregate == "min":
        return MinAttr(priced, "Price")
    return MaxAttr(priced, "Price")


class QueryScheduler:
    """Admission-bounded, worker-pool executor for aggregate-bound requests.

    :param context: an :class:`~repro.experiments.runner.ExperimentContext`
        holding the resident encodings and shared solve sessions.
    :param workers: worker threads draining the queue.
    :param max_queue: admission bound on queued *external* requests; at
        the bound new requests are rejected.  Internal continuations
        (parked followers resuming) are not admission-bounded — they are
        already-admitted work.
    :param default_deadline_ms: applied when a request carries none
        (``None`` = no deadline).
    :param allow_cold: build encodings on first use instead of rejecting
        requests for un-warmed ``(scheme, k)`` pairs (tests convenience;
        production serving should :meth:`warm` explicitly).
    :param slow_threshold_ms: requests whose end-to-end latency exceeds
        this are captured into ``slow_log`` (``None`` disables capture).
    :param slow_log: a :class:`~repro.obs.slowlog.SlowQueryRing` receiving
        one document per slow request.
    :param span_buffer: a :class:`~repro.obs.slowlog.SpanBuffer` attached
        to the serving tracer; the scheduler pops each request's span
        tree from it on completion (persisted only for slow requests).
    :param slo: a :class:`~repro.obs.slo.SLOTracker` fed one event per
        terminal response (a fresh default-config tracker otherwise).
    :param default_precision: applied when a request carries no
        ``precision`` — ``tight`` (exact, the historical behavior),
        ``balanced`` or ``fast``; see :mod:`repro.estimator`.
    :param estimator_tolerance: two consecutive estimator tiers whose
        intervals agree within this distance short-circuit the cascade.
    """

    def __init__(
        self,
        context,
        workers: int = 4,
        max_queue: int = 64,
        default_deadline_ms: Optional[float] = None,
        allow_cold: bool = False,
        slow_threshold_ms: Optional[float] = None,
        slow_log=None,
        span_buffer=None,
        slo=None,
        default_precision: str = PRECISION_TIGHT,
        estimator_tolerance: float = 1e-6,
    ):
        if default_precision not in PRECISIONS:
            raise ValueError(
                f"default_precision must be one of {PRECISIONS}, "
                f"got {default_precision!r}"
            )
        self.context = context
        self.default_precision = default_precision
        self.answerer = TieredAnswerer(tolerance=estimator_tolerance)
        self.workers = max(1, int(workers))
        self.max_queue = max(1, int(max_queue))
        self.default_deadline_ms = default_deadline_ms
        self.allow_cold = allow_cold
        self.slow_threshold_ms = slow_threshold_ms
        self.slow_log = slow_log
        self.span_buffer = span_buffer
        self.slo = slo or SLOTracker()
        self.stats = SchedulerStats()
        # Real latency *distributions* (the /metrics histograms) live here,
        # one registry per scheduler so concurrent schedulers in one
        # process (tests) never cross-pollute.  Every observation carries a
        # trace-id exemplar when the request ran under an active tracer.
        self.metrics = MetricsRegistry()
        self._hist_queue_wait = self.metrics.histogram(
            "service_queue_wait_seconds", "Admission-to-worker queue wait"
        )
        self._hist_solve = self.metrics.histogram(
            "service_solve_duration_seconds", "BIP solve wall per request"
        )
        self._hist_total = self.metrics.histogram(
            "service_request_duration_seconds",
            "End-to-end request latency (terminal status as label)",
        )
        # Tiered-answering provenance: who served the request, which
        # components escalated, and how long each tier spent (the fine
        # ESTIMATOR_BUCKETS resolve the microsecond closed-form tiers).
        self._estimator_requests = self.metrics.counter(
            "estimator_requests_total",
            "Requests answered, by serving tier and effective precision",
        )
        self._estimator_components = self.metrics.counter(
            "estimator_components_total",
            "Components answered by the tiered path, by outcome",
        )
        self._estimator_escalations = self.metrics.counter(
            "estimator_escalations_total",
            "Components escalated from estimator tiers to the exact solver",
        )
        self._hist_estimator = self.metrics.histogram(
            "estimator_tier_seconds",
            "Wall seconds spent per answering tier for one request",
            buckets=ESTIMATOR_BUCKETS,
        )
        # The queue itself is unbounded: it carries external requests
        # (bounded by the _external_queued admission counter) plus
        # internal continuation tasks, which must never be refused —
        # refusing one would strand an already-admitted request.
        self._queue: "queue.Queue" = queue.Queue()
        self._depth_lock = threading.Lock()
        self._external_queued = 0
        # Keyed at two levels: ("request", *dedup_key) before plan
        # evaluation and ("bip", fingerprint) after preparation.
        self._inflight: Dict[tuple, _Flight] = {}
        self._inflight_lock = threading.Lock()
        self._model_locks: Dict[Tuple[str, int], threading.Lock] = {}
        self._locks_lock = threading.Lock()
        # Evaluated LICM objectives, keyed by the plan identity (scheme, k,
        # kind, name, params).  Lineage evaluation is deterministic for a
        # fixed encoding and append-only on the shared model, so reusing
        # the LinearExpr across requests is safe (the decompose benchmark
        # reuses one objective across many prepares the same way) and
        # skips the dominant shared cost of an estimator-tier answer.
        # Guarded by the per-encoding model lock.
        self._objectives: Dict[tuple, object] = {}
        self._warmed: set = set()
        self._closed = False
        self._close_lock = threading.Lock()
        # Deadline watches for parked followers: a heap of
        # (deadline_at, seq, pending, expiry task) drained by the monitor.
        self._monitor_cv = threading.Condition()
        self._watched: list = []
        self._watch_seq = itertools.count()
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-serve-deadline", daemon=True
        )
        self._monitor.start()

    # -- lifecycle ---------------------------------------------------------
    def warm(self, pairs: Iterable[Tuple[str, int]]) -> None:
        """Pre-build encodings + sessions so requests never pay for them."""
        for scheme, k in pairs:
            self.context.encoding(scheme, k)
            self.context.session(scheme, k)
            self._model_lock(scheme, k)
            self._warmed.add((scheme, k))

    @property
    def warmed(self) -> set:
        return set(self._warmed)

    def close(self) -> None:
        """Drain-stop the workers (idempotent).

        Already-queued requests are answered ``rejected`` and parked
        continuations run their shutdown path, so no caller is left
        hanging; in-progress requests finish normally.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        try:
            while True:
                item = self._queue.get_nowait()
                if isinstance(item, _Task):
                    item.on_shutdown()
                elif item is not None:
                    with self._depth_lock:
                        self._external_queued -= 1
                    self._reject(item)
        except queue.Empty:
            pass
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=30.0)
        with self._monitor_cv:
            self._monitor_cv.notify_all()
        self._monitor.join(timeout=5.0)

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- gauges ------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._depth_lock:
            return self._external_queued

    @property
    def in_flight(self) -> int:
        with self._inflight_lock:
            return len(self._inflight)

    # -- submission --------------------------------------------------------
    def submit(self, request: QueryRequest) -> _Pending:
        """Admit a request (validated) or answer ``rejected`` immediately.

        Never blocks on solve progress: admission enqueues the pending
        future and returns; worker completion callbacks fulfill it.
        """
        request.validate()
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.default_deadline_ms
        )
        deadline_at = (
            time.monotonic() + deadline_ms / 1000.0 if deadline_ms is not None else None
        )
        pending = _Pending(request, deadline_at)
        self.stats.record_submit()
        with self._close_lock:
            if self._closed:
                rejection = "scheduler is shut down"
            else:
                with self._depth_lock:
                    if self._external_queued >= self.max_queue:
                        rejection = f"admission queue full ({self.max_queue})"
                    else:
                        self._external_queued += 1
                        rejection = None
                if rejection is None:
                    self._queue.put(pending)
        if rejection is not None:
            self.stats.record_rejected()
            response = self._reject(pending, rejection)
            # Rejections never reach _complete, but they still spend
            # availability budget and deserve a log line.
            total_s = time.monotonic() - pending.enqueued
            try:
                self.slo.record(STATUS_REJECTED, total_s)
                wide_event(request_logger(), self._wide_payload(pending, response, total_s))
            except Exception:  # noqa: BLE001 — observability must not break serving
                logger.exception("rejection accounting failed")
        return pending

    def execute(
        self, request: QueryRequest, timeout: Optional[float] = None
    ) -> QueryResponse:
        """Submit and block for the terminal response."""
        pending = self.submit(request)
        response = pending.wait(timeout)
        if response is None:
            raise ServiceError(
                f"request {request.request_id} did not complete within {timeout}s"
            )
        return response

    # -- internals ---------------------------------------------------------
    def _model_lock(self, scheme: str, k: int) -> threading.Lock:
        key = (scheme, k)
        with self._locks_lock:
            lock = self._model_locks.get(key)
            if lock is None:
                lock = self._model_locks[key] = threading.Lock()
            return lock

    def _enqueue_internal(self, task: _Task) -> None:
        """Queue a continuation; on a closed scheduler run its shutdown
        path inline so the owning request still terminates."""
        with self._close_lock:
            if not self._closed:
                self._queue.put(task)
                return
        task.on_shutdown()

    def _reject(
        self, pending: _Pending, reason: str = "scheduler shut down before execution"
    ) -> QueryResponse:
        """Answer ``rejected`` unless the request is already claimed."""
        response = QueryResponse(
            request_id=pending.request.request_id, status=STATUS_REJECTED, error=reason
        )
        if pending.claim():
            pending.finish(response)
        return response

    def _watch_deadline(self, pending: _Pending, expiry: _Task) -> None:
        """Arm the deadline monitor to enqueue ``expiry`` for a parked request."""
        if pending.deadline_at is None:
            return
        with self._monitor_cv:
            heapq.heappush(
                self._watched,
                (pending.deadline_at, next(self._watch_seq), pending, expiry),
            )
            self._monitor_cv.notify()

    def _monitor_loop(self) -> None:
        while True:
            with self._monitor_cv:
                if self._closed:
                    return
                if not self._watched:
                    self._monitor_cv.wait(timeout=0.5)
                    continue
                deadline_at, _, pending, expiry = self._watched[0]
                now = time.monotonic()
                if deadline_at > now:
                    self._monitor_cv.wait(timeout=min(deadline_at - now, 0.5))
                    continue
                heapq.heappop(self._watched)
            if not pending.done:
                try:
                    self._enqueue_internal(expiry)
                except Exception:  # noqa: BLE001 — monitor must survive
                    logger.exception("deadline continuation failed")

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            if isinstance(item, _Task):
                try:
                    item.run()
                except Exception:  # noqa: BLE001 — a continuation never kills a worker
                    logger.exception("internal task failed")
                continue
            with self._depth_lock:
                self._external_queued -= 1
            if item.done:  # rejected/drained before execution
                continue
            self._run_request(item)

    def _run_request(self, pending: _Pending) -> None:
        """One full serve attempt; parked requests complete later via
        their flight continuation (``_serve`` returns None)."""
        try:
            response = self._serve(pending)
        except ValidationError as exc:
            response = self._response(pending, STATUS_ERROR, error=str(exc))
        except Exception as exc:  # noqa: BLE001 — terminal status, always
            logger.exception("request %s failed", pending.request.request_id)
            response = self._response(pending, STATUS_ERROR, error=repr(exc))
        if response is not None:
            self._complete(pending, response)

    def _complete(self, pending: _Pending, response: QueryResponse) -> None:
        """Deliver a terminal response exactly once (claim-guarded).

        The request's finished span tree is popped here — *before*
        ``pending.finish`` — so the EXPLAIN assembly and the slow-query
        capture share one pop.  Explanations are attached per-response
        and never published onto flights or caches.
        """
        if not pending.claim():
            return
        spans = (
            self.span_buffer.pop(response.trace_id)
            if self.span_buffer is not None and response.trace_id
            else []
        )
        if pending.request.explain:
            try:
                response.explain = self._build_explanation(
                    pending, response, spans
                ).to_dict()
            except Exception:  # noqa: BLE001 — explain must not break serving
                logger.exception(
                    "explain assembly for %s failed", pending.request.request_id
                )
        pending.finish(response)
        total_s = time.monotonic() - pending.enqueued
        self.stats.record_done(
            response.status,
            total_s=total_s,
            solve_s=response.solve_ms / 1000.0,
        )
        self._observe_done(pending, response, total_s, spans)

    def _cache_tier(self, response: QueryResponse) -> str:
        """Where the answer came from: both senses in L1, any L2 hit, or
        a cold solve."""
        if response.cache_hits >= 2:
            return "l1"
        if response.l2_hits > 0:
            return "l2"
        return "cold"

    def _wide_payload(
        self, pending: _Pending, response: QueryResponse, total_s: float
    ) -> dict:
        """The one-line-per-request wide event (stable keys — the CI smoke
        job and tests/test_obs_reqlog_slo.py parse these)."""
        request = pending.request
        return {
            "event": "request",
            "request_id": request.request_id,
            "trace_id": response.trace_id,
            "status": response.status,
            "outcome_reason": response.error,
            "dedup": "follower" if response.dedup else "leader",
            "fingerprint": response.fingerprint,
            "kind": request.kind,
            "query": request.query or request.aggregate,
            "scheme": request.scheme,
            "k": request.k,
            "cache_tier": self._cache_tier(response),
            "components": response.components,
            "cache_hits": response.cache_hits,
            "l2_hits": response.l2_hits,
            "nodes": response.nodes,
            "backend": response.backend,
            "fabric": self.context.fabric_stats().get("kind"),
            "tier": response.tier,
            "escalations": response.escalations,
            "mc_samples": response.mc_samples,
            "queue_ms": round(response.queue_ms, 3),
            "solve_ms": round(response.solve_ms, 3),
            "total_ms": round(total_s * 1e3, 3),
        }

    def _build_explanation(
        self, pending: _Pending, response: QueryResponse, spans: list
    ):
        """Assemble the :class:`~repro.obs.explain.SolveExplanation` for
        one terminal response from context captured during the serve."""
        from repro.obs.explain import build_explanation

        ctx = pending.explain_ctx
        return build_explanation(
            request=pending.request.to_dict(),
            status=response.status,
            bounds={
                "lower": response.lower,
                "upper": response.upper,
                "exact": response.exact,
                "precision": self._effective_precision(pending.request),
                "tier": response.tier,
            },
            spans=spans,
            decomposition=ctx.get("decomposition"),
            component_tiers=ctx.get("component_tiers"),
            infeasibility=ctx.get("infeasibility"),
        )

    def _diagnose_infeasibility(self, prepared, budget_s: float = 2.0) -> Optional[dict]:
        """A time-budgeted IIS over the prepared BIP, rendered with the
        problem's variable names (EXPLAIN's infeasibility block)."""
        from repro.solver.diagnostics import find_iis, render_constraints

        try:
            started = time.monotonic()
            iis = find_iis(prepared.problem, time_budget=budget_s)
            took = time.monotonic() - started
            if iis is None:
                return None
            return {
                "iis": render_constraints(iis, prepared.problem.names),
                "constraints": len(iis),
                "seconds": took,
                "budget_exhausted": took >= budget_s,
            }
        except Exception:  # noqa: BLE001 — diagnosis must not break serving
            logger.exception("IIS diagnosis failed")
            return None

    def _observe_done(
        self,
        pending: _Pending,
        response: QueryResponse,
        total_s: float,
        spans: list,
    ) -> None:
        """Post-terminal accounting: histograms, exemplars, SLO events,
        the wide request log line, slow-query capture.

        Runs after ``pending.finish`` on purpose: the caller is already
        unblocked, and a failure here must never turn a served request
        into an error.  ``spans`` is the request's span tree, popped once
        in :meth:`_complete`.
        """
        try:
            self.slo.record(response.status, total_s)
            if response.tier:
                self._estimator_requests.inc(
                    labels={
                        "tier": response.tier,
                        "precision": self._effective_precision(pending.request),
                    }
                )
            exemplar = {"trace_id": response.trace_id} if response.trace_id else None
            self._hist_queue_wait.observe(response.queue_ms / 1e3, exemplar=exemplar)
            self._hist_solve.observe(response.solve_ms / 1e3, exemplar=exemplar)
            self._hist_total.observe(
                total_s, labels={"status": response.status}, exemplar=exemplar
            )
            wide_event(request_logger(), self._wide_payload(pending, response, total_s))
            if (
                self.slow_threshold_ms is not None
                and total_s * 1e3 >= self.slow_threshold_ms
                and self.slow_log is not None
            ):
                self._record_slow(pending, response, total_s, spans)
        except Exception:  # noqa: BLE001 — observability must not break serving
            logger.exception(
                "post-completion accounting for %s failed", pending.request.request_id
            )

    def _record_slow(
        self, pending: _Pending, response: QueryResponse, total_s: float, spans: list
    ) -> None:
        """Persist the full context of one over-threshold request."""
        profiler = active_profiler()
        profile = (
            profiler.folded(trace_id=response.trace_id)
            if profiler is not None and response.trace_id
            else {}
        )
        # Per-component node counts from the repatriated engine.solve.*
        # spans (worker-side solves included — see fabric repatriation).
        component_nodes: Dict[str, int] = {}
        for span in spans:
            if not str(span.get("name", "")).startswith("engine.solve."):
                continue
            attributes = span.get("attributes") or {}
            component = str(attributes.get("component", "?"))
            component_nodes[component] = component_nodes.get(
                component, 0
            ) + int(attributes.get("nodes", 0) or 0)
        # A compact explanation (top-cost components, prune/cache totals,
        # convergence event count) so the slow log says *why* a request
        # was slow without storing the full EXPLAIN payload.
        try:
            compact = self._build_explanation(pending, response, spans).compact()
        except Exception:  # noqa: BLE001 — capture must not break serving
            logger.exception("compact explanation failed")
            compact = None
        path = self.slow_log.record(
            {
                "explain": compact,
                "trace_id": response.trace_id,
                "fingerprint": response.fingerprint,
                "total_ms": total_s * 1e3,
                "threshold_ms": self.slow_threshold_ms,
                "fabric": self.context.fabric_stats().get("kind"),
                "l2_hits": response.l2_hits,
                "tier": response.tier,
                "escalations": response.escalations,
                "gap": response.gap,
                "component_nodes": component_nodes,
                "request": pending.request.to_dict(),
                "response": response.to_dict(),
                "spans": spans,
                "profile_folded": profile,
            }
        )
        logger.warning(
            "slow query %s (%.1f ms >= %.1f ms) captured to %s",
            pending.request.request_id,
            total_s * 1e3,
            self.slow_threshold_ms,
            path,
        )

    def _response(self, pending: _Pending, status: str, **fields) -> QueryResponse:
        """A terminal response stamped with the serve attempt's queue wait
        and trace id and the request's end-to-end time so far."""
        return QueryResponse(
            request_id=pending.request.request_id,
            status=status,
            queue_ms=pending.queue_ms,
            total_ms=(time.monotonic() - pending.enqueued) * 1e3,
            trace_id=pending.trace_id,
            **fields,
        )

    def _remaining_s(self, pending: _Pending) -> Optional[float]:
        if pending.deadline_at is None:
            return None
        return pending.deadline_at - time.monotonic()

    def _expired(self, pending: _Pending) -> bool:
        remaining = self._remaining_s(pending)
        return remaining is not None and remaining <= 0

    def _deadline_options(self, session, pending: _Pending) -> Optional[SolverOptions]:
        remaining = self._remaining_s(pending)
        if remaining is None:
            return None
        # The absolute deadline (not a closure) so it survives pickling
        # into forked solve workers; the clamped time_limit covers
        # backends that only understand a relative budget.
        return dataclasses.replace(
            session.options,
            time_limit=min(session.options.time_limit, max(remaining, 1e-3)),
            deadline_at=pending.deadline_at,
        )

    def _effective_precision(self, request: QueryRequest) -> str:
        """The request's precision, falling back to the server default."""
        return request.precision or self.default_precision

    def _resolve(self, request: QueryRequest):
        """The (encoded, session, model_lock) triple serving this request."""
        key = (request.scheme, request.k)
        if key not in self._warmed:
            if not self.allow_cold:
                raise ValidationError(
                    f"encoding (scheme={request.scheme!r}, k={request.k}) is not "
                    f"loaded; serving {sorted(self._warmed)}"
                )
            self.warm([key])
        encoded = self.context.encoding(request.scheme, request.k).encoded
        session = self.context.session(request.scheme, request.k)
        return encoded, session, self._model_lock(request.scheme, request.k)

    def _build_plan(self, request: QueryRequest, encoded):
        if request.query is not None:
            params = dataclasses.replace(self.context.config.params, **request.params)
            return QUERY_BUILDERS[request.query](encoded, params)
        return _adhoc_plan(encoded, request.aggregate)

    def _serve(self, pending: _Pending) -> Optional[QueryResponse]:
        """One serve attempt.  ``None`` means the request parked on a
        leader's flight; a continuation owns its completion."""
        request = pending.request
        pending.queue_ms = (time.monotonic() - pending.enqueued) * 1e3
        tracer = current_tracer()
        with tracer.span(
            "service.request",
            trace_id=new_trace_id(),
            request_id=request.request_id,
            kind=request.kind,
            query=request.query or request.aggregate,
            scheme=request.scheme,
            k=request.k,
        ) as root:
            pending.trace_id = root.trace_id or None
            # Attribute this worker's profiler samples to the request's
            # trace id for the duration of the request (no-op when no
            # sampling profiler is running — a single dict write).
            with tagged(pending.trace_id):
                encoded, session, model_lock = self._resolve(request)
                plan = self._build_plan(request, encoded)

                if self._expired(pending):
                    root.set("outcome", "deadline_before_start")
                    return self._degrade(pending, encoded, plan, 0.0, cause="queue wait")

                if isinstance(plan, (MinAttr, MaxAttr)):
                    return self._serve_minmax(
                        pending, encoded, session, model_lock, plan, root
                    )
                return self._serve_linear(
                    pending, encoded, session, model_lock, plan, root
                )

    def _join_flight(self, key: tuple) -> Tuple[_Flight, bool]:
        """Register (leader) or join (follower) the in-flight unit ``key``."""
        with self._inflight_lock:
            flight = self._inflight.get(key)
            if flight is None:
                flight = self._inflight[key] = _Flight(key)
                return flight, True
            return flight, False

    def _finish_flight(self, flight: _Flight, fingerprint, answer) -> None:
        """Publish the leader's result and fire every follower continuation.

        Only a tight answer is published: estimated bounds are per-request
        (followers re-answer at their own precision).
        """
        with self._inflight_lock:
            if self._inflight.get(flight.key) is flight:
                del self._inflight[flight.key]
        flight.fingerprint = fingerprint
        flight.answer = None if answer is None or answer.cascaded else answer
        flight.finish()

    def _answer_response(
        self, pending, answer, fingerprint, dedup,
        status: str = STATUS_OK, cause: Optional[str] = None,
        solve_ms: Optional[float] = None,
    ) -> QueryResponse:
        """A COUNT/SUM answer at any precision, with its tier provenance.

        ``solve_ms`` defaults to the answer's own tier time; a follower
        reusing its leader's published answer passes 0.0.
        """
        self._observe_tiers(answer)
        return self._response(
            pending,
            status,
            lower=answer.lower,
            upper=answer.upper,
            exact=answer.exact,
            error=cause,
            fingerprint=fingerprint,
            dedup=dedup,
            cache_hits=int(answer.stats.get("cache_hits", 0)),
            l2_hits=int(answer.stats.get("l2_hits", 0)),
            components=answer.components,
            backend=answer.stats.get("backend") or None,
            nodes=int(answer.stats.get("nodes", 0)),
            tier=answer.tier,
            exact_components=answer.exact_components,
            estimated_components=answer.estimated_components,
            escalations=answer.escalations,
            gap=answer.gap,
            solve_ms=answer.seconds * 1e3 if solve_ms is None else solve_ms,
        )

    def _observe_tiers(self, answer) -> None:
        """Per-tier latency + component outcomes for one tiered answer.

        A tight answer never ran the estimator cascade and is not observed.
        """
        if not answer.cascaded:
            return
        try:
            self._estimator_components.inc(
                answer.exact_components, labels={"outcome": "exact"}
            )
            self._estimator_components.inc(
                answer.estimated_components, labels={"outcome": "estimated"}
            )
            if answer.escalations:
                self._estimator_escalations.inc(answer.escalations)
            for tier, seconds in answer.tier_seconds.items():
                self._hist_estimator.observe(seconds, labels={"tier": tier})
        except Exception:  # noqa: BLE001 — observability must not break serving
            logger.exception("estimator tier accounting failed")

    def _park(
        self, root, pending: _Pending, flight: _Flight, resume, encoded, plan,
        cause: str, session=None, prepared=None, on_shutdown=None,
    ) -> None:
        """Record a dedup hit, attach ``resume`` to the flight and release
        this worker slot.

        ``resume`` is enqueued as an internal task when the leader
        finishes (immediately, if it already has).  If the parked
        request's budget runs out first, the deadline monitor enqueues the
        degrade path instead — given ``session``/``prepared`` whenever the
        request holds a prepared problem, so it degrades to the estimator
        tiers — and whichever claims the pending first wins.
        ``on_shutdown`` replaces ``resume``'s default shutdown path.
        """
        self.stats.record_dedup_hit()
        root.set("dedup", True)
        root.set("outcome", "parked")
        shutdown = functools.partial(self._reject, pending)

        def expire():
            if pending.done:
                return
            fingerprint = (
                prepared.fingerprint if prepared is not None else flight.fingerprint
            )
            self._complete(
                pending,
                self._degrade(
                    pending, encoded, plan, 0.0, cause, fingerprint=fingerprint,
                    session=session, prepared=prepared,
                ),
            )

        task = _Task(resume, on_shutdown=on_shutdown or shutdown)
        if flight.attach(lambda: self._enqueue_internal(task)):
            self._watch_deadline(pending, _Task(expire, on_shutdown=shutdown))
        else:
            self._enqueue_internal(task)

    def _serve_linear(
        self, pending, encoded, session, model_lock, plan, root
    ) -> Optional[QueryResponse]:
        """COUNT/SUM plans: one BIP objective, deduped at two levels.

        *Request-level* first: identical in-flight requests coalesce on
        :meth:`~repro.service.api.QueryRequest.dedup_key` **before** plan
        evaluation, so followers skip the (per-model serialized) prepare
        entirely and reuse the leader's published answer.  *Fingerprint-
        level* second: distinct requests whose plans prepare to the same
        canonical BIP coalesce on the fingerprint and read the answer
        through the solve cache.  Either way, identical concurrent
        problems cost one engine solve, and followers park (returning
        ``None`` here) rather than hold a worker slot.
        """
        request = pending.request
        telemetry = session.telemetry

        flight, leader = self._join_flight(("request",) + request.dedup_key())
        if not leader:
            def resume():
                if pending.done:
                    return
                answer = flight.answer
                if answer is not None and answer.exact:
                    self._complete(
                        pending,
                        self._answer_response(
                            pending, answer, flight.fingerprint, True, solve_ms=0.0
                        ),
                    )
                    return
                # The leader failed, answered at an estimated precision,
                # or its solve was cut short by *its* deadline (truncated
                # results are never cached): answer under our own budget
                # with a fresh serve attempt.
                self._run_request(pending)

            self._park(
                root, pending, flight, resume, encoded, plan,
                cause="deduped request exceeded deadline",
            )
            return None

        fingerprint = None
        answer = None
        parked = False
        try:
            # Plan evaluation appends lineage to the shared model:
            # serialize it per encoding.  The solves run outside the lock.
            objective_key = (request.scheme, request.k) + request.dedup_key()[:2] + (
                tuple(sorted(request.params.items())),
            )
            with model_lock:
                objective = self._objectives.get(objective_key)
                if objective is None:
                    with telemetry.timer("l_query"):
                        objective = evaluate_licm(plan, encoded.relations)
                    if len(self._objectives) >= 256:  # bounded; eviction is rare
                        self._objectives.clear()
                    self._objectives[objective_key] = objective
                prepared = session.prepare(objective)
            fingerprint = prepared.fingerprint
            root.set("fingerprint", fingerprint)
            if request.explain:
                from repro.obs.explain import decomposition_map

                pending.explain_ctx["decomposition"] = decomposition_map(prepared)

            bip_flight, bip_leader = self._join_flight(("bip", fingerprint))
            if not bip_leader:
                # A *different* request is already solving this exact BIP:
                # park on it; the continuation reads the answer through
                # the solve cache.  This request stays coarse leader — its
                # continuation publishes the coarse flight.
                parked = True
                self._follow_bip(
                    root, pending, bip_flight, encoded, session, prepared, plan, flight
                )
                return None

            try:
                response, answer = self._answer_prepared(
                    pending, session, prepared, plan, encoded, dedup=False
                )
            finally:
                self._finish_flight(bip_flight, fingerprint, answer)
        finally:
            if not parked:
                self._finish_flight(flight, fingerprint, answer)

        if response.status == STATUS_OK:
            root.set("outcome", STATUS_OK)
            root.set("tier", response.tier)
        return response

    def _answer_prepared(
        self, pending, session, prepared, plan, encoded, dedup: bool
    ) -> Tuple[QueryResponse, object]:
        """The one COUNT/SUM answer path, for leaders and BIP followers.

        Answers ``prepared`` at the request's precision through
        :meth:`~repro.estimator.TieredAnswerer.answer` — ``tight`` solves
        every component exactly through the session's fabric and caches.
        Estimated bounds memoize per-request only (``memo={}``): never
        into the shared caches, and never onto a flight.  An infeasible
        model answers ``error`` (with an IIS under ``explain``); a tight
        answer cut short by the deadline degrades.  Returns the response
        and the answer to publish (``None`` when infeasible).
        """
        request = pending.request
        fingerprint = prepared.fingerprint
        try:
            answer = self.answerer.answer(
                session, prepared, self._effective_precision(request),
                options=self._deadline_options(session, pending), memo={},
            )
        except InfeasibleError as exc:
            if request.explain:
                pending.explain_ctx["infeasibility"] = (
                    self._diagnose_infeasibility(prepared)
                )
            return self._response(
                pending, STATUS_ERROR, error=str(exc), fingerprint=fingerprint,
                dedup=dedup,
            ), None
        if not answer.cascaded and not answer.exact and self._expired(pending):
            # The budgeted solve was cut short by the deadline: degrade.
            cause = (
                "deduped solve exceeded deadline" if dedup
                else "BIP solve exceeded deadline"
            )
            return self._degrade(
                pending, encoded, plan, answer.seconds * 1e3, cause,
                fingerprint=fingerprint, session=session, prepared=prepared,
            ), answer
        if request.explain:
            pending.explain_ctx["component_tiers"] = answer.component_tiers
        return self._answer_response(pending, answer, fingerprint, dedup), answer

    def _follow_bip(
        self,
        root,
        pending: _Pending,
        bip_flight: _Flight,
        encoded,
        session,
        prepared,
        plan,
        coarse_flight: _Flight,
    ) -> None:
        """Park a coarse leader on another request's BIP flight.

        The resume continuation answers through the (now warm) solve
        caches under this request's own budget, then publishes the coarse
        flight for any followers of *this* request.
        """

        def resume():
            answer = None
            try:
                if pending.done:
                    return
                with current_tracer().span(
                    "service.resume",
                    trace_id=pending.trace_id,
                    request_id=pending.request.request_id,
                    fingerprint=prepared.fingerprint,
                ):
                    response, answer = self._answer_prepared(
                        pending, session, prepared, plan, encoded, dedup=True
                    )
                    self._complete(pending, response)
            except Exception as exc:  # noqa: BLE001 — terminal status, always
                logger.exception(
                    "deduped request %s failed", pending.request.request_id
                )
                self._complete(
                    pending, self._response(pending, STATUS_ERROR, error=repr(exc))
                )
            finally:
                self._finish_flight(coarse_flight, prepared.fingerprint, answer)

        def shutdown():
            self._reject(pending)
            self._finish_flight(coarse_flight, prepared.fingerprint, None)

        self._park(
            root, pending, bip_flight, resume, encoded, plan,
            cause="deduped solve exceeded deadline",
            session=session, prepared=prepared, on_shutdown=shutdown,
        )

    def _serve_minmax(
        self, pending, encoded, session, model_lock, plan, root
    ) -> QueryResponse:
        """MIN/MAX plans: case-based feasibility probes (no BIP dedup).

        The probes interleave plan-relative model reads with solves, so the
        whole answer runs under the model lock; the deadline still applies
        through the per-probe solver options.
        """
        from repro.queries import answer_licm

        options = self._deadline_options(session, pending)
        with model_lock:
            answer = answer_licm(encoded, plan, session=session, options=options)
        bounds = answer.bounds
        if self._expired(pending) and not bounds.exact:
            return self._degrade(
                pending, encoded, plan, answer.solve_time * 1e3,
                cause="MIN/MAX probes exceeded deadline",
            )
        root.set("outcome", STATUS_OK)
        # MIN/MAX probes have no linear BIP objective to estimate over:
        # they are always answered exactly, whatever the precision.
        return self._response(
            pending,
            STATUS_OK,
            lower=bounds.lower,
            upper=bounds.upper,
            exact=bounds.exact,
            tier=TIER_EXACT,
            gap=0.0,
            solve_ms=answer.solve_time * 1e3,
        )

    def _degrade(
        self,
        pending: _Pending,
        encoded,
        plan,
        solve_ms: float,
        cause: str,
        fingerprint: Optional[str] = None,
        session=None,
        prepared=None,
    ) -> QueryResponse:
        """Deadline exceeded: step down the ladder — estimator tiers,
        then the MC estimator, then ``timeout``.

        When the request already has a prepared problem in hand, a
        ``fast`` pass over the estimator tiers yields a *provably
        containing* interval in microseconds — strictly better degraded
        semantics than Monte Carlo (whose observed range is contained in
        the exact range instead).  Both fallbacks run slightly past the
        deadline on purpose (a slightly-late approximate answer beats
        none).  ``exact`` is always False here, and ``tier`` records
        which rung actually served the answer.
        """
        self.stats.record_deadline_miss()
        request = pending.request
        tracer = current_tracer()
        if session is not None and prepared is not None:
            try:
                with tracer.span("service.estimator_fallback", cause=cause):
                    answer = self.answerer.answer(
                        session, prepared, PRECISION_FAST,
                        options=self._deadline_options(session, pending),
                        memo={},
                    )
                if answer.lower is not None and answer.upper is not None:
                    return self._answer_response(
                        pending, answer, fingerprint, False,
                        status=STATUS_DEGRADED, cause=cause,
                    )
            except Exception as exc:  # noqa: BLE001 — next rung: MC
                logger.warning(
                    "estimator fallback for %s failed: %r", request.request_id, exc
                )
        if request.mc_fallback:
            try:
                with tracer.span("service.mc_fallback", cause=cause):
                    mc = run_monte_carlo(
                        encoded,
                        plan,
                        samples=request.mc_samples,
                        seed=self.context.config.seed,
                        telemetry=self.context.telemetry,
                    )
                return self._response(
                    pending,
                    STATUS_DEGRADED,
                    lower=mc.minimum,
                    upper=mc.maximum,
                    exact=False,
                    error=cause,
                    fingerprint=fingerprint,
                    tier="mc",
                    mc_samples=len(mc.values),
                    solve_ms=solve_ms,
                )
            except Exception as exc:  # noqa: BLE001 — degrade to timeout
                logger.warning(
                    "MC fallback for %s failed: %r", request.request_id, exc
                )
        return self._response(
            pending, STATUS_TIMEOUT, error=cause, fingerprint=fingerprint,
            solve_ms=solve_ms,
        )
