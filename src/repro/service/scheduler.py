"""Concurrent request scheduling: admission, deadlines, in-flight dedup.

The scheduler is the service's core loop.  Requests enter a queue under a
*bounded admission count* (admission control: a full queue rejects
immediately with 429-semantics rather than building unbounded backlog)
and a worker pool drains it.  Each worker:

1. opens a ``service.request`` root span under a **fresh trace id**, so
   the request's whole scheduler → engine → solver span tree is
   distinguishable in the shared JSONL stream;
2. evaluates the LICM plan and *prepares* the BIP under the encoding's
   model lock, in one :meth:`~repro.core.database.LICMModel.scoped`
   block that rolls the lineage back once the self-contained prepared
   problem exists; every solve and MIN/MAX probe runs outside.  The
   session memoizes it under the plan identity, so a repeated plan skips
   both;
3. **dedups in-flight work** on the plan identity (scheme, k, kind,
   query or aggregate, params): concurrent requests for one plan
   coalesce *before* plan evaluation, at any precision.  The leader
   evaluates, prepares and publishes its prepared problem on the flight,
   then answers on its own worker; only followers **park**: they attach
   a completion callback to the leader's flight and release their worker
   slot, so a burst of identical requests cannot starve the pool.  On
   resume a follower answers the leader's prepared problem at its own
   precision, reading the caches, kept answers and estimator verdicts
   the leader left behind — identical concurrent problems cost one
   engine solve.  A deadline-monitor thread fires the degrade path for
   any parked request whose budget runs out first;
4. answers at the request's **precision**: a COUNT/SUM problem through
   :meth:`~repro.estimator.TieredAnswerer.answer` — ``tight`` solves
   every component exactly; ``fast``/``balanced`` consult the estimator
   ladder (:mod:`repro.estimator`) per component and escalate only
   disagreeing components to the exact solver, keeping their verdicts on
   the prepared problem — and a MIN/MAX problem by the feasibility
   probes of :func:`~repro.core.bounds.minmax_bounds`.  **Exact answers
   are kept whole** in the session L1 under the plan identity — ``tight``
   COUNT/SUM and MIN/MAX at any precision — so a repeated exact answer is
   one read (wide event ``cache_tier="answer"``);
5. enforces the request **deadline** with a deadline-clamped
   ``time_limit`` plus the solver's absolute ``deadline_at`` (picklable —
   it crosses into forked solve workers, unlike a closure); an answer cut
   short by its budget **degrades** instead of hanging, always to an
   interval that contains the exact range: a fast estimator pass when
   the request, or the leader it follows, holds a prepared COUNT/SUM
   problem, or the interval a MIN/MAX leader's stopped probes still
   prove.  Every other expiry — in the queue, before the leader
   prepared, a parked MIN/MAX follower, a failed estimator pass —
   answers ``timeout``.

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
from typing import Dict, Iterable, Optional, Tuple

from repro.core import bounds
from repro.engine.cache import KeptAnswer
from repro.errors import InfeasibleError, QueryError, ServiceError, ValidationError
from repro.estimator import (
    PRECISION_FAST,
    PRECISION_TIGHT,
    TIER_EXACT,
    TieredAnswerer,
)
# Never called here, kept by name: traced_serve.py wraps it (its mc.fallback layer).
from repro.mc import run_monte_carlo  # noqa: F401
from repro.obs.export import ESTIMATOR_BUCKETS, MetricsRegistry, phase
from repro.obs.logs import request_logger, wide_event
from repro.obs.profiler import active_profiler, tagged
from repro.obs.slo import SLOTracker
from repro.obs.tracer import Stopwatch, current_tracer, new_trace_id
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

_MINMAX = (MinAttr, MaxAttr)


def _agg(plan) -> str:
    return "min" if isinstance(plan, MinAttr) else "max"


class _Flight:
    """One in-flight plan answer, continued by deduped followers.

    The leader sets ``prepared`` as soon as it holds the prepared problem,
    before it answers; followers answer that problem at their own
    precision once :meth:`finish` fires their callbacks, or degrade over
    it when their deadline expires first.  ``prepared`` stays ``None``
    when the leader failed before preparing — followers then serve
    themselves.
    """

    __slots__ = ("key", "prepared", "_lock", "_callbacks", "_finished")

    def __init__(self, key: tuple):
        self.key = key
        self.prepared = None
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
        "kept",
        "invalid",
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
        #: The response is a read of an exact answer kept in the session
        #: L1 (wide event ``cache_tier="answer"``, EXPLAIN ``source``).
        self.kept = False
        #: The request itself was invalid (a :class:`ValidationError`):
        #: it answers ``error`` but spends no availability budget.
        self.invalid = False
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
    ):
        if default_precision not in PRECISIONS:
            raise ValueError(
                f"default_precision must be one of {PRECISIONS}, "
                f"got {default_precision!r}"
            )
        self.context = context
        self.default_precision = default_precision
        self.answerer = TieredAnswerer()
        self.workers = max(1, int(workers))
        self.max_queue = max(1, int(max_queue))
        self.default_deadline_ms = default_deadline_ms
        self.allow_cold = allow_cold
        self.slow_threshold_ms = slow_threshold_ms
        self.slow_log = slow_log
        self.span_buffer = span_buffer
        self.slo = slo or SLOTracker()
        self._submitted = 0
        # The request counters and latency *distributions* (the /metrics
        # families, and the source of the /v1/status scheduler block) live
        # here, one registry per scheduler so concurrent schedulers in one
        # process (tests) never cross-pollute.  Every observation carries a
        # trace-id exemplar when the request ran under an active tracer.
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter(
            "service_requests_total", "Terminal responses per status"
        )
        self._dedup_hits = self.metrics.counter(
            "service_dedup_hits_total", "Requests coalesced onto an in-flight solve"
        )
        self._deadline_misses = self.metrics.counter(
            "service_deadline_misses_total", "Requests that exceeded their deadline"
        )
        self._rejected_full = self.metrics.counter(
            "service_rejected_total", "Requests refused by admission control"
        )
        for counter in (self._dedup_hits, self._deadline_misses, self._rejected_full):
            counter.inc(0)  # expose the zero sample before the first event
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
        self._estimator_reused = self.metrics.counter(
            "estimator_reused_components_total",
            "Components answered from a verdict kept on the prepared problem",
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
        # Keyed by the plan identity (scheme, k, kind, name, params): one
        # in-flight answer per plan.
        self._inflight: Dict[tuple, _Flight] = {}
        self._inflight_lock = threading.Lock()
        self._model_locks: Dict[Tuple[str, int], threading.Lock] = {}
        self._locks_lock = threading.Lock()
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

    def status(self) -> dict:
        """The ``/v1/status`` scheduler block, read off :attr:`metrics`.

        ``completed`` counts every terminal response but the rejections;
        ``rejected_full`` only the admission-control refusals.
        """
        by_status = {
            dict(key)["status"]: int(count)
            for key, count in dict(self._requests.series).items()
        }
        return {
            "submitted": self._submitted,
            "completed": sum(by_status.values()) - by_status.get(STATUS_REJECTED, 0),
            "rejected_full": int(self._rejected_full.series[()]),
            "dedup_hits": int(self._dedup_hits.series[()]),
            "deadline_misses": int(self._deadline_misses.series[()]),
            "by_status": by_status,
        }

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
        with self._close_lock:
            self._submitted += 1
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
            self._reject(pending, rejection, admission=True)
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
        self,
        pending: _Pending,
        reason: str = "scheduler shut down before execution",
        admission: bool = False,
    ) -> None:
        """Answer ``rejected`` (admission, queue drain at shutdown, a
        parked continuation's shutdown path) through :meth:`_complete`,
        unless the request is already claimed.  ``admission`` — always a
        fresh, unclaimed request — also counts it in ``rejected_full``."""
        if admission:
            self._rejected_full.inc()
        self._complete(pending, self._response(pending, STATUS_REJECTED, error=reason))

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

    def _run_request(self, pending: _Pending, serve=None) -> None:
        """One serve attempt — ``serve(pending)``, a full :meth:`_serve`
        by default — always ending in a terminal response; parked
        requests complete later via their flight continuation (``serve``
        returns None)."""
        try:
            response = (serve or self._serve)(pending)
        except ValidationError as exc:
            pending.invalid = True
            response = self._response(pending, STATUS_ERROR, error=str(exc))
        except Exception as exc:  # noqa: BLE001 — terminal status, always
            logger.exception("request %s failed", pending.request.request_id)
            response = self._response(pending, STATUS_ERROR, error=repr(exc))
        if response is not None:
            self._complete(pending, response)

    def _complete(self, pending: _Pending, response: QueryResponse) -> None:
        """Deliver and account one terminal response exactly once
        (claim-guarded) — every status, rejections included.

        Before ``pending.finish``: the request's finished span tree is
        popped, an ``explain`` request's explanation is built, and
        ``total_ms`` is stamped — the one total that the response, the
        wide event, the latency histogram and the SLO event all carry.
        After it (the caller is already unblocked, and a failure here must
        never turn a served request into an error): the request counters
        and histograms, the SLO event (none for an invalid request: the
        client's fault is not the service's unavailability), the wide log
        line and slow-query capture.  The explanation is built at most
        once; a slow request without ``explain`` builds it for its ring
        entry.  Explanations
        are attached per-response, never published onto flights or caches.
        """
        if not pending.claim():
            return
        request = pending.request
        spans = (
            self.span_buffer.pop(response.trace_id)
            if self.span_buffer is not None and response.trace_id
            else []
        )
        explanation = None
        if request.explain:
            try:
                explanation = self._build_explanation(pending, response, spans)
                response.explain = explanation.to_dict()
            except Exception:  # noqa: BLE001 — explain must not break serving
                logger.exception("explain assembly for %s failed", request.request_id)
        response.total_ms = (time.monotonic() - pending.enqueued) * 1e3
        pending.finish(response)
        try:
            status, total_s = response.status, response.total_ms / 1e3
            exemplar = {"trace_id": response.trace_id} if response.trace_id else None
            self._requests.inc(labels={"status": status})
            self._hist_total.observe(total_s, labels={"status": status}, exemplar=exemplar)
            if status != STATUS_REJECTED:
                self._hist_queue_wait.observe(response.queue_ms / 1e3, exemplar=exemplar)
                self._hist_solve.observe(response.solve_ms / 1e3, exemplar=exemplar)
            if response.tier:
                self._estimator_requests.inc(
                    labels={
                        "tier": response.tier,
                        "precision": self._effective_precision(request),
                    }
                )
            if not pending.invalid:
                self.slo.record(status, total_s)
            wide_event(request_logger(), self._wide_payload(pending, response))
            if (
                self.slow_log is not None
                and self.slow_threshold_ms is not None
                and response.total_ms >= self.slow_threshold_ms
            ):
                if explanation is None:
                    explanation = self._build_explanation(pending, response, spans)
                self._record_slow(pending, response, explanation, spans)
        except Exception:  # noqa: BLE001 — observability must not break serving
            logger.exception(
                "post-completion accounting for %s failed", request.request_id
            )

    def _cache_tier(self, pending: _Pending, response: QueryResponse) -> str:
        """Where the answer came from: a kept whole answer, both senses in
        L1, any L2 hit, or a cold solve."""
        if pending.kept:
            return "answer"
        if response.cache_hits >= 2:
            return "l1"
        if response.l2_hits > 0:
            return "l2"
        return "cold"

    def _wide_payload(self, pending: _Pending, response: QueryResponse) -> dict:
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
            "cache_tier": self._cache_tier(pending, response),
            "components": response.components,
            "cache_hits": response.cache_hits,
            "l2_hits": response.l2_hits,
            "nodes": response.nodes,
            "backend": response.backend,
            "fabric": self.context.fabric_stats().get("kind"),
            "tier": response.tier,
            "escalations": response.escalations,
            "queue_ms": round(response.queue_ms, 3),
            "solve_ms": round(response.solve_ms, 3),
            "total_ms": round(response.total_ms, 3),
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
                "source": self._cache_tier(pending, response),
            },
            spans=spans,
            decomposition=ctx.get("decomposition"),
            component_tiers=ctx.get("component_tiers"),
            infeasibility=ctx.get("infeasibility"),
            kept=pending.kept,
        )

    def _diagnose_infeasibility(self, prepared, budget_s: float = 2.0) -> Optional[dict]:
        """A time-budgeted IIS of the first infeasible component, rendered
        with the problem's variable names (EXPLAIN's infeasibility block).
        No constraint crosses components, so it is an IIS of the whole."""
        from repro.solver.diagnostics import diagnose_infeasibility

        until = time.monotonic() + budget_s
        try:
            for part in prepared.components:
                remaining = until - time.monotonic()
                if remaining <= 0:
                    break
                found = diagnose_infeasibility(part.problem, remaining)
                if found is not None:
                    return found
        except Exception:  # noqa: BLE001 — diagnosis must not break serving
            logger.exception("IIS diagnosis failed")
        return None

    def _record_slow(
        self, pending: _Pending, response: QueryResponse, explanation, spans: list
    ) -> None:
        """Persist the full context of one over-threshold request."""
        profiler = active_profiler()
        profile = (
            profiler.folded(trace_id=response.trace_id)
            if profiler is not None and response.trace_id
            else {}
        )
        # Per-component node counts off the explanation's components
        # (worker-side solves included — see fabric repatriation).
        component_nodes: Dict[str, int] = {}
        for entry in explanation.components:
            component = str(entry.get("component"))
            component_nodes[component] = component_nodes.get(component, 0) + int(
                entry.get("nodes") or 0
            )
        path = self.slow_log.record(
            {
                # A compact explanation (top-cost components, prune/cache
                # totals, convergence event count): *why* the request was
                # slow without storing the full EXPLAIN payload.
                "explain": explanation.compact(),
                "trace_id": response.trace_id,
                "fingerprint": response.fingerprint,
                "total_ms": response.total_ms,
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
            response.total_ms,
            self.slow_threshold_ms,
            path,
        )

    def _response(self, pending: _Pending, status: str, **fields) -> QueryResponse:
        """A terminal response stamped with the serve attempt's queue wait
        and trace id (:meth:`_complete` stamps ``total_ms``)."""
        return QueryResponse(
            request_id=pending.request.request_id,
            status=status,
            queue_ms=pending.queue_ms,
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
        """The request's plan.  Params the builders reject (a predicate
        range running past its domain) are the request's fault, so a
        :class:`QueryError` becomes a :class:`ValidationError`: the
        request answers ``error`` with the message and logs no traceback."""
        if request.query is not None:
            params = dataclasses.replace(self.context.config.params, **request.params)
            try:
                return QUERY_BUILDERS[request.query](encoded, params)
            except QueryError as exc:
                raise ValidationError(f"params: {exc}") from exc
        return _adhoc_plan(encoded, request.aggregate)

    def _serve(self, pending: _Pending) -> Optional[QueryResponse]:
        """One serve attempt, the one path for every plan.  ``None`` means
        the request parked on a leader's flight; a continuation owns its
        completion.

        Concurrent requests for one plan — any precision — coalesce
        **before** plan evaluation: followers park and answer the prepared
        problem the leader publishes on its flight.  The model lock covers
        evaluation and prepare only.
        """
        request = pending.request
        pending.queue_ms = (time.monotonic() - pending.enqueued) * 1e3
        with current_tracer().span(
            "service.request",
            trace_id=new_trace_id(),
            request_id=request.request_id,
            kind=request.kind,
            query=request.query or request.aggregate,
            scheme=request.scheme,
            k=request.k,
        ) as root, tagged(root.trace_id or None):
            # Attribute this worker's profiler samples to the request's
            # trace id (no-op when no sampling profiler is running).
            pending.trace_id = root.trace_id or None
            encoded, session, model_lock = self._resolve(request)
            if self._expired(pending):
                root.set("outcome", "deadline_before_start")
                return self._degrade(pending, "queue wait")
            plan = self._build_plan(request, encoded)
            plan_key = request.plan_key()
            minmax = isinstance(plan, _MINMAX)
            flight, leader = self._join_flight(plan_key)
            if not leader:
                self._park(root, pending, flight, session, plan)
                return None
            try:
                prepared = session.memoized(plan_key)
                if prepared is None:
                    # Evaluation writes lineage to the shared model: one
                    # scope per encoding at a time.
                    with model_lock, encoded.model.scoped():
                        with phase("l_query"):
                            target = evaluate_licm(
                                plan.child if minmax else plan, encoded.relations
                            )
                        prepared = (
                            bounds.prepare_minmax(
                                session, target, plan.attribute, _agg(plan), key=plan_key
                            )
                            if minmax else session.prepare(target, key=plan_key)
                        )
                flight.prepared = prepared
                root.set("fingerprint", prepared.fingerprint)
                response = self._answer_prepared(
                    pending, session, prepared, plan, dedup=False
                )
            finally:
                self._finish_flight(flight)
            if response.status == STATUS_OK:
                root.set("outcome", STATUS_OK)
                root.set("tier", response.tier)
            return response

    def _join_flight(self, key: tuple) -> Tuple[_Flight, bool]:
        """Register (leader) or join (follower) the in-flight unit ``key``."""
        with self._inflight_lock:
            flight = self._inflight.get(key)
            if flight is None:
                flight = self._inflight[key] = _Flight(key)
                return flight, True
            return flight, False

    def _finish_flight(self, flight: _Flight) -> None:
        """Retire the leader's flight and fire every follower continuation."""
        with self._inflight_lock:
            if self._inflight.get(flight.key) is flight:
                del self._inflight[flight.key]
        flight.finish()

    def _answer_response(
        self, pending, answer, fingerprint, dedup,
        status: str = STATUS_OK, cause: Optional[str] = None,
    ) -> QueryResponse:
        """A COUNT/SUM answer at any precision, with its tier provenance."""
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
            solve_ms=answer.seconds * 1e3,
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
            if answer.reused_components:
                self._estimator_reused.inc(answer.reused_components)
            for tier, seconds in answer.tier_seconds.items():
                self._hist_estimator.observe(seconds, labels={"tier": tier})
        except Exception:  # noqa: BLE001 — observability must not break serving
            logger.exception("estimator tier accounting failed")

    def _park(self, root, pending: _Pending, flight: _Flight, session, plan) -> None:
        """Follow the leader's ``flight`` without holding this worker slot.

        Records a dedup hit and attaches the resume continuation, enqueued
        when the leader finishes (at once, if it has).  On resume the
        follower answers the leader's prepared problem through
        :meth:`_answer_prepared` — the caches, kept answers and verdicts
        make that a read — or serves itself afresh if the leader failed
        before preparing.  If its budget runs out first, the deadline
        monitor enqueues the degrade path instead — over the published
        problem if it is COUNT/SUM, else ``timeout``; the first to claim
        the pending wins.  Every answer over the flight reports
        ``dedup=True``.
        """
        self._dedup_hits.inc()
        root.set("dedup", True)
        root.set("outcome", "parked")

        def answer_published(pending):
            prepared = flight.prepared
            with current_tracer().span(
                "service.resume",
                trace_id=pending.trace_id,
                request_id=pending.request.request_id,
                fingerprint=prepared.fingerprint,
            ):
                return self._answer_prepared(
                    pending, session, prepared, plan, dedup=True
                )

        def resume():
            if not pending.done:
                self._run_request(
                    pending, answer_published if flight.prepared is not None else None
                )

        def expire():
            if not pending.done:
                prepared = None if isinstance(plan, _MINMAX) else flight.prepared
                self._complete(pending, self._degrade(
                    pending, "deduped request exceeded deadline",
                    session=session, prepared=prepared, dedup=True,
                ))

        shutdown = functools.partial(self._reject, pending)
        task = _Task(resume, on_shutdown=shutdown)
        if flight.attach(lambda: self._enqueue_internal(task)):
            self._watch_deadline(pending, _Task(expire, on_shutdown=shutdown))
        else:
            self._enqueue_internal(task)

    def _answer_prepared(self, pending, session, prepared, plan, dedup: bool) -> QueryResponse:
        """The one answer path, for leaders and followers.

        A ``tight`` COUNT/SUM or any MIN/MAX request first reads the
        exact answer kept under its plan identity.  Otherwise a MIN/MAX
        plan goes to :meth:`_answer_minmax`, and a COUNT/SUM plan is
        answered at the request's precision through
        :meth:`~repro.estimator.TieredAnswerer.answer` — ``tight`` solves
        every component exactly through the session's fabric and caches.
        Estimator verdicts are kept on ``prepared`` (reused by later
        ``fast``/``balanced`` answers and the deadline fallback), never in
        the shared caches.  An infeasible model answers ``error`` (with an
        IIS under ``explain``); a tight answer cut short by the deadline
        degrades.  An exact answer that finished in time is kept under the
        plan identity: COUNT/SUM priced by its solves and at least the
        component entries it replaces, MIN/MAX by its prepare and probes.
        """
        request = pending.request
        fingerprint = prepared.fingerprint
        minmax = isinstance(plan, _MINMAX)
        keeps = minmax or self._effective_precision(request) == PRECISION_TIGHT
        plan_key = request.plan_key()
        if request.explain:
            from repro.obs.explain import decomposition_map

            pending.explain_ctx["decomposition"] = decomposition_map(prepared)
        kept = session.kept_answer(plan_key) if keeps else None
        if kept is not None:
            pending.kept = True
            count = len(prepared.components)
            if request.explain:
                pending.explain_ctx["component_tiers"] = [
                    {"component": index, "tier": TIER_EXACT, "exact": True}
                    for index in range(count)
                ]
            return self._response(
                pending, STATUS_OK, lower=kept.lower, upper=kept.upper, exact=True,
                fingerprint=fingerprint, dedup=dedup, cache_hits=2, components=count,
                backend=kept.backend, tier=TIER_EXACT, exact_components=count, gap=0.0,
            )
        clock = Stopwatch()
        if minmax:
            response = self._answer_minmax(pending, session, prepared, plan, dedup)
        else:
            response = self._answer_tiered(pending, session, prepared, dedup)
        if keeps and response.exact and not self._expired(pending):
            session.keep_answer(
                plan_key, KeptAnswer(response.lower, response.upper, response.backend),
                cost=prepared.prep_time + clock.stop() if minmax else response.solve_ms / 1e3,
                replaces=prepared.components,
            )
        return response

    def _answer_tiered(self, pending, session, prepared, dedup: bool) -> QueryResponse:
        """COUNT/SUM at the request's precision (see :meth:`_answer_prepared`)."""
        request = pending.request
        fingerprint = prepared.fingerprint
        try:
            answer = self.answerer.answer(
                session, prepared, self._effective_precision(request),
                options=self._deadline_options(session, pending),
            )
        except InfeasibleError as exc:
            if request.explain:
                pending.explain_ctx["infeasibility"] = (
                    self._diagnose_infeasibility(prepared)
                )
            return self._response(
                pending, STATUS_ERROR, error=str(exc), fingerprint=fingerprint,
                dedup=dedup,
            )
        if not answer.cascaded and not answer.exact and self._expired(pending):
            # The budgeted solve was cut short by the deadline: degrade.
            cause = (
                "deduped solve exceeded deadline" if dedup
                else "BIP solve exceeded deadline"
            )
            return self._degrade(
                pending, cause, session=session, prepared=prepared, dedup=dedup,
                solve_ms=answer.seconds * 1e3,
            )
        if request.explain:
            pending.explain_ctx["component_tiers"] = answer.component_tiers
        return self._answer_response(pending, answer, fingerprint, dedup)

    def _answer_minmax(self, pending, session, prepared, plan, dedup: bool) -> QueryResponse:
        """MIN/MAX: :func:`repro.core.bounds.minmax_bounds`'s probes on the
        prepared problem, under the request's deadline, at any precision.
        An inexact answer past the deadline is ``degraded``: probes the
        deadline stopped were answered feasible, so the interval still
        contains the exact range."""
        result = bounds.minmax_bounds(
            prepared, plan.attribute, _agg(plan),
            options=self._deadline_options(session, pending), session=session,
        )
        status, cause = STATUS_OK, None
        if self._expired(pending) and not result.exact:
            self._deadline_misses.inc()
            status, cause = STATUS_DEGRADED, "MIN/MAX probes exceeded deadline"
        # Only a proved answer is exact-tier with no gap; an inexact one
        # leaves both unset, as a timeout does.
        provenance = {"tier": TIER_EXACT, "gap": 0.0} if result.exact else {}
        return self._response(
            pending, status, lower=result.lower, upper=result.upper,
            exact=result.exact, error=cause, fingerprint=prepared.fingerprint,
            dedup=dedup, solve_ms=result.stats["solve_time"] * 1e3, **provenance,
        )

    def _degrade(
        self,
        pending: _Pending,
        cause: str,
        session=None,
        prepared=None,
        dedup: bool = False,
        solve_ms: float = 0.0,
    ) -> QueryResponse:
        """Deadline exceeded: the estimator rung, else ``timeout``.

        With a prepared COUNT/SUM problem, a ``fast`` pass over the
        estimator tiers yields a *provably containing* interval in
        microseconds; it runs slightly past the deadline on purpose.
        Without one — the deadline passed in the queue or before the
        leader prepared, or the problem is MIN/MAX, whose objective is not
        the aggregate (callers pass none) — or when that pass fails, the
        request answers ``timeout``.  ``exact`` is always False here, and
        both outcomes report ``dedup``.
        """
        self._deadline_misses.inc()
        fingerprint = prepared.fingerprint if prepared is not None else None
        if prepared is not None:
            try:
                with current_tracer().span("service.estimator_fallback", cause=cause):
                    answer = self.answerer.answer(
                        session, prepared, PRECISION_FAST,
                        options=self._deadline_options(session, pending),
                    )
                if answer.lower is not None and answer.upper is not None:
                    return self._answer_response(
                        pending, answer, fingerprint, dedup,
                        status=STATUS_DEGRADED, cause=cause,
                    )
            except Exception as exc:  # noqa: BLE001 — the last rung: timeout
                logger.warning(
                    "estimator fallback for %s failed: %r", pending.request.request_id, exc
                )
        return self._response(
            pending, STATUS_TIMEOUT, error=cause, fingerprint=fingerprint,
            dedup=dedup, solve_ms=solve_ms,
        )
