"""Hierarchical span tracing for the query/solve pipeline.

A :class:`Tracer` records one *trace* — a tree of timed :class:`Span`\\ s —
per run.  Every layer of the repo opens spans through the module-level
*active tracer* (``current_tracer()``), which defaults to a shared
:class:`NullTracer` whose spans are free no-ops, so instrumented code
pays (almost) nothing unless a run opts in with :func:`activate`::

    tracer = Tracer()
    with activate(tracer):
        answer_licm(encoded, plan)          # operators/solves emit spans
    print(render_report(tracer))            # docs in repro.obs.export

Span parenthood is tracked per-thread: nested ``span()`` blocks on one
thread form a chain automatically, while work handed to a pool thread
(the engine's parallel min/max, MC fan-out) passes its parent span
explicitly so the tree stays connected across threads.

This is deliberately not OpenTelemetry — the repo is dependency-free —
but the JSONL export (:class:`repro.obs.export.JsonlSink`) uses the same
trace/span/parent id vocabulary so traces can be post-processed by any
standard tooling.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from typing import Iterator, Optional

__all__ = [
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "RecordingTracer",
    "Span",
    "Stopwatch",
    "Tracer",
    "activate",
    "current_tracer",
    "new_trace_id",
]


class Stopwatch:
    """A monotonic timer: created running, frozen by :meth:`stop`.

    ``elapsed`` reads the live value while running and the frozen value
    after ``stop()`` — the one timing primitive used across the repo in
    place of paired ``time.perf_counter()`` calls.  It lives here, in a
    module that imports nothing else from the repo, so the solver layer
    can time itself without an import cycle.
    """

    __slots__ = ("_start", "_stopped")

    def __init__(self):
        self._start = time.perf_counter()
        self._stopped: Optional[float] = None

    @property
    def elapsed(self) -> float:
        end = self._stopped if self._stopped is not None else time.perf_counter()
        return end - self._start

    def stop(self) -> float:
        """Freeze the timer and return the final elapsed seconds."""
        if self._stopped is None:
            self._stopped = time.perf_counter()
        return self.elapsed

    def restart(self) -> None:
        self._start = time.perf_counter()
        self._stopped = None


def new_trace_id() -> str:
    """A fresh 16-hex trace id (the format :class:`Tracer` assigns itself)."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed node of the trace tree.

    Attributes may be set while the span is open (``span.set``,
    ``span.add``); ``duration`` and ``status`` are filled when the
    ``tracer.span(...)`` block exits.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attributes",
        "start_unix",
        "_t0",
        "duration",
        "status",
        "thread",
    )

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str], name: str):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes: dict = {}
        self.start_unix = time.time()
        self._t0 = time.perf_counter()
        self.duration: Optional[float] = None
        self.status = "ok"
        self.thread = threading.current_thread().name

    # -- attribute helpers -------------------------------------------------
    def set(self, key: str, value) -> "Span":
        self.attributes[key] = value
        return self

    def add(self, key: str, delta=1) -> "Span":
        self.attributes[key] = self.attributes.get(key, 0) + delta
        return self

    def event(self, key: str, payload) -> "Span":
        """Append ``payload`` to the list attribute ``key`` (sampled events)."""
        self.attributes.setdefault(key, []).append(payload)
        return self

    @property
    def finished(self) -> bool:
        return self.duration is not None

    def to_dict(self) -> dict:
        """JSON-serializable view (the JSONL trace line)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": self.start_unix,
            "duration": self.duration,
            "status": self.status,
            "thread": self.thread,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:
        took = f"{self.duration * 1e3:.2f}ms" if self.finished else "open"
        return f"Span({self.name!r}, {took}, {self.attributes})"


class _SpanContext:
    """The context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        span.duration = time.perf_counter() - span._t0
        if exc is not None:
            span.status = "error"
            span.attributes.setdefault("error", repr(exc))
        self._tracer._pop(span)
        self._tracer._finish(span)


class Tracer:
    """Collects one trace: assigns ids, tracks per-thread parenthood.

    :param sinks: callables invoked with each *finished* :class:`Span`
        (e.g. :class:`repro.obs.export.JsonlSink`).  A failing sink is
        dropped from the hot path concern: exceptions propagate only as a
        log line, never into the traced pipeline.
    :param retain: keep finished spans on ``self.spans`` for in-process
        reporting (default).  Long streaming runs that only need the
        JSONL file can pass ``False``.
    :param sample_every: sampling stride for high-frequency node events
        (the branch-and-bound search emits one sampled node record per
        ``sample_every`` expanded nodes to bound tracing overhead).
    """

    enabled = True

    def __init__(self, sinks=(), retain: bool = True, sample_every: int = 64):
        self.trace_id = uuid.uuid4().hex[:16]
        self.sinks = list(sinks)
        self.retain = retain
        self.sample_every = max(1, int(sample_every))
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span lifecycle ----------------------------------------------------
    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        trace_id: Optional[str] = None,
        **attributes,
    ) -> _SpanContext:
        """Open a child span of ``parent`` (default: this thread's current).

        Children inherit their parent's ``trace_id``; a root span may pass
        an explicit ``trace_id`` to start a fresh logical trace on a
        long-lived tracer — the serving process opens one such root per
        request (see :func:`new_trace_id`) so every request's span tree is
        distinguishable in the shared JSONL stream.

        Returns a context manager yielding the :class:`Span`.
        """
        if parent is None:
            parent = self.current()
        with self._lock:
            span_id = f"{next(self._ids):06x}"
        if parent is not None:
            trace_id = parent.trace_id
        span = Span(
            trace_id or self.trace_id,
            span_id,
            parent.span_id if parent else None,
            name,
        )
        if attributes:
            span.attributes.update(attributes)
        return _SpanContext(self, span)

    def current(self) -> Optional[Span]:
        """The innermost open span on *this* thread (None at top level)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)

    def _finish(self, span: Span) -> None:
        if self.retain:
            with self._lock:
                self.spans.append(span)
        for sink in list(self.sinks):
            try:
                sink(span)
            except Exception:  # noqa: BLE001 - a sink must never kill a solve
                import logging

                logging.getLogger("repro.obs").exception(
                    "trace sink %r failed; span %s dropped", sink, span.span_id
                )

    def ingest(self, records, parent: Optional[Span] = None) -> list[Span]:
        """Adopt serialized span records from another process.

        Worker processes run with the null tracer (their spans are
        recorded as plain dicts and shipped home inside results); the
        parent re-parents each record under ``parent`` — fresh span ids
        from *this* tracer, the parent's trace id — and finishes it
        through the normal sink path, so a request's span tree stays
        connected across the process boundary.

        Each record is a flat dict with at least ``name``; optional
        ``duration``, ``start_unix``, ``status``, ``thread`` and
        ``attributes`` are carried over.  Records whose ``parent_key``
        names another record's ``key`` nest beneath it; the rest attach
        to ``parent``.  Returns the adopted spans in input order.
        """
        if parent is None:
            parent = self.current()
        adopted: list[Span] = []
        by_key: dict = {}
        for record in records:
            with self._lock:
                span_id = f"{next(self._ids):06x}"
            record_parent = by_key.get(record.get("parent_key"), parent)
            span = Span(
                record_parent.trace_id if record_parent is not None else self.trace_id,
                span_id,
                record_parent.span_id if record_parent is not None else None,
                record.get("name", "ingested"),
            )
            span.attributes.update(record.get("attributes") or {})
            if record.get("start_unix") is not None:
                span.start_unix = record["start_unix"]
            span.duration = record.get("duration", 0.0)
            span.status = record.get("status", "ok")
            if record.get("thread"):
                span.thread = record["thread"]
            if record.get("key") is not None:
                by_key[record["key"]] = span
            self._finish(span)
            adopted.append(span)
        return adopted

    # -- reporting helpers -------------------------------------------------
    def roots(self) -> list[Span]:
        with self._lock:
            spans = list(self.spans)
        ids = {s.span_id for s in spans}
        return [s for s in spans if s.parent_id is None or s.parent_id not in ids]

    def children(self, span: Span) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.parent_id == span.span_id]

    def by_name(self, name: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    def __repr__(self) -> str:
        return f"Tracer({self.trace_id}, {len(self)} spans)"


class RecordingTracer(Tracer):
    """A bounded tracer that serializes finished spans instead of keeping them.

    Forked solve workers activate one per unit: solver-internal spans
    (``solver.solve``, ``bb.search`` with its sampled node events) are
    recorded as plain picklable dicts — ``key``/``parent_key`` preserve
    the in-worker tree — and shipped home inside the unit result, where
    :meth:`Tracer.ingest` re-parents them under the request's trace.

    ``trace_id`` should be the *requesting* trace's id so worker-side
    metric exemplars point at the trace that caused the work; the bound
    (``max_spans``) keeps a pathological search from bloating the result
    pickle — overflow is counted, never an error.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        max_spans: int = 128,
        sample_every: int = 64,
    ):
        super().__init__(sinks=(), retain=False, sample_every=sample_every)
        if trace_id:
            self.trace_id = trace_id
        self.max_spans = max(1, int(max_spans))
        self.dropped = 0
        self._records: list[dict] = []

    def _finish(self, span: Span) -> None:
        record = {
            "key": span.span_id,
            "parent_key": span.parent_id,
            "name": span.name,
            "start_unix": span.start_unix,
            "duration": span.duration,
            "status": span.status,
            "thread": span.thread,
            "attributes": span.attributes,
        }
        with self._lock:
            if len(self._records) < self.max_spans:
                self._records.append(record)
            else:
                self.dropped += 1

    def drain(self) -> tuple[list[dict], int]:
        """``(records, dropped)``, resetting both.

        Records come back sorted by ``key``: span ids are zero-padded
        creation order and parents are created before their children, so
        sorted order is exactly what :meth:`Tracer.ingest` needs to
        resolve every ``parent_key``.
        """
        with self._lock:
            records, self._records = self._records, []
            dropped, self.dropped = self.dropped, 0
        records.sort(key=lambda record: record["key"])
        return records, dropped


class NullSpan:
    """The do-nothing span: accepts the full Span surface, records nothing."""

    __slots__ = ()
    trace_id = span_id = name = status = thread = ""
    parent_id = None
    attributes: dict = {}
    duration = 0.0
    finished = True

    def set(self, key, value):
        return self

    def add(self, key, delta=1):
        return self

    def event(self, key, payload):
        return self

    def to_dict(self) -> dict:
        return {}


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = NullSpan()
_NULL_CONTEXT = _NullContext()


class NullTracer:
    """Free tracer used when no run has activated tracing.

    ``span()`` hands back one shared no-op context manager — no ids, no
    clock reads, no allocation — which is what keeps the default
    (untraced) pipeline within the <5% overhead budget.
    """

    enabled = False
    trace_id = ""
    sample_every = 0
    spans: list = []

    def span(self, name: str, parent=None, trace_id=None, **attributes) -> _NullContext:
        return _NULL_CONTEXT

    def current(self) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()

_active: Tracer | NullTracer = NULL_TRACER
_active_lock = threading.Lock()


def current_tracer() -> Tracer | NullTracer:
    """The process-wide active tracer (a shared no-op by default)."""
    return _active


class _Activation:
    """Context manager restoring the previous tracer on exit (re-entrant
    activations nest: the inner tracer wins until its block exits)."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer):
        self._tracer = tracer
        self._previous = None

    def __enter__(self):
        global _active
        with _active_lock:
            self._previous = _active
            _active = self._tracer
        return self._tracer

    def __exit__(self, *exc) -> None:
        global _active
        with _active_lock:
            _active = self._previous


def activate(tracer: Tracer | NullTracer) -> _Activation:
    """Install ``tracer`` as the active tracer for a ``with`` block.

    The tracer is visible to every thread (the engine's pool workers and
    MC fan-out included); per-thread span stacks keep parenthood straight.
    """
    return _Activation(tracer)


def iter_tree(tracer: Tracer) -> Iterator[tuple[int, Span]]:
    """Depth-first ``(depth, span)`` walk of a tracer's finished spans."""
    spans = list(tracer.spans)
    children: dict[Optional[str], list[Span]] = {}
    ids = {s.span_id for s in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: (s.start_unix, s.span_id))

    def walk(parent_key, depth):
        for span in children.get(parent_key, ()):
            yield depth, span
            yield from walk(span.span_id, depth + 1)

    yield from walk(None, 0)
