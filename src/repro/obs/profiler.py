"""A dependency-free statistical sampling profiler with trace-id tagging.

Where the span tracer (:mod:`repro.obs.tracer`) answers "which *phase* of
the pipeline spent the time", the profiler answers "which *code*": it
periodically captures Python stacks and aggregates them into collapsed
("folded") form — ``frame;frame;frame count`` — directly consumable by
``flamegraph.pl``, speedscope or any folded-stack tooling.

Two sampling engines share the same output format:

* ``mode="signal"`` — a ``setitimer`` profiling timer delivering
  ``SIGPROF`` on consumed CPU time.  Near-zero cost between samples, but
  CPython delivers signals to the main thread only, so it profiles
  single-threaded runs (``python -m repro.experiments --profile``).  A
  sample whose timer fires while this very thread is reading the
  aggregate (``folded()`` on a live profiler) is dropped rather than
  deadlocking on the non-reentrant lock; ``samples_dropped`` counts
  these.
* ``mode="thread"`` — a daemon thread polling ``sys._current_frames()``
  every ``interval`` seconds.  Samples *every* thread (the service's
  request handler threads and the engine's solve pools), which is what
  ``python -m repro serve --profile`` uses.  No ``sys.settrace``, no
  per-call overhead — cost is proportional to the sampling rate, not to
  the work being profiled.

``mode="auto"`` picks ``signal`` when available on the main thread and
falls back to ``thread`` elsewhere (Windows, non-main threads).

**Trace-id attribution**: a request thread may tag itself with the trace
id it is serving (:func:`tag_thread` / :func:`tagged`); every sample
taken from a tagged thread is attributed to that trace, so a slow
request's profile slice can be cut out of the aggregate by trace id
(:meth:`SamplingProfiler.folded` with ``trace_id=...``) — this is how
the scheduler's slow-query log attaches "where the CPU went" to the
offending request.  In the combined folded output, attributed stacks are
rooted under a synthetic ``trace:<id>`` frame.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import IO, Optional, Union

__all__ = [
    "SamplingProfiler",
    "active_profiler",
    "export_metrics",
    "tag_thread",
    "tagged",
    "untag_thread",
]

#: thread ident -> trace id; plain dict ops are atomic under the GIL, so
#: tagging stays lock-free on the request hot path.
_THREAD_TRACES: dict = {}

_ACTIVE: Optional["SamplingProfiler"] = None
_ACTIVE_LOCK = threading.Lock()


def tag_thread(trace_id: str) -> None:
    """Attribute this thread's future samples to ``trace_id``."""
    _THREAD_TRACES[threading.get_ident()] = trace_id


def untag_thread() -> None:
    """Stop attributing this thread's samples to any trace."""
    _THREAD_TRACES.pop(threading.get_ident(), None)


@contextmanager
def tagged(trace_id: Optional[str]):
    """Tag this thread for the duration of a block (None = no-op)."""
    if not trace_id:
        yield
        return
    tag_thread(trace_id)
    try:
        yield
    finally:
        untag_thread()


def active_profiler() -> Optional["SamplingProfiler"]:
    """The currently running profiler, if any (for slow-query capture)."""
    return _ACTIVE


def export_metrics(registry, profiler: Optional["SamplingProfiler"] = None) -> None:
    """Write the profiler's sample counters into a (per-scrape) registry.

    A no-op when no profiler is running — scrapes of an unprofiled
    service simply omit the families.  ``samples_dropped`` matters
    operationally: a nonzero rate means signal-mode samples are being
    discarded to avoid self-deadlock, i.e. the profile under-counts.
    """
    profiler = profiler if profiler is not None else active_profiler()
    if profiler is None:
        return
    registry.counter(
        "profiler_samples_total",
        "Stack samples aggregated by the sampling profiler",
    ).inc(profiler.samples_taken)
    registry.counter(
        "profiler_samples_dropped_total",
        "Samples dropped because the aggregation lock was busy "
        "(signal mode; the profile under-counts by this much)",
    ).inc(profiler.samples_dropped)


def _frame_label(frame) -> str:
    code = frame.f_code
    return f"{os.path.basename(code.co_filename)}:{code.co_name}"


def _collapse(frame, max_depth: int) -> str:
    """Root-first ``;``-joined stack of ``frame`` (the folded key)."""
    labels = []
    while frame is not None and len(labels) < max_depth:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return ";".join(labels)


class SamplingProfiler:
    """Aggregating stack sampler; start/stop or use as a context manager.

    :param interval: seconds between samples (default 5 ms → ~200 Hz).
    :param mode: ``"auto"``, ``"signal"`` or ``"thread"`` (see module doc).
    :param max_depth: frames kept per stack (deep recursions truncate).
    :param max_unique_stacks: bound on distinct aggregated stacks; once
        reached, new stacks fold into a synthetic ``(truncated)`` bucket
        so a pathological workload cannot grow memory without bound.
    """

    def __init__(
        self,
        interval: float = 0.005,
        mode: str = "auto",
        max_depth: int = 64,
        max_unique_stacks: int = 50_000,
    ):
        if mode not in ("auto", "signal", "thread"):
            raise ValueError(f"mode must be auto|signal|thread, got {mode!r}")
        self.interval = max(1e-4, float(interval))
        self.mode = mode
        self.max_depth = max_depth
        self.max_unique_stacks = max_unique_stacks
        #: (trace_id | None, folded_stack) -> sample count
        self._counts: dict = {}
        self._lock = threading.Lock()
        self._running = False
        self._resolved_mode: Optional[str] = None
        self._stop_event = threading.Event()
        self._sampler_thread: Optional[threading.Thread] = None
        self._old_handler = None
        self.samples_taken = 0
        #: signal-mode samples dropped because the timer fired while this
        #: very thread held the aggregation lock (see :meth:`_record`).
        self.samples_dropped = 0
        self.started_unix: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------
    def _pick_mode(self) -> str:
        if self.mode != "auto":
            return self.mode
        import signal

        if (
            hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        ):
            return "signal"
        return "thread"

    def start(self) -> "SamplingProfiler":
        global _ACTIVE
        if self._running:
            return self
        self._resolved_mode = self._pick_mode()
        self._stop_event.clear()
        self.started_unix = time.time()
        if self._resolved_mode == "signal":
            self._start_signal()
        else:
            self._start_thread()
        self._running = True
        with _ACTIVE_LOCK:
            _ACTIVE = self
        return self

    def stop(self) -> "SamplingProfiler":
        global _ACTIVE
        if not self._running:
            return self
        if self._resolved_mode == "signal":
            self._stop_signal()
        else:
            self._stop_thread()
        self._running = False
        with _ACTIVE_LOCK:
            if _ACTIVE is self:
                _ACTIVE = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._running

    # -- signal engine -----------------------------------------------------
    def _start_signal(self) -> None:
        import signal

        self._old_handler = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def _stop_signal(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._old_handler is not None:
            signal.signal(signal.SIGPROF, self._old_handler)
            self._old_handler = None

    def _on_signal(self, signum, frame) -> None:
        if frame is not None:
            self._record(threading.get_ident(), frame, blocking=False)

    # -- thread engine -----------------------------------------------------
    def _start_thread(self) -> None:
        self._sampler_thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._sampler_thread.start()

    def _stop_thread(self) -> None:
        self._stop_event.set()
        if self._sampler_thread is not None:
            self._sampler_thread.join(timeout=5.0)
            self._sampler_thread = None

    def _sample_loop(self) -> None:
        own_ident = threading.get_ident()
        while not self._stop_event.wait(self.interval):
            frames = sys._current_frames()
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                self._record(ident, frame)

    # -- aggregation -------------------------------------------------------
    def _record(self, ident: int, frame, blocking: bool = True) -> None:
        stack = _collapse(frame, self.max_depth)
        trace_id = _THREAD_TRACES.get(ident)
        key = (trace_id, stack)
        # The signal path must never block: SIGPROF is delivered on the
        # main thread, which may itself be inside folded()/__len__ holding
        # this non-reentrant lock (slow-query capture reads a live
        # profiler) — a blocking acquire there is a self-deadlock.  Drop
        # the sample instead.
        if not self._lock.acquire(blocking):
            self.samples_dropped += 1
            return
        try:
            self.samples_taken += 1
            if key not in self._counts and len(self._counts) >= self.max_unique_stacks:
                key = (trace_id, "(truncated)")
            self._counts[key] = self._counts.get(key, 0) + 1
        finally:
            self._lock.release()

    # -- output ------------------------------------------------------------
    def folded(self, trace_id: Optional[str] = None) -> dict:
        """``{folded_stack: count}``.

        With ``trace_id`` given: only that trace's samples, stacks bare.
        Without: every sample; stacks attributed to a trace are rooted
        under a synthetic ``trace:<id>`` frame.
        """
        with self._lock:
            items = list(self._counts.items())
        out: dict = {}
        for (tid, stack), count in items:
            if trace_id is not None:
                if tid != trace_id:
                    continue
                key = stack
            else:
                key = f"trace:{tid};{stack}" if tid else stack
            out[key] = out.get(key, 0) + count
        return out

    def write_folded(
        self, target: Union[str, IO[str]], trace_id: Optional[str] = None
    ) -> int:
        """Write collapsed stacks (``stack count`` lines); returns line count."""
        folded = self.folded(trace_id)
        lines = [f"{stack} {count}\n" for stack, count in sorted(folded.items())]
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
        else:
            target.writelines(lines)
        return len(lines)

    def __len__(self) -> int:
        with self._lock:
            return len(self._counts)

    def __repr__(self) -> str:
        mode = self._resolved_mode or self.mode
        return (
            f"SamplingProfiler(mode={mode!r}, interval={self.interval}, "
            f"samples={self.samples_taken}, stacks={len(self)})"
        )
