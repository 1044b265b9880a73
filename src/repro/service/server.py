"""The stdlib HTTP/JSON front-end of the aggregate-query service.

``ThreadingHTTPServer`` (one thread per connection) over four routes:

* ``POST /v1/query``  — answer one :class:`~repro.service.api.QueryRequest`
  (blocking; the scheduler guarantees a terminal status).  HTTP codes map
  the response status: 200 ok/degraded, 429 rejected, 504 timeout,
  400 invalid.
* ``GET /v1/status``  — JSON service/scheduler snapshot.
* ``GET /healthz``    — liveness probe.
* ``GET /metrics``    — the engine counters and phase timings of
  :func:`repro.obs.export.global_registry` plus service gauges (queue
  depth, in-flight leaders, the collector's frozen objects and
  collections per generation) and the scheduler's request counters (per
  status, dedup hits, deadline misses) and latency histograms.
  Content-negotiated: plain requests get
  Prometheus text 0.0.4 (exemplar-free — exemplars are illegal there);
  ``Accept: application/openmetrics-text`` gets the OpenMetrics
  exposition with trace-id exemplars and the ``# EOF`` terminator.

The process keeps one long-lived :class:`~repro.obs.tracer.Tracer`
active; each request's root span carries a fresh trace id (see
``Tracer.span(trace_id=...)``), so a ``--trace`` JSONL stream contains
one distinguishable span tree per request.

A process started by :func:`serve` with ``block=True`` owns its heap and
settles it once after warm-up (:func:`_settle_heap`).
"""

from __future__ import annotations

import gc
import itertools
import json
import logging
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence, Tuple

import repro
from repro.errors import ValidationError
from repro.engine.fabric import l2_handle
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.obs.export import (
    OPENMETRICS_CONTENT_TYPE,
    TEXT_CONTENT_TYPE,
    JsonlSink,
    MetricsRegistry,
    global_registry,
    render_registries,
)
from repro.obs.logs import configure_logging
from repro.obs.profiler import export_metrics as export_profiler_metrics
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.slowlog import SlowQueryRing, SpanBuffer
from repro.obs.tracer import Tracer, activate
from repro.service.api import QueryRequest, http_status_for
from repro.service.scheduler import QueryScheduler

logger = logging.getLogger(__name__)

#: Young-generation threshold of a serving process that owns its heap.
#: A request keeps its lineage (``BoolVar``s, ``LinearConstraint``s,
#: rows) alive until it returns, and it then dies by refcount; at the
#: default 700 the collector re-scanned it ~80 times per ``sweep``
#: request.  This is above the peak of live tracked objects of most
#: requests (Q1/Q2 on the benchmark's fixture: at most ~47k; a Q3 on
#: k-anonymity or km peaks at 108-153k and pays one or two young
#: collections), and requests create no cyclic garbage
#: (tests/test_heap_policy.py), so the collector has nothing to reclaim
#: that refcounting does not.  Unlike ``gc.disable()`` it still bounds a
#: future cycle leak at this many young objects.
YOUNG_GC_THRESHOLD = 100_000


def _settle_heap() -> None:
    """Collect once, move the warmed heap (dataset, encodings, sessions)
    to the permanent generation, and raise the young threshold, so later
    collections scan only what requests allocate."""
    gc.collect()
    gc.freeze()
    gc.set_threshold(YOUNG_GC_THRESHOLD, 50, 100)


def _gc_state() -> dict:
    """The ``/v1/status`` ``gc`` block: the collector's settings and
    per-generation counts since the process started."""
    stats = gc.get_stats()
    return {
        "frozen": gc.get_freeze_count(),
        "threshold": list(gc.get_threshold()),
        "collections": [generation["collections"] for generation in stats],
        "collected": [generation["collected"] for generation in stats],
    }


class QueryService:
    """Everything a serving process keeps resident, bundled.

    Owns the :class:`~repro.experiments.runner.ExperimentContext` (dataset,
    encodings, shared solve sessions), the
    :class:`~repro.service.scheduler.QueryScheduler`, and the long-lived
    tracer (optionally streaming JSONL to ``trace_path``).  Use as a
    context manager, or call :meth:`close`.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        schemes: Sequence[str] = ("km",),
        k_values: Sequence[int] = (2,),
        workers: int = 4,
        max_queue: int = 64,
        default_deadline_ms: Optional[float] = None,
        allow_cold: bool = False,
        trace_path: Optional[str] = None,
        slow_threshold_ms: Optional[float] = None,
        slow_log_dir: Optional[str] = None,
        slo_config: Optional[SLOConfig] = None,
        default_precision: str = "tight",
    ):
        self.config = config or ExperimentConfig()
        self.context = ExperimentContext(self.config)
        self.slo = SLOTracker(slo_config)
        # The per-trace span buffer feeds the scheduler unconditionally:
        # EXPLAIN mines a request's finished span tree from it, and fast
        # requests' buckets are popped (and dropped) on completion either
        # way.  The slow-query ring stays opt-in via slow_threshold_ms.
        self._span_buffer = SpanBuffer()
        self.slow_log: Optional[SlowQueryRing] = None
        if slow_threshold_ms is not None:
            self.slow_log = SlowQueryRing(slow_log_dir or "slow-queries")
        # Build the fabric (a process fabric forks its workers here) before
        # any request thread runs that a fork could copy a held lock from.
        self.context.fabric
        self.scheduler = QueryScheduler(
            self.context,
            workers=workers,
            max_queue=max_queue,
            default_deadline_ms=default_deadline_ms,
            allow_cold=allow_cold,
            slow_threshold_ms=slow_threshold_ms,
            slow_log=self.slow_log,
            span_buffer=self._span_buffer,
            slo=self.slo,
            default_precision=default_precision,
        )
        self._sink = JsonlSink(trace_path) if trace_path else None
        sinks = [s for s in (self._sink, self._span_buffer) if s is not None]
        # retain=False: a serving process must not accumulate spans forever;
        # the JSONL stream (if any) is the durable record.
        self.tracer = Tracer(sinks, retain=False)
        self._activation = activate(self.tracer)
        self._activation.__enter__()
        self.started_unix = time.time()
        self._closed = False
        self.scheduler.warm(itertools.product(schemes, k_values))

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.scheduler.close()
        self.context.close()
        self._activation.__exit__(None, None, None)
        if self._sink is not None:
            self._sink.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- views -------------------------------------------------------------
    @property
    def uptime_s(self) -> float:
        return time.time() - self.started_unix

    def status(self) -> dict:
        return {
            "service": "repro-query-service",
            "version": repro.__version__,
            "uptime_s": self.uptime_s,
            "warmed": sorted(list(pair) for pair in self.scheduler.warmed),
            "workers": self.scheduler.workers,
            "max_queue": self.scheduler.max_queue,
            "default_deadline_ms": self.scheduler.default_deadline_ms,
            "default_precision": self.scheduler.default_precision,
            "queue_depth": self.scheduler.queue_depth,
            "in_flight": self.scheduler.in_flight,
            "scheduler": self.scheduler.status(),
            "sessions": self.context.cache_stats(),
            "fabric": self.context.fabric_stats(),
            "slo": self.slo.snapshot(),
            "gc": _gc_state(),
            "trace": self._sink.path if self._sink else None,
            "slow_log": (
                {
                    "directory": self.slow_log.directory,
                    "threshold_ms": self.scheduler.slow_threshold_ms,
                    "written": self.slow_log.written,
                }
                if self.slow_log is not None
                else None
            ),
        }

    def metrics_text(self, fmt: str = "text") -> str:
        """One metrics scrape, in either exposition format.

        Three sections concatenated (metric names are disjoint):

        1. a fresh snapshot registry — the point-in-time service gauges,
           the slow-query capture count, profiler and SLO state;
        2. the scheduler's long-lived registry — the request counters
           (per terminal status, dedup hits, deadline misses, admission
           rejections) and histograms (queue wait, solve wall, end-to-end
           latency, estimator tiers);
        3. the process-global registry (engine counters and phase
           timings, engine solve wall, B&B nodes/prunes per search,
           executor-fabric units, L2 cache hits/misses/writes).

        ``fmt="text"`` is Prometheus 0.0.4 and exemplar-free;
        ``fmt="openmetrics"`` carries the trace-id exemplars on the
        histogram buckets and ends with ``# EOF``.
        """
        registry = MetricsRegistry()
        registry.gauge("service_queue_depth", "Requests waiting for a serving slot").set(
            self.scheduler.queue_depth
        )
        registry.gauge(
            "service_in_flight", "Requests leading an in-flight answer"
        ).set(self.scheduler.in_flight)
        registry.gauge("service_uptime_seconds", "Seconds since service start").set(
            self.uptime_s
        )
        registry.gauge(
            "service_gc_frozen_objects", "Objects in the collector's permanent generation"
        ).set(gc.get_freeze_count())
        collections = registry.counter(
            "service_gc_collections_total", "Cyclic-collector runs per generation"
        )
        for generation, stats in enumerate(gc.get_stats()):
            collections.inc(stats["collections"], labels={"generation": str(generation)})
        if self.slow_log is not None:
            registry.counter(
                "service_slow_queries_total", "Requests captured by the slow-query log"
            ).inc(self.slow_log.written)
        export_profiler_metrics(registry)
        self.slo.export(registry)
        return render_registries(
            (registry, self.scheduler.metrics, global_registry()), fmt=fmt
        )

    def deep_health(self) -> Tuple[bool, dict]:
        """``/healthz?deep=1``: dependency probes + error-budget state.

        Three checks, all of which must pass:

        * **slo** — no objective is burning budget past its threshold in
          every window (:meth:`~repro.obs.slo.SLOTracker.snapshot`);
        * **fabric** — the executor fabric answers a liveness probe (the
          process fabric round-trips a no-op through a worker);
        * **l2** — the shared L2 solve cache (when configured) accepts a
          probe write on a fresh connection.

        The shallow ``/healthz`` stays a pure liveness check — an
        orchestrator restarting the process on an SLO breach would make
        every brown-out worse — deep health is for alerting and
        load-balancer draining.
        """
        snapshot = self.slo.snapshot()
        checks = {
            "slo": {
                "ok": not snapshot["breached"]["any"],
                "breached": snapshot["breached"],
            }
        }
        try:
            fabric_ok = bool(self.context.fabric.ping(timeout=5.0))
        except Exception:  # noqa: BLE001 — an unreachable fabric is "not ok"
            fabric_ok = False
        checks["fabric"] = {
            "ok": fabric_ok,
            "kind": self.context.fabric_stats().get("kind"),
        }
        l2_path = self.context.l2_path
        if l2_path:
            cache = l2_handle(l2_path)
            checks["l2"] = {
                "ok": cache is not None and cache.ping(),
                "path": l2_path,
            }
        ok = all(check["ok"] for check in checks.values())
        return ok, {
            "status": "ok" if ok else "unhealthy",
            "uptime_s": self.uptime_s,
            "checks": checks,
        }


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the :class:`QueryService` for handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: QueryService):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; with Nagle on, the body
    # of a kept-alive response waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: A003 — BaseHTTPRequestHandler API
        logger.debug("%s - %s", self.address_string(), fmt % args)

    def _send_json(self, code: int, payload) -> None:
        body = (
            payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
        ).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- routes ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        service = self.server.service
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            params = urllib.parse.parse_qs(query)
            if params.get("deep", ["0"])[-1].lower() in ("1", "true", "yes"):
                ok, payload = service.deep_health()
                self._send_json(200 if ok else 503, payload)
            else:
                self._send_json(200, {"status": "ok", "uptime_s": service.uptime_s})
        elif path == "/v1/status":
            self._send_json(200, service.status())
        elif path == "/metrics":
            # Exemplars are not legal in the 0.0.4 text format, so they
            # are served only to scrapers that negotiate OpenMetrics.
            if "application/openmetrics-text" in self.headers.get("Accept", ""):
                self._send_text(
                    200,
                    service.metrics_text(fmt="openmetrics"),
                    OPENMETRICS_CONTENT_TYPE,
                )
            else:
                self._send_text(200, service.metrics_text(), TEXT_CONTENT_TYPE)
        else:
            self._send_json(404, {"status": "error", "error": f"no route {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        service = self.server.service
        path = self.path.split("?", 1)[0]
        if path != "/v1/query":
            self._send_json(404, {"status": "error", "error": f"no route {path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length).decode("utf-8") if length else ""
            request = QueryRequest.from_json(body)
        except ValidationError as exc:
            self._send_json(400, {"status": "error", "error": str(exc)})
            return
        response = service.scheduler.execute(request)
        self._send_json(http_status_for(response.status), response.to_json())


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    config: Optional[ExperimentConfig] = None,
    schemes: Sequence[str] = ("km",),
    k_values: Sequence[int] = (2,),
    workers: int = 4,
    max_queue: int = 64,
    default_deadline_ms: Optional[float] = None,
    allow_cold: bool = False,
    trace_path: Optional[str] = None,
    slow_threshold_ms: Optional[float] = None,
    slow_log_dir: Optional[str] = None,
    ready_file: Optional[str] = None,
    log_format: Optional[str] = None,
    slo_config: Optional[SLOConfig] = None,
    default_precision: str = "tight",
    block: bool = True,
):
    """Warm a service and run the HTTP front-end.

    ``port=0`` binds an ephemeral port; the bound address is printed and,
    when ``ready_file`` is given, written there as JSON — the load
    generator and the CI smoke job wait on that file.

    ``log_format`` installs the structured request-log handler
    (:func:`repro.obs.logs.configure_logging`); ``"json"`` makes stdout
    a pure JSON-lines stream — the startup banner included — which is
    what the CI smoke job asserts.  ``None`` keeps the historical plain
    ``print`` banner (tests calling ``serve(block=False)``).

    With ``block=True`` (the CLI path) the process is the server's own:
    the warmed heap is settled (:func:`_settle_heap`) before the ready
    file is written, and this serves until interrupted and returns an
    exit code.  With ``block=False`` (tests) it leaves the collector
    alone and returns the running ``(ServiceHTTPServer, QueryService,
    Thread)`` triple; the caller owns shutdown.
    """
    if log_format is not None:
        configure_logging(log_format)
    service = QueryService(
        config=config,
        schemes=schemes,
        k_values=k_values,
        workers=workers,
        max_queue=max_queue,
        default_deadline_ms=default_deadline_ms,
        allow_cold=allow_cold,
        trace_path=trace_path,
        slow_threshold_ms=slow_threshold_ms,
        slow_log_dir=slow_log_dir,
        slo_config=slo_config,
        default_precision=default_precision,
    )
    try:
        httpd = ServiceHTTPServer((host, port), service)
    except Exception:
        service.close()
        raise
    if block:
        _settle_heap()
    bound_host, bound_port = httpd.server_address[:2]
    ready = {
        "host": bound_host,
        "port": bound_port,
        "url": f"http://{bound_host}:{bound_port}",
        "warmed": sorted(list(pair) for pair in service.scheduler.warmed),
    }
    if ready_file:
        with open(ready_file, "w", encoding="utf-8") as handle:
            json.dump(ready, handle)
    if log_format is not None:
        logger.info("repro query service listening on %s", ready["url"])
    else:
        print(f"repro query service listening on {ready['url']}", flush=True)

    if not block:
        thread = threading.Thread(
            target=httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        thread.start()
        return httpd, service, thread

    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        if log_format is not None:
            logger.info("shutting down")
        else:
            print("shutting down", flush=True)
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.close()
    return 0
