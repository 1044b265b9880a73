"""The aggregate-query service layer: serve LICM bounds to many clients.

A long-lived serving process keeps an :class:`~repro.anonymize.encode.EncodedDatabase`
plus a shared :class:`~repro.engine.session.SolveSession` resident per
``(scheme, k)`` encoding and answers aggregate-bound requests concurrently:

* :mod:`repro.service.api` — typed request/response dataclasses with JSON
  (de)serialization and validation;
* :mod:`repro.service.scheduler` — bounded admission, serving slots on
  the caller's thread, per-request deadlines (cooperative BIP
  cancellation + degradation to a containing interval) and in-flight
  dedup keyed by the plan identity;
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer``
  front-end (``POST /v1/query``, ``GET /v1/status``, ``GET /healthz``,
  ``GET /metrics``);
* :mod:`repro.service.client` — a small ``urllib`` client used by tests
  and the load generator (``benchmarks/bench_service_throughput.py``).

Start one with ``python -m repro serve``; see ``docs/service.md``.
"""

from repro.service.api import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    STATUSES,
    QueryRequest,
    QueryResponse,
    http_status_for,
)
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.scheduler import QueryScheduler
from repro.service.server import QueryService, serve

__all__ = [
    "QueryRequest",
    "QueryResponse",
    "QueryScheduler",
    "QueryService",
    "STATUSES",
    "STATUS_DEGRADED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_TIMEOUT",
    "ServiceClient",
    "ServiceClientError",
    "http_status_for",
    "serve",
]
