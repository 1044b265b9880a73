"""Wide-event request logs and SLO/error-budget tracking.

Two halves of the serving-observability tentpole:

* :mod:`repro.obs.logs` — one structured line per request, with a JSON
  rendering whose keys the CI smoke job greps (stable-key contract);
* :mod:`repro.obs.slo` — rolling-window burn rates with the multi-window
  breach rule, exported as ``repro_slo_*`` gauges and consumed by
  ``/healthz?deep=1``.
"""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.obs.export import MetricsRegistry
from repro.obs.logs import (
    REQUEST_LOGGER,
    JsonFormatter,
    configure_logging,
    request_logger,
    wide_event,
)
from repro.obs.slo import SLOConfig, SLOTracker
from repro.service.api import STATUS_OK, STATUS_REJECTED, QueryRequest
from repro.service.scheduler import QueryScheduler

#: the stable wide-event key set (CI and operators grep these)
WIDE_KEYS = {
    "event", "request_id", "trace_id", "status", "outcome_reason", "dedup",
    "fingerprint", "kind", "query", "scheme", "k", "cache_tier", "components",
    "cache_hits", "l2_hits", "nodes", "backend", "fabric", "tier",
    "escalations", "queue_ms", "solve_ms", "total_ms",
}


@pytest.fixture
def clean_root_handlers():
    root = logging.getLogger()
    before = list(root.handlers)
    level = root.level
    yield root
    root.handlers[:] = before
    root.setLevel(level)


# -- formatters / configure_logging ------------------------------------------
def test_json_formatter_emits_one_parseable_line_with_stable_keys(
    clean_root_handlers,
):
    stream = io.StringIO()
    configure_logging("json", stream=stream)
    wide_event(request_logger(), {"event": "request", "status": "ok", "k": 2})
    lines = stream.getvalue().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["message"] == "request"
    assert record["logger"] == REQUEST_LOGGER
    assert record["level"] == "info"
    assert record["status"] == "ok" and record["k"] == 2
    assert isinstance(record["ts"], float)


def test_json_formatter_keeps_exceptions_on_one_line(clean_root_handlers):
    stream = io.StringIO()
    configure_logging("json", stream=stream)
    try:
        raise RuntimeError("boom")
    except RuntimeError:
        logging.getLogger("repro.test").exception("request failed")
    lines = stream.getvalue().splitlines()
    assert len(lines) == 1  # the traceback is folded into the one document
    record = json.loads(lines[0])
    assert record["level"] == "error"
    assert "RuntimeError: boom" in record["exc"]


def test_text_format_appends_sorted_key_value_pairs(clean_root_handlers):
    stream = io.StringIO()
    configure_logging("text", stream=stream)
    wide_event(request_logger(), {"b": 2, "a": 1, "event": "request"})
    line = stream.getvalue().strip()
    assert line.endswith("request a=1 b=2 event=request")


def test_configure_logging_is_idempotent_and_validates(clean_root_handlers):
    first = configure_logging("json", stream=io.StringIO())
    second = configure_logging("text", stream=io.StringIO())
    root = logging.getLogger()
    ours = [
        handler
        for handler in root.handlers
        if (handler.get_name() or "").startswith("repro-logs-")
    ]
    assert ours == [second] and first not in root.handlers
    with pytest.raises(ValueError, match="log format"):
        configure_logging("xml")


def test_wide_payload_keys_survive_json_round_trip():
    formatter = JsonFormatter()
    record = logging.LogRecord("x", logging.INFO, __file__, 1, "request", (), None)
    record.wide = {key: None for key in WIDE_KEYS}
    parsed = json.loads(formatter.format(record))
    assert WIDE_KEYS <= set(parsed)


# -- SLO tracker --------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def _tracker(**overrides):
    clock = FakeClock()
    config = SLOConfig(
        availability_target=0.9,
        latency_target_ms=100.0,
        latency_objective=0.9,
        windows_s=(60.0, 600.0),
        burn_thresholds=(2.0, 1.0),
        **overrides,
    )
    return SLOTracker(config, clock=clock), clock


def test_slo_empty_windows_are_compliant():
    tracker, _ = _tracker()
    snap = tracker.snapshot()
    assert not snap["breached"]["any"]
    assert all(w["availability"] == 1.0 for w in snap["windows"])


def test_slo_availability_breach_requires_every_window():
    tracker, clock = _tracker()
    # old successes fill only the long window
    for _ in range(10):
        tracker.record(STATUS_OK, 0.01)
    clock.now += 120.0  # past the short window, inside the long one
    for _ in range(4):
        tracker.record("error", 0.01)
    snap = tracker.snapshot()
    short, long_ = snap["windows"]
    # short window: 4/4 errors → burn 10×; long: 4/14 errors → burn ~2.86×
    assert short["availability_burn_rate"] == pytest.approx(10.0)
    assert long_["availability_burn_rate"] == pytest.approx((4 / 14) / 0.1)
    assert snap["breached"]["availability"]  # both windows past threshold

    # recovery: a burst of fresh successes clears the short window's burn
    for _ in range(36):
        tracker.record(STATUS_OK, 0.01)
    assert not tracker.breached()


def test_slo_latency_is_measured_over_good_requests_only():
    tracker, _ = _tracker()
    for _ in range(8):
        tracker.record(STATUS_OK, 0.01)  # fast
    for _ in range(2):
        tracker.record(STATUS_OK, 0.5)  # slow (target 100 ms)
    tracker.record("error", 5.0)  # errors do not pollute the latency ratio
    snap = tracker.snapshot()
    assert snap["windows"][0]["latency_ratio"] == pytest.approx(0.8)
    assert snap["breached"]["latency"]  # 20% slow vs a 10% budget, burn 2×
    assert "degraded" in tracker.config.good_statuses  # kept promise


def test_slo_events_age_out_of_the_rolling_windows():
    tracker, clock = _tracker()
    for _ in range(5):
        tracker.record("error", 0.01)
    assert tracker.breached()
    clock.now += 601.0  # beyond the longest window
    assert not tracker.breached()
    assert tracker.total == 5  # lifetime total survives eviction


def test_slo_config_validation():
    with pytest.raises(ValueError, match="pair up"):
        SLOConfig(windows_s=(60.0,), burn_thresholds=(1.0, 2.0))
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        SLOConfig(availability_target=1.0)


def test_slo_export_writes_gauge_families():
    tracker, _ = _tracker()
    tracker.record(STATUS_OK, 0.01)
    tracker.record("error", 0.01)
    registry = MetricsRegistry()
    snap = tracker.export(registry)
    text = registry.render()
    assert 'repro_slo_target_ratio{objective="availability"} 0.9' in text
    assert 'repro_slo_objective_ratio{objective="availability",window="60s"} 0.5' in text
    assert 'repro_slo_burn_rate{objective="latency",window="600s"}' in text
    assert 'repro_slo_breach{objective="availability"} 1' in text
    assert snap["breached"]["availability"]


# -- scheduler integration ----------------------------------------------------
@pytest.fixture
def capture_requests():
    records: list = []

    class Capture(logging.Handler):
        def emit(self, record):
            records.append(record)

    handler = Capture()
    log = logging.getLogger(REQUEST_LOGGER)
    previous_level = log.level
    log.setLevel(logging.INFO)  # the root default (WARNING) would filter these
    log.addHandler(handler)
    yield records
    log.removeHandler(handler)
    log.setLevel(previous_level)


def test_scheduler_emits_one_wide_event_per_request(capture_requests):
    config = ExperimentConfig(
        num_transactions=40, num_items=16, k_values=(2,), mc_samples=2, seed=7
    )
    context = ExperimentContext(config)
    try:
        with QueryScheduler(context, workers=2, max_queue=8) as scheduler:
            scheduler.warm([("km", 2)])
            response = scheduler.execute(QueryRequest(query="Q1"))
            assert response.status == STATUS_OK
            assert scheduler.slo.total == 1
    finally:
        context.close()
    wides = [r.wide for r in capture_requests if getattr(r, "wide", None)]
    assert len(wides) == 1
    event = wides[0]
    assert set(event) == WIDE_KEYS
    assert event["event"] == "request"
    assert event["status"] == STATUS_OK
    assert event["dedup"] == "leader"
    assert event["request_id"] == response.request_id
    assert event["query"] == "Q1" and event["kind"] == "query"
    assert event["cache_tier"] in ("cold", "l1", "l2")
    assert event["total_ms"] >= event["solve_ms"] >= 0
    # the JSON rendering of a real event is one clean document
    assert json.loads(JsonFormatter().format(capture_requests[0]))


def test_scheduler_rejection_feeds_slo_and_logs(capture_requests):
    config = ExperimentConfig(
        num_transactions=40, num_items=16, k_values=(2,), mc_samples=2, seed=7
    )
    context = ExperimentContext(config)
    try:
        scheduler = QueryScheduler(context, workers=1, max_queue=4)
        scheduler.warm([("km", 2)])
        scheduler.close()
        response = scheduler.submit(QueryRequest(query="Q1")).wait(timeout=5.0)
        assert response is not None and response.status == STATUS_REJECTED
    finally:
        context.close()
    wides = [r.wide for r in capture_requests if getattr(r, "wide", None)]
    assert [w["status"] for w in wides] == [STATUS_REJECTED]
    assert wides[0]["outcome_reason"] == "scheduler is shut down"
    snap = scheduler.slo.snapshot()
    assert snap["total_requests"] == 1
    assert snap["windows"][0]["availability"] == 0.0  # rejected = budget spent


def test_invalid_requests_answer_error_but_spend_no_availability(
    capture_requests, monkeypatch
):
    """A plan the builder rejects is the client's fault: ``error`` on the
    wire, in ``service_requests_total`` and in the wide event, but no SLO
    event.  An internal failure still spends the budget."""
    config = ExperimentConfig(
        num_transactions=40, num_items=16, k_values=(2,), mc_samples=2, seed=7
    )
    context = ExperimentContext(config)
    try:
        with QueryScheduler(context, workers=1, max_queue=8) as scheduler:
            scheduler.warm([("km", 2)])
            bad = QueryRequest(query="Q2", params={"price_range": 0})
            responses = [scheduler.execute(bad) for _ in range(3)]
            assert [r.status for r in responses] == ["error"] * 3
            assert scheduler.slo.total == 0
            assert not scheduler.slo.breached()
            assert 'service_requests_total{status="error"} 3' in scheduler.metrics.render()

            def broken(*args, **kwargs):
                raise RuntimeError("internal failure")

            monkeypatch.setattr(scheduler, "_build_plan", broken)
            internal = scheduler.execute(QueryRequest(query="Q1"))
            assert internal.status == "error" and "internal failure" in internal.error
            assert scheduler.slo.total == 1
            assert scheduler.slo.snapshot()["windows"][0]["availability"] == 0.0
    finally:
        context.close()
    wides = [r.wide for r in capture_requests if getattr(r, "wide", None)]
    assert [w["status"] for w in wides] == ["error"] * 4
