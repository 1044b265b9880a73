"""End-to-end HTTP tests: real sockets, real threads, ephemeral port."""

from __future__ import annotations

import json
import re
import socket
import urllib.request

import pytest

from repro.experiments.config import ExperimentConfig
from repro.obs import validate_trace
from repro.service.api import STATUS_DEGRADED, STATUS_OK
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.server import _Handler, serve


def _start(trace_path=None):
    config = ExperimentConfig(
        num_transactions=60,
        num_items=24,
        k_values=(2,),
        mc_samples=4,
        seed=7,
        solver_backend="bb",
    )
    httpd, service, thread = serve(
        host="127.0.0.1",
        port=0,  # ephemeral
        config=config,
        schemes=("km",),
        k_values=(2,),
        workers=2,
        max_queue=16,
        trace_path=trace_path,
        block=False,
    )
    url = f"http://127.0.0.1:{httpd.server_address[1]}"

    def stop():
        httpd.shutdown()
        httpd.server_close()
        service.close()
        thread.join(timeout=10.0)

    return url, service, stop


@pytest.fixture(scope="module")
def running_server(tmp_path_factory):
    trace_path = str(tmp_path_factory.mktemp("serve") / "trace.jsonl")
    url, service, stop = _start(trace_path)
    yield url, trace_path, service
    stop()


@pytest.fixture()
def client(running_server):
    url, _, _ = running_server
    return ServiceClient(url, timeout=120.0)


def test_healthz(client):
    payload = client.healthz()
    assert payload["status"] == "ok"
    assert payload["uptime_s"] >= 0


def test_status_reports_warmed_encodings_and_stats(client):
    payload = client.status()
    assert payload["service"] == "repro-query-service"
    assert ["km", 2] in payload["warmed"]
    assert payload["workers"] == 2
    assert "scheduler" in payload and "sessions" in payload
    assert payload["scheduler"]["submitted"] >= 0


def test_query_ok_over_http(client):
    response = client.query(query="Q1")
    assert response.status == STATUS_OK
    assert response.exact
    assert response.lower <= response.upper
    assert response.fingerprint
    assert response.trace_id


def test_each_request_gets_its_own_trace_id(client):
    first = client.query(query="Q1")
    second = client.query(query="Q1")
    assert first.trace_id and second.trace_id
    assert first.trace_id != second.trace_id
    assert second.cache_hits > 0  # same BIP, shared solve cache


def test_deadline_degrades_over_http(client):
    response = client.query(query="Q1", deadline_ms=0.01, mc_samples=4)
    assert response.status == STATUS_DEGRADED
    assert response.http_status == 200
    assert response.mc_samples == 4


def test_invalid_request_is_http_400(running_server):
    url, _, _ = running_server
    request = urllib.request.Request(
        url + "/v1/query",
        data=json.dumps({"query": "Q9"}).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    payload = json.loads(excinfo.value.read())
    assert "Q9" in payload["error"]


def test_non_finite_deadline_is_http_400(running_server):
    url, _, _ = running_server
    request = urllib.request.Request(
        url + "/v1/query",
        data=b'{"query": "Q1", "deadline_ms": NaN}',
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    assert "deadline_ms must be finite" in json.loads(excinfo.value.read())["error"]


@pytest.mark.parametrize(
    "body",
    [
        b'{"query": "Q1", "params": {"pa_selectivity": [1]}}',
        b'{"query": "Q1", "params": {"pa_selectivity": "abc"}}',
        b'{"query": "Q1", "params": {"pb_selectivity": NaN}}',
        b'{"query": "Q1", "params": {"pb_selectivity": 2}}',
        b'{"aggregate": "count", "params": {"pb_selectivity": 0.3}}',
    ],
)
def test_bad_params_are_http_400_without_a_traceback(running_server, body, caplog):
    url, _, _ = running_server
    request = urllib.request.Request(
        url + "/v1/query", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    assert "params" in json.loads(excinfo.value.read())["error"]
    assert not [record for record in caplog.records if record.exc_info]


@pytest.fixture(scope="module")
def error_server():
    """A server of its own: ``error`` answers spend the availability
    budget that ``running_server``'s SLO test expects untouched."""
    url, _, stop = _start()
    yield url
    stop()


@pytest.mark.parametrize(
    "body, message",
    [
        (b'{"query": "Q2", "params": {"price_range": 0}}', "exceeds the price range 0"),
        (b'{"query": "Q2", "params": {"location_range": 0}}', "exceeds the location range 0"),
        (b'{"query": "Q3", "params": {"q3_selectivity": 0.6}}', "exceeds the location range"),
    ],
)
def test_params_the_plan_rejects_are_http_400_without_a_traceback(
    error_server, body, message, caplog
):
    url = error_server
    request = urllib.request.Request(
        url + "/v1/query", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    assert message in json.loads(excinfo.value.read())["error"]
    assert not [record for record in caplog.records if record.exc_info]


def test_unknown_precision_is_http_400_not_500(running_server):
    url, _, _ = running_server
    request = urllib.request.Request(
        url + "/v1/query",
        data=json.dumps({"query": "Q9", "precision": "exactish"}).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    payload = json.loads(excinfo.value.read())
    # Both problems come back at once, not just the first.
    assert "precision must be one of" in payload["error"]
    assert "Q9" in payload["error"]


def test_client_forwards_precision_and_tier_provenance_roundtrips(client):
    fast = client.query(query="Q1", precision="fast")
    tight = client.query(query="Q1", precision="tight")
    assert fast.status == STATUS_OK, fast.error
    assert fast.tier in ("structural", "entropy", "lp", "exact")
    assert not fast.exact
    assert fast.estimated_components + fast.exact_components == fast.components
    assert tight.tier == "exact" and tight.exact
    assert fast.lower <= tight.lower <= tight.upper <= fast.upper


def test_status_reports_default_precision(client):
    assert client.status()["default_precision"] == "tight"


def test_unknown_route_is_http_404(client):
    status, payload = client._json("/v2/nope")
    assert status == 404
    assert "no route" in payload["error"]


def test_metrics_exposes_engine_and_service_families(client):
    client.query(query="Q1")  # make sure at least one request is counted
    text = client.metrics()
    for family in (
        "repro_service_requests_total",
        "repro_service_queue_depth",
        "repro_service_dedup_hits_total",
        "repro_service_deadline_misses_total",
        "repro_phase_seconds_total",
    ):
        assert family in text, f"{family} missing from /metrics"
    assert 'status="ok"' in text
    # The deprecated point-in-time quantile gauges are gone: the duration
    # histograms are the one source of latency truth.
    assert "repro_service_latency_seconds" not in text
    assert "repro_service_solve_seconds" not in text


def _series(text, family, label):
    pattern = r'^%s\{%s="([^"]+)"\} (\S+)$' % (family, label)
    return {m[0]: float(m[1]) for m in re.findall(pattern, text, re.M)}


def _moved(before, after, family, label):
    old, new = _series(before, family, label), _series(after, family, label)
    return {name for name, value in new.items() if value != old.get(name, 0)}


def test_metrics_families_render_once_and_engine_series_move():
    """Counters and phase timings live only in the process registry: no
    family is registered in two of the registries a scrape concatenates,
    and a cold then warm decomposed Q1 moves the engine series."""
    url, _, stop = _start()
    try:
        client = ServiceClient(url, timeout=120.0)
        before = client.metrics()
        cold = client.query(query="Q1")
        warm = client.query(query="Q1")
        assert cold.status == warm.status == STATUS_OK
        assert warm.cache_hits > 0
        after = client.metrics()
        for text in (after, client.metrics(openmetrics=True)):
            families = re.findall(r"^# TYPE (\S+)", text, re.M)
            assert families and len(families) == len(set(families))
        assert _moved(before, after, "repro_counter_total", "name") == {
            "answer_hits",
            "answer_misses",
            "cache_hits",
            "cache_misses",
            "decomposed_prepares",
            "prepare_memo_hits",
            "solver_nodes",
        }
        assert _moved(before, after, "repro_phase_seconds_total", "phase") == {
            "prune",
            "normalize",
            "solve_min",
            "solve_max",
            "l_query",
        }
    finally:
        stop()


def test_status_reports_fabric_and_l2(client):
    payload = client.status()
    fabric = payload["fabric"]
    assert fabric["kind"] in ("inline", "process")
    assert "l2_cache_path" in fabric


def test_client_connection_is_kept_alive(client):
    client.healthz()
    first = client._connection()
    client.healthz()
    assert client._connection() is first  # same socket reused across requests


def test_metrics_content_negotiation(client):
    """Exemplars are OpenMetrics-only: a plain 0.0.4 scrape must stay
    parseable by real Prometheus (no exemplar suffixes, no EOF)."""
    client.query(query="Q1")
    plain = client.metrics()
    assert "# {" not in plain
    assert "# EOF" not in plain
    om = client.metrics(openmetrics=True)
    assert om.endswith("# EOF\n")
    assert om.count("# EOF") == 1
    assert 'trace_id="' in om  # the request above left an exemplar
    # Same histogram families on both sides of the negotiation.
    assert "repro_service_request_duration_seconds_bucket" in plain
    assert "repro_service_request_duration_seconds_bucket" in om


def test_metrics_content_type_headers(running_server):
    url, _, _ = running_server
    with urllib.request.urlopen(url + "/metrics", timeout=30) as reply:
        assert reply.headers["Content-Type"].startswith("text/plain; version=0.0.4")
    request = urllib.request.Request(
        url + "/metrics",
        headers={"Accept": "application/openmetrics-text; version=1.0.0"},
    )
    with urllib.request.urlopen(request, timeout=30) as reply:
        assert reply.headers["Content-Type"].startswith(
            "application/openmetrics-text; version=1.0.0"
        )


def test_trace_stream_is_valid_and_per_request(running_server, client):
    _, trace_path, _ = running_server
    client.query(query="Q2")
    assert validate_trace(trace_path) == []
    with open(trace_path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle if line.strip()]
    roots = [s for s in spans if s["name"] == "service.request"]
    assert len(roots) >= 2
    # Fresh trace id per request, inherited by each request's subtree.
    assert len({r["trace_id"] for r in roots}) == len(roots)
    children_by_trace = {}
    for span in spans:
        children_by_trace.setdefault(span["trace_id"], []).append(span["name"])
    for root in roots:
        assert "service.request" in children_by_trace[root["trace_id"]]


def test_status_carries_slo_block(client):
    client.query(query="Q1")
    slo = client.status()["slo"]
    assert slo["targets"]["availability"] == 0.999
    assert slo["total_requests"] >= 1
    assert len(slo["windows"]) == 2
    assert not slo["breached"]["any"]  # a healthy test run spends no budget


def test_metrics_exposes_slo_gauges(client):
    client.query(query="Q1")
    text = client.metrics()
    for family in (
        "repro_slo_target_ratio",
        "repro_slo_objective_ratio",
        "repro_slo_burn_rate",
        "repro_slo_breach",
    ):
        assert family in text, f"{family} missing from /metrics"
    assert 'objective="availability",window="300s"' in text


def test_deep_health_passes_when_dependencies_are_up(client):
    payload = client.healthz(deep=True)
    assert payload["http_status"] == 200
    assert payload["status"] == "ok"
    checks = payload["checks"]
    assert checks["slo"]["ok"] and checks["fabric"]["ok"]
    assert checks["fabric"]["kind"] in ("inline", "process")


def test_deep_health_flips_503_on_error_budget_burn(running_server):
    """Burning the error budget must flip ``?deep=1`` to 503 while the
    shallow probe stays a pure liveness 200 (no restart storms).

    Runs last among the deep-health tests: the injected errors stay in
    the rolling windows for the rest of the module's lifetime.
    """
    url, _, service = running_server
    probe = ServiceClient(url, timeout=120.0)
    for _ in range(50):
        service.slo.record("error", 0.001)
    payload = probe.healthz(deep=True)
    assert payload["http_status"] == 503
    assert payload["status"] == "unhealthy"
    assert payload["checks"]["slo"]["ok"] is False
    assert probe.healthz()["status"] == "ok"  # shallow: still alive


def test_client_raises_on_unreachable_server():
    dead = ServiceClient("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(ServiceClientError, match="failed"):
        dead.healthz()


def test_accepted_connections_disable_nagle(running_server, monkeypatch):
    """Kept-alive responses must not stall on Nagle + delayed ACK."""
    url, _, _ = running_server
    seen = []
    original = _Handler.setup

    def setup(self):
        original(self)
        seen.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    monkeypatch.setattr(_Handler, "setup", setup)
    fresh = ServiceClient(url, timeout=30.0)  # a new connection, accepted now
    assert fresh.healthz()["status"] == "ok"
    assert seen and all(seen)
