"""Exemplar propagation through the scheduler worker pool + slow capture.

Every terminal response must land its latency in the scheduler's
histograms with the request's trace id as the exemplar — including the
awkward paths: deduped followers (which never ran a solve of their own)
and degraded responses.  The slow-query ring and the profiler's
thread-tagging are exercised through the same worker pool.
"""

from __future__ import annotations

import re
import threading
import time

import pytest

import repro.engine.fabric as fabric_module
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.obs.profiler import _THREAD_TRACES
from repro.obs.slowlog import SlowQueryRing, SpanBuffer
from repro.obs.tracer import Tracer, activate
from repro.service.api import STATUS_DEGRADED, STATUS_OK, QueryRequest
from repro.service.scheduler import QueryScheduler
from repro.solver import kernels

REAL_SOLVE = fabric_module.portfolio_solve
REAL_CLOSE_ROOTS = kernels.close_roots


@pytest.fixture(scope="module")
def context():
    config = ExperimentConfig(
        num_transactions=60,
        num_items=24,
        k_values=(2,),
        mc_samples=4,
        seed=7,
        solver_backend="bb",
    )
    ctx = ExperimentContext(config)
    yield ctx
    ctx.close()


@pytest.fixture()
def scheduler(context):
    # Trace ids only exist under an active tracer — exactly how the
    # service runs (QueryService always activates one).
    with activate(Tracer(retain=False)):
        with QueryScheduler(context, workers=4, max_queue=32) as sched:
            sched.warm([("km", 2)])
            yield sched


def _exemplar_trace_ids(text: str) -> set:
    return set(re.findall(r'# \{trace_id="([^"]+)"\}', text))


def _bucket_line_with_exemplar(text: str, metric: str, trace_id: str) -> str:
    for line in text.splitlines():
        if line.startswith(metric + "_bucket") and f'trace_id="{trace_id}"' in line:
            return line
    raise AssertionError(f"no {metric} bucket carries exemplar {trace_id}:\n{text}")


# -- the basic path ----------------------------------------------------------
def test_response_trace_id_lands_as_exemplar_in_its_bucket(scheduler):
    response = scheduler.execute(QueryRequest(query="Q1"))
    assert response.status == STATUS_OK
    assert response.trace_id
    text = scheduler.metrics.render(fmt="openmetrics")
    line = _bucket_line_with_exemplar(
        text, "repro_service_request_duration_seconds", response.trace_id
    )
    # The exemplar's recorded value must be inside the bucket it marks
    # (its le upper bound) — i.e. it sits on the bucket it landed in.
    upper = line.split('le="')[1].split('"')[0]
    value = float(line.split("} ")[-1].split(" ")[0])
    if upper != "+Inf":
        assert value <= float(upper)
    assert 'status="ok"' in line
    # Queue-wait and solve histograms carry the same trace id.
    for metric in (
        "repro_service_queue_wait_seconds",
        "repro_service_solve_duration_seconds",
    ):
        _bucket_line_with_exemplar(text, metric, response.trace_id)


def test_every_histogram_count_advances_per_request(scheduler):
    before = scheduler.metrics.render()
    scheduler.execute(QueryRequest(aggregate="count"))
    after = scheduler.metrics.render()

    def total_count(text):
        counts = re.findall(
            r"repro_service_request_duration_seconds_count\{[^}]*\} (\d+)", text
        )
        return sum(int(c) for c in counts)

    assert total_count(after) == total_count(before) + 1


# -- deduped followers -------------------------------------------------------
def test_deduped_follower_gets_its_own_exemplar(scheduler, monkeypatch):
    def slow(solver):
        def stalled(*args):
            time.sleep(0.25)
            return solver(*args)

        return stalled

    # A cold decomposed solve runs the batched root pass, then a unit per
    # block the pass left open: stall both.
    monkeypatch.setattr(fabric_module, "portfolio_solve", slow(REAL_SOLVE))
    monkeypatch.setattr(kernels, "close_roots", slow(REAL_CLOSE_ROOTS))
    request_a = QueryRequest(query="Q1", params={"pb_selectivity": 0.52})
    request_b = QueryRequest(query="Q1", params={"pb_selectivity": 0.52})
    pending = [scheduler.submit(request_a), scheduler.submit(request_b)]
    responses = [p.wait(timeout=60.0) for p in pending]
    assert sorted(r.dedup for r in responses) == [False, True]
    follower = next(r for r in responses if r.dedup)
    leader = next(r for r in responses if not r.dedup)
    assert follower.trace_id and follower.trace_id != leader.trace_id
    text = scheduler.metrics.render(fmt="openmetrics")
    seen = _exemplar_trace_ids(text)
    # Both the leader's and the follower's latency were observed; each
    # bucket keeps its newest exemplar, so at minimum the follower (whose
    # near-zero solve lands in the lowest solve bucket) must be visible.
    assert follower.trace_id in seen or leader.trace_id in seen
    counts = re.findall(r"repro_service_solve_duration_seconds_count (\d+)", text)
    assert int(counts[0]) >= 2  # follower observed too, not just the leader


# -- degraded responses ------------------------------------------------------
def test_degraded_response_observed_with_status_and_exemplar(
    context, scheduler, monkeypatch
):
    def stalled(problem, sense, options):
        if not problem.objective:  # a MIN/MAX probe
            time.sleep(0.2)
        return REAL_SOLVE(problem, sense, options)

    context.session("km", 2).cache.clear()  # no kept MAX answer to read
    monkeypatch.setattr(fabric_module, "portfolio_solve", stalled)
    response = scheduler.execute(QueryRequest(aggregate="max", deadline_ms=100.0))
    assert response.status == STATUS_DEGRADED, response.error
    assert response.trace_id
    text = scheduler.metrics.render(fmt="openmetrics")
    line = _bucket_line_with_exemplar(
        text, "repro_service_request_duration_seconds", response.trace_id
    )
    assert 'status="degraded"' in line


# -- profiler thread tagging -------------------------------------------------
def test_worker_thread_is_tagged_with_trace_id_during_solve(scheduler, monkeypatch):
    tags = []

    def spying(solver):
        def spy(*args):
            tags.append(_THREAD_TRACES.get(threading.get_ident()))
            return solver(*args)

        return spy

    # Solving happens in the batched root pass and in per-block units.
    monkeypatch.setattr(fabric_module, "portfolio_solve", spying(REAL_SOLVE))
    monkeypatch.setattr(kernels, "close_roots", spying(REAL_CLOSE_ROOTS))
    response = scheduler.execute(
        QueryRequest(query="Q1", params={"pb_selectivity": 0.45})
    )
    assert response.status == STATUS_OK
    assert tags and all(tag == response.trace_id for tag in tags)
    # The tag is scoped to the request: nothing lingers afterwards.
    assert response.trace_id not in _THREAD_TRACES.values()


# -- slow-query capture through the pool -------------------------------------
def test_slow_request_captured_with_spans_and_fingerprint(context, tmp_path):
    ring = SlowQueryRing(str(tmp_path / "ring"), capacity=8)
    buffer = SpanBuffer()
    tracer = Tracer([buffer], retain=False)
    with activate(tracer):
        with QueryScheduler(
            context,
            workers=2,
            max_queue=16,
            slow_threshold_ms=0.0,  # capture everything
            slow_log=ring,
            span_buffer=buffer,
        ) as sched:
            sched.warm([("km", 2)])
            response = sched.execute(QueryRequest(query="Q1"))
            assert response.status == STATUS_OK
            deadline = time.monotonic() + 10.0
            while ring.written == 0 and time.monotonic() < deadline:
                time.sleep(0.01)  # slow capture runs after finish()
    entries = ring.entries()
    assert entries, "slow ring stayed empty"
    entry = entries[-1]
    assert entry["trace_id"] == response.trace_id
    assert entry["fingerprint"] == response.fingerprint
    assert entry["threshold_ms"] == 0.0
    assert entry["total_ms"] > 0
    assert entry["response"]["status"] == STATUS_OK
    assert entry["request"]["query"] == "Q1"
    span_names = [s["name"] for s in entry["spans"]]
    assert "service.request" in span_names
    assert all(s["trace_id"] == response.trace_id for s in entry["spans"])
    assert "profile_folded" in entry  # empty dict when no profiler runs
    # The span buffer was drained for the captured trace.
    assert buffer.pop(response.trace_id) == []


def test_fast_requests_below_threshold_not_captured(context, tmp_path):
    ring = SlowQueryRing(str(tmp_path / "ring"), capacity=8)
    buffer = SpanBuffer()
    tracer = Tracer([buffer], retain=False)
    with activate(tracer):
        with QueryScheduler(
            context,
            workers=2,
            max_queue=16,
            slow_threshold_ms=60_000.0,  # a minute: nothing qualifies
            slow_log=ring,
            span_buffer=buffer,
        ) as sched:
            sched.warm([("km", 2)])
            response = sched.execute(QueryRequest(query="Q1"))
            assert response.status == STATUS_OK
            time.sleep(0.1)
    assert ring.entries() == []
    assert ring.written == 0
