"""The query scheduler: admission, deadlines, dedup, terminal statuses.

Runs against one tiny shared :class:`ExperimentContext` (60 transactions,
``bb`` backend so the cooperative ``stop_check`` deadline hook is live).
Tests that need a stalled or counted solver monkeypatch
``repro.engine.fabric.solve`` — the exact symbol the solve-unit path calls.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

import repro.engine.fabric as fabric_module
from repro.errors import ValidationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.service.api import (
    STATUS_DEGRADED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    STATUSES,
    QueryRequest,
)
from repro.service.scheduler import QueryScheduler

REAL_SOLVE = fabric_module.portfolio_solve


@pytest.fixture(scope="module")
def context():
    config = ExperimentConfig(
        num_transactions=60,
        num_items=24,
        k_values=(2,),
        mc_samples=4,
        seed=7,
        solver_backend="bb",
        # Monolithic solves keep this module's backend-call accounting
        # exact (dedup = "min + max, nothing for the follower"); the
        # decomposed solve path has its own coverage in test_decompose.py.
        enable_decomposition=False,
    )
    ctx = ExperimentContext(config)
    yield ctx
    ctx.close()


@pytest.fixture(scope="module")
def scheduler(context):
    with QueryScheduler(context, workers=4, max_queue=32) as sched:
        sched.warm([("km", 2)])
        yield sched


# -- happy paths -----------------------------------------------------------
def test_canned_query_matches_direct_answer(context, scheduler):
    response = scheduler.execute(QueryRequest(query="Q1"))
    assert response.status == STATUS_OK
    assert response.exact
    assert response.fingerprint
    direct = context.licm_answer("Q1", "km", 2)
    assert (response.lower, response.upper) == (direct.lower, direct.upper)


@pytest.mark.parametrize("aggregate", ["count", "sum", "min", "max"])
def test_adhoc_aggregates_answer_ok(scheduler, aggregate):
    response = scheduler.execute(QueryRequest(aggregate=aggregate))
    assert response.status == STATUS_OK, response.error
    assert response.lower <= response.upper


def test_adhoc_max_reports_probe_solve_time(context, scheduler):
    """MIN/MAX answers are feasibility probes; their solve time is real."""
    context.session("km", 2).cache.clear()  # every probe solves
    response = scheduler.execute(QueryRequest(aggregate="max"))
    assert response.status == STATUS_OK, response.error
    assert response.solve_ms > 0


def test_repeat_identical_request_hits_solve_cache(scheduler):
    first = scheduler.execute(QueryRequest(query="Q2", params={"x_items": 3}))
    second = scheduler.execute(QueryRequest(query="Q2", params={"x_items": 3}))
    assert first.status == second.status == STATUS_OK
    assert (first.lower, first.upper) == (second.lower, second.upper)
    assert second.cache_hits > 0


# -- validation / admission ------------------------------------------------
def test_invalid_request_raises_before_admission(scheduler):
    with pytest.raises(ValidationError, match="exactly one"):
        scheduler.execute(QueryRequest(query="Q1", aggregate="count"))


def test_unwarmed_encoding_is_refused(scheduler):
    response = scheduler.execute(QueryRequest(query="Q1", scheme="bipartite", k=3))
    assert response.status == "error"
    assert "not loaded" in response.error


def test_admission_queue_full_rejects(context, monkeypatch):
    release = threading.Event()

    def stalled_solve(problem, sense, options):
        release.wait(timeout=10.0)
        return REAL_SOLVE(problem, sense, options)

    monkeypatch.setattr(fabric_module, "portfolio_solve", stalled_solve)
    with QueryScheduler(context, workers=1, max_queue=1) as sched:
        sched.warm([("km", 2)])
        # Occupy the only worker (a fresh key so the solve really runs) …
        busy = sched.submit(QueryRequest(query="Q1", params={"pb_selectivity": 0.41}))
        deadline = time.monotonic() + 5.0
        while sched.queue_depth > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        # … fill the queue, then overflow it.
        queued = sched.submit(QueryRequest(query="Q1", params={"pb_selectivity": 0.42}))
        overflow = sched.submit(QueryRequest(query="Q1", params={"pb_selectivity": 0.43}))
        rejected = overflow.wait(timeout=5.0)
        assert rejected is not None and rejected.status == STATUS_REJECTED
        assert "queue full" in rejected.error
        assert rejected.http_status == 429
        release.set()
        assert busy.wait(timeout=30.0).status == STATUS_OK
        assert queued.wait(timeout=30.0).status == STATUS_OK
    assert sched.stats.rejected_full == 1


def test_close_answers_queued_requests_and_refuses_new_ones(context, monkeypatch):
    release = threading.Event()

    def stalled_solve(problem, sense, options):
        release.wait(timeout=10.0)
        return REAL_SOLVE(problem, sense, options)

    monkeypatch.setattr(fabric_module, "portfolio_solve", stalled_solve)
    sched = QueryScheduler(context, workers=1, max_queue=4)
    sched.warm([("km", 2)])
    busy = sched.submit(QueryRequest(query="Q1", params={"pb_selectivity": 0.44}))
    deadline = time.monotonic() + 5.0
    while sched.queue_depth > 0 and time.monotonic() < deadline:
        time.sleep(0.005)
    queued = sched.submit(QueryRequest(query="Q1", params={"pb_selectivity": 0.45}))
    closer = threading.Thread(target=sched.close)
    closer.start()
    drained = queued.wait(timeout=5.0)
    assert drained is not None and drained.status == STATUS_REJECTED
    assert "shut down" in drained.error
    release.set()
    closer.join(timeout=30.0)
    assert not closer.is_alive()
    assert busy.wait(timeout=1.0).status == STATUS_OK  # in-progress work finished
    late = sched.submit(QueryRequest(query="Q1"))
    assert late.wait(timeout=1.0).status == STATUS_REJECTED
    assert sched.close() is None  # idempotent


# -- in-flight dedup -------------------------------------------------------
def test_two_concurrent_identical_requests_cost_one_solve(scheduler, monkeypatch):
    calls = []

    def slow_counting_solve(problem, sense, options):
        calls.append(sense)
        time.sleep(0.25)
        return REAL_SOLVE(problem, sense, options)

    monkeypatch.setattr(fabric_module, "portfolio_solve", slow_counting_solve)
    request_a = QueryRequest(query="Q1", params={"pb_selectivity": 0.51})
    request_b = QueryRequest(query="Q1", params={"pb_selectivity": 0.51})
    pending = [scheduler.submit(request_a), scheduler.submit(request_b)]
    responses = [p.wait(timeout=60.0) for p in pending]
    assert all(r is not None and r.status == STATUS_OK for r in responses)
    # One engine solve total: min + max for the leader, nothing for the
    # coalesced follower.
    assert len(calls) == 2, calls
    assert sorted(r.dedup for r in responses) == [False, True]
    assert responses[0].fingerprint == responses[1].fingerprint
    assert (responses[0].lower, responses[0].upper) == (
        responses[1].lower,
        responses[1].upper,
    )


# -- deadlines -------------------------------------------------------------
def test_deadline_expired_in_queue_degrades_to_monte_carlo(scheduler):
    response = scheduler.execute(
        QueryRequest(query="Q1", deadline_ms=0.01, mc_samples=4)
    )
    assert response.status == STATUS_DEGRADED
    assert response.mc_samples == 4
    assert response.lower <= response.upper
    assert not response.exact
    assert response.error  # names the cause


def test_deadline_without_fallback_times_out(scheduler):
    response = scheduler.execute(
        QueryRequest(query="Q1", deadline_ms=0.01, mc_fallback=False)
    )
    assert response.status == STATUS_TIMEOUT
    assert response.lower is None and response.upper is None


def test_slow_solver_is_cancelled_and_degrades(scheduler, monkeypatch):
    """A solve that outlives the deadline is stopped via ``stop_check``."""
    stop_seen = []

    def dawdling_solve(problem, sense, options):
        give_up = time.monotonic() + 5.0
        while time.monotonic() < give_up:
            if options.should_stop():
                stop_seen.append(sense)
                break
            time.sleep(0.005)
        # A zero node budget forces a truncated (inexact) solution, exactly
        # like a deadline firing inside the branch-and-bound loop.  Seeding
        # must be off: the node-0 seed shortcut can prove optimality before
        # the node limit is ever consulted.
        truncated = dataclasses.replace(
            options, stop_check=None, deadline_at=None, cancel=None,
            node_limit=0, seed_incumbent=False,
        )
        return REAL_SOLVE(problem, sense, truncated)

    monkeypatch.setattr(fabric_module, "portfolio_solve", dawdling_solve)
    response = scheduler.execute(
        QueryRequest(
            query="Q1", params={"pb_selectivity": 0.61},
            deadline_ms=150.0, mc_samples=4,
        )
    )
    assert stop_seen, "stop_check never fired"
    assert response.status == STATUS_DEGRADED
    # The prepared problem was in hand when the deadline fired, so the
    # first degradation rung — the fast estimator tiers — serves a
    # provably containing interval; Monte Carlo never runs.
    assert response.tier in ("structural", "entropy", "lp", "exact")
    assert response.mc_samples == 0
    assert response.estimated_components > 0
    assert response.lower <= response.upper


# -- precision tiers -------------------------------------------------------
def test_tight_precision_carries_exact_provenance(scheduler):
    response = scheduler.execute(QueryRequest(query="Q1", precision="tight"))
    assert response.status == STATUS_OK
    assert response.exact
    assert response.tier == "exact"
    assert response.gap == 0.0
    assert response.estimated_components == 0


def test_fast_precision_contains_tight_and_reports_tiers(context, scheduler):
    fast = scheduler.execute(QueryRequest(query="Q1", precision="fast"))
    assert fast.status == STATUS_OK, fast.error
    assert fast.tier in ("structural", "entropy", "lp", "exact")
    assert not fast.exact
    assert fast.estimated_components + fast.exact_components == fast.components
    assert fast.gap is not None and fast.gap >= 0.0
    direct = context.licm_answer("Q1", "km", 2)
    assert fast.lower <= direct.lower <= direct.upper <= fast.upper


def test_fast_then_tight_same_fingerprint_returns_exact(context, scheduler):
    """An estimated answer must never leak into a later exact one: the
    second request hits the same fingerprint but answers through the
    authoritative solve path, bit-for-bit equal to the direct answer."""
    fast = scheduler.execute(QueryRequest(query="Q2", precision="fast"))
    tight = scheduler.execute(QueryRequest(query="Q2", precision="tight"))
    assert fast.fingerprint == tight.fingerprint
    assert tight.status == STATUS_OK and tight.exact
    assert tight.tier == "exact"
    direct = context.licm_answer("Q2", "km", 2)
    assert (tight.lower, tight.upper) == (direct.lower, direct.upper)
    assert fast.lower <= tight.lower <= tight.upper <= fast.upper


def test_precision_levels_do_not_dedup_across_each_other(scheduler):
    fast = QueryRequest(query="Q1", precision="fast")
    tight = QueryRequest(query="Q1", precision="tight")
    assert fast.dedup_key() != tight.dedup_key()


def test_estimator_metrics_families_present_after_fast_request(scheduler):
    scheduler.execute(QueryRequest(query="Q1", precision="fast"))
    exposition = scheduler.metrics.render()
    assert "repro_estimator_requests_total" in exposition
    assert "repro_estimator_components_total" in exposition
    assert "repro_estimator_tier_seconds_bucket" in exposition


# -- the no-hang invariant -------------------------------------------------
def test_concurrent_blast_every_request_terminal(scheduler):
    requests = [
        QueryRequest(query="Q1"),
        QueryRequest(query="Q2"),
        QueryRequest(aggregate="count"),
        QueryRequest(aggregate="sum"),
        QueryRequest(query="Q1", deadline_ms=0.01),
        QueryRequest(query="Q1", params={"pb_selectivity": 0.71}),
        QueryRequest(query="Q1", params={"pb_selectivity": 0.71}),
        QueryRequest(query="Q2", scheme="coherence"),  # unwarmed -> error
    ]
    pending = [scheduler.submit(r) for r in requests]
    responses = [p.wait(timeout=120.0) for p in pending]
    assert all(r is not None for r in responses)
    assert all(r.status in STATUSES for r in responses)
    assert all(r.total_ms >= 0 for r in responses)


# -- fingerprint-level dedup and parked followers --------------------------
def _slowed_counting_solve(context, monkeypatch, delay_s):
    """Empty the solve cache and patch the backend to sleep ``delay_s`` per
    call; returns the list of senses solved and an event set on the first
    call."""
    context.session("km", 2).cache.clear()  # every request below solves
    calls = []
    started = threading.Event()

    def slow_counting_solve(problem, sense, options):
        calls.append(sense)
        started.set()
        time.sleep(delay_s)
        return REAL_SOLVE(problem, sense, options)

    monkeypatch.setattr(fabric_module, "portfolio_solve", slow_counting_solve)
    return calls, started


def test_default_and_tight_precision_share_one_bip_solve(context, scheduler, monkeypatch):
    """``precision=None`` and ``tight`` have different dedup keys but the
    same fingerprint: they coalesce on the BIP flight, not the request."""
    calls, _ = _slowed_counting_solve(context, monkeypatch, 0.25)
    params = {"pb_selectivity": 0.52}
    default = QueryRequest(query="Q1", params=params)
    tight = QueryRequest(query="Q1", params=params, precision="tight")
    assert default.dedup_key() != tight.dedup_key()
    pending = [scheduler.submit(default), scheduler.submit(tight)]
    responses = [p.wait(timeout=60.0) for p in pending]
    assert all(r is not None and r.status == STATUS_OK for r in responses)
    assert len(calls) == 2, calls  # min + max, once
    assert sorted(r.dedup for r in responses) == [False, True]
    assert responses[0].fingerprint == responses[1].fingerprint
    assert (responses[0].lower, responses[0].upper) == (
        responses[1].lower,
        responses[1].upper,
    )


def test_fast_bip_follower_answers_at_its_own_precision(context, scheduler, monkeypatch):
    calls, started = _slowed_counting_solve(context, monkeypatch, 0.25)
    params = {"pb_selectivity": 0.53}
    leader = scheduler.submit(QueryRequest(query="Q1", params=params, precision="tight"))
    assert started.wait(timeout=30.0)  # the leader holds the BIP flight
    follower = scheduler.submit(
        QueryRequest(query="Q1", params=params, precision="fast")
    )
    tight = leader.wait(timeout=60.0)
    fast = follower.wait(timeout=60.0)
    assert tight.status == fast.status == STATUS_OK
    assert not tight.dedup and fast.dedup
    assert tight.exact and tight.tier == "exact"
    assert fast.fingerprint == tight.fingerprint
    assert fast.tier in ("structural", "entropy", "lp", "exact")
    assert fast.estimated_components + fast.exact_components == fast.components
    assert fast.lower <= tight.lower <= tight.upper <= fast.upper


def test_parked_bip_follower_deadline_degrades_to_estimator(
    context, scheduler, monkeypatch
):
    """A BIP follower whose budget runs out while parked holds its
    prepared problem, so it degrades to a sound estimator interval."""
    _, started = _slowed_counting_solve(context, monkeypatch, 1.0)
    params = {"pb_selectivity": 0.54}
    leader = scheduler.submit(QueryRequest(query="Q1", params=params, precision="tight"))
    assert started.wait(timeout=30.0)
    follower = scheduler.submit(
        QueryRequest(
            query="Q1", params=params, precision=None,
            deadline_ms=200.0, mc_fallback=False,
        )
    )
    degraded = follower.wait(timeout=60.0)
    assert degraded is not None
    assert degraded.status == STATUS_DEGRADED, degraded.error
    assert degraded.tier in ("structural", "entropy", "lp", "exact")
    assert degraded.mc_samples == 0
    assert not degraded.exact
    exact = leader.wait(timeout=60.0)
    assert exact.status == STATUS_OK and exact.exact
    assert degraded.fingerprint == exact.fingerprint
    assert degraded.lower <= exact.lower <= exact.upper <= degraded.upper


def test_error_response_reports_real_queue_wait(context, scheduler, monkeypatch):
    context.session("km", 2).cache.clear()

    def failing_solve(problem, sense, options):
        time.sleep(0.2)
        raise RuntimeError("backend failed")

    monkeypatch.setattr(fabric_module, "portfolio_solve", failing_solve)
    response = scheduler.execute(
        QueryRequest(query="Q1", params={"pb_selectivity": 0.55}), timeout=60.0
    )
    assert response.status == "error"
    assert "backend failed" in response.error
    assert response.queue_ms < 100
    assert response.total_ms >= 200
