"""The query scheduler: admission, deadlines, dedup, terminal statuses.

Runs against one tiny shared :class:`ExperimentContext` (60 transactions,
``bb`` backend so the cooperative ``stop_check`` deadline hook is live).
Tests that need a stalled or counted solver monkeypatch both solver entry
points (:func:`_patch_solvers`): ``repro.engine.fabric.portfolio_solve``,
which every solve unit calls, and ``repro.solver.kernels.close_roots``,
which the batched root pass calls first — on this fixture it closes every
component of a COUNT/SUM problem, so no unit runs at all.
"""

from __future__ import annotations

import dataclasses
import logging
import re
import sys
import threading
import time

import pytest

import repro.engine.fabric as fabric_module
import repro.service.scheduler as scheduler_module
from repro.errors import ValidationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.obs.logs import request_logger
from repro.obs.slo import SLOTracker
from repro.service.api import (
    STATUS_DEGRADED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    STATUSES,
    QueryRequest,
)
from repro.service.scheduler import QueryScheduler
from repro.solver import kernels

REAL_SOLVE = fabric_module.portfolio_solve
REAL_CLOSE_ROOTS = kernels.close_roots


def _patch_solvers(monkeypatch, before):
    """Call ``before(entry)`` ahead of every solver call, at both entry
    points: ``("unit", sense)`` for a fabric unit, ``("roots", blocks)``
    for a root-pass batch."""

    def unit(problem, sense, options):
        before(("unit", sense))
        return REAL_SOLVE(problem, sense, options)

    def roots(blocks, *args, **kwargs):
        before(("roots", len(blocks)))
        return REAL_CLOSE_ROOTS(blocks, *args, **kwargs)

    monkeypatch.setattr(fabric_module, "portfolio_solve", unit)
    monkeypatch.setattr(kernels, "close_roots", roots)


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


#: params that pass admission but that the plan builders reject
PLAN_PARAM_ERRORS = [
    ("Q2", {"price_range": 0}, "exceeds the price range 0"),
    ("Q2", {"location_range": 0}, "exceeds the location range 0"),
    # Pb starts where Pa ends (600), and 600 + 600 runs past 1000.
    ("Q3", {"q3_selectivity": 0.6}, "exceeds the location range 1000"),
]


@pytest.mark.parametrize("query, params, message", PLAN_PARAM_ERRORS)
def test_plan_building_errors_answer_error_without_a_traceback(
    scheduler, caplog, query, params, message
):
    caplog.set_level(logging.ERROR, logger=scheduler_module.logger.name)
    response = scheduler.execute(QueryRequest(query=query, params=params))
    assert response.status == "error"
    assert message in response.error
    assert not [record for record in caplog.records if record.exc_info]


def test_admission_queue_full_rejects(context, monkeypatch):
    release = threading.Event()
    _patch_solvers(monkeypatch, lambda entry: release.wait(timeout=10.0))
    context.session("km", 2).cache.clear()  # busy's solve really runs
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
    assert sched.status()["rejected_full"] == 1


def test_close_answers_queued_requests_and_refuses_new_ones(
    context, monkeypatch, caplog
):
    """Ordered by events, not sleeps: the only worker is parked inside
    ``busy``'s solve until ``release``, so it cannot take ``queued``
    before ``close()`` drains it, however slowly the closer runs.  The
    drained and the late request are each accounted once as rejected."""
    caplog.set_level(logging.INFO, logger=request_logger().name)
    solving = threading.Event()
    release = threading.Event()

    def stall(entry):
        solving.set()
        assert release.wait(timeout=120.0)

    _patch_solvers(monkeypatch, stall)
    context.session("km", 2).cache.clear()  # busy's solve really runs
    sched = QueryScheduler(context, workers=1, max_queue=4)
    sched.warm([("km", 2)])
    busy = sched.submit(QueryRequest(query="Q1", params={"pb_selectivity": 0.44}))
    assert solving.wait(timeout=120.0)
    queued = sched.submit(QueryRequest(query="Q1", params={"pb_selectivity": 0.45}))
    closer = threading.Thread(target=sched.close)
    closer.start()
    drained = queued.wait(timeout=120.0)
    assert drained is not None and drained.status == STATUS_REJECTED
    assert "shut down" in drained.error
    release.set()
    closer.join(timeout=30.0)
    assert not closer.is_alive()
    assert busy.wait(timeout=1.0).status == STATUS_OK  # in-progress work finished
    late = sched.submit(QueryRequest(query="Q1"))
    assert late.wait(timeout=1.0).status == STATUS_REJECTED
    assert sched.close() is None  # idempotent
    assert sched.status()["by_status"][STATUS_REJECTED] == 2
    rejected = [
        record.wide["request_id"]
        for record in caplog.records
        if record.name == request_logger().name
        and record.wide["status"] == STATUS_REJECTED
    ]
    assert sorted(rejected) == sorted(
        [queued.request.request_id, late.request.request_id]
    )


# -- in-flight dedup -------------------------------------------------------
def test_two_concurrent_identical_requests_cost_one_solve(
    context, scheduler, monkeypatch
):
    request_a = QueryRequest(query="Q1", params={"pb_selectivity": 0.51})
    request_b = QueryRequest(query="Q1", params={"pb_selectivity": 0.51})
    solo = _solo_leader_calls(context, scheduler, monkeypatch, request_a)
    calls, _ = _slowed_counting_solve(context, monkeypatch, 0.25)
    pending = [scheduler.submit(request_a), scheduler.submit(request_b)]
    responses = [p.wait(timeout=60.0) for p in pending]
    assert all(r is not None and r.status == STATUS_OK for r in responses)
    # One engine solve total: the leader's, nothing for the coalesced
    # follower.
    assert sorted(calls) == solo, (calls, solo)
    assert sorted(r.dedup for r in responses) == [False, True]
    assert responses[0].fingerprint == responses[1].fingerprint
    assert (responses[0].lower, responses[0].upper) == (
        responses[1].lower,
        responses[1].upper,
    )


# -- deadlines -------------------------------------------------------------
def test_deadline_expired_in_queue_times_out_without_monte_carlo(
    scheduler, monkeypatch
):
    """A queue-wait expiry has no plan and no prepared problem: it counts
    one deadline miss and answers ``timeout`` — it never samples worlds."""

    def refuse(*args, **kwargs):
        raise AssertionError("a served answer ran Monte Carlo")

    monkeypatch.setattr(scheduler_module, "run_monte_carlo", refuse)
    misses = scheduler.status()["deadline_misses"]
    response = scheduler.execute(QueryRequest(query="Q1", deadline_ms=0.01))
    assert response.status == STATUS_TIMEOUT and response.tier is None
    assert response.lower is None and response.upper is None
    assert not response.dedup and response.error  # names the cause
    assert scheduler.status()["deadline_misses"] == misses + 1


def test_deadline_without_fallback_times_out(scheduler):
    """Expired in the queue, before the plan is built: no prepared
    problem to estimate over, so no containing interval either."""
    response = scheduler.execute(QueryRequest(query="Q1", deadline_ms=0.01))
    assert response.status == STATUS_TIMEOUT
    assert response.lower is None and response.upper is None
    assert not response.exact
    assert response.error == "queue wait"


def test_slow_solver_is_cancelled_and_degrades(context, scheduler, monkeypatch):
    """A solve that outlives the deadline is stopped via ``stop_check``."""
    stop_seen = []

    def hopeless_roots(blocks, *args, **kwargs):
        # Hard blocks: the root kernels close none, so each one becomes a
        # unit, and the units are where the deadline is polled.
        return [kernels.RootVerdict(True, False, None, None, None) for _ in blocks]

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
    monkeypatch.setattr(kernels, "close_roots", hopeless_roots)
    context.session("km", 2).cache.clear()  # every component really solves
    response = scheduler.execute(
        QueryRequest(
            query="Q1", params={"pb_selectivity": 0.61}, deadline_ms=150.0,
        )
    )
    assert stop_seen, "stop_check never fired"
    assert response.status == STATUS_DEGRADED
    # The prepared problem was in hand when the deadline fired, so the
    # fast estimator tiers serve a provably containing interval.
    assert response.tier in ("structural", "entropy", "lp", "exact")
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


def test_estimator_metrics_families_present_after_fast_request(scheduler):
    scheduler.execute(QueryRequest(query="Q1", precision="fast"))
    exposition = scheduler.metrics.render()
    assert "repro_estimator_requests_total" in exposition
    assert "repro_estimator_components_total" in exposition
    assert "repro_estimator_tier_seconds_bucket" in exposition


def test_repeated_fast_request_reuses_the_kept_verdicts(scheduler):
    def reused_total():
        return sum(
            float(line.rsplit(" ", 1)[1])
            for line in scheduler.metrics.render().splitlines()
            if line.startswith("repro_estimator_reused_components_total")
        )

    first = scheduler.execute(QueryRequest(query="Q2", precision="fast"))
    before = reused_total()
    again = scheduler.execute(QueryRequest(query="Q2", precision="fast"))
    assert first.status == again.status == STATUS_OK
    assert (again.lower, again.upper, again.tier, again.gap) == (
        first.lower, first.upper, first.tier, first.gap
    )
    assert reused_total() - before == again.components


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


# -- plan-level dedup and parked followers ---------------------------------
def _slowed_counting_solve(context, monkeypatch, delay_s):
    """Empty the solve cache and patch both solver entry points to sleep
    ``delay_s`` per call; returns the list of solver calls and an event set
    on the first one."""
    context.session("km", 2).cache.clear()  # every request below solves
    calls = []
    started = threading.Event()

    def count(entry):
        calls.append(entry)
        started.set()
        time.sleep(delay_s)

    _patch_solvers(monkeypatch, count)
    return calls, started


def _solo_leader_calls(context, scheduler, monkeypatch, request):
    """The solver calls ``request`` makes on its own on a cleared cache,
    sorted (what one leader costs, with no follower)."""
    calls, _ = _slowed_counting_solve(context, monkeypatch, 0.0)
    assert scheduler.execute(request).status == STATUS_OK
    assert calls  # the request really reached a solver
    return sorted(calls)


def test_default_and_tight_precision_share_one_bip_solve(context, scheduler, monkeypatch):
    """``precision=None`` and ``tight`` differ as requests but share one
    plan key: they coalesce on the plan's flight."""
    params = {"pb_selectivity": 0.52}
    default = QueryRequest(query="Q1", params=params)
    tight = QueryRequest(query="Q1", params=params, precision="tight")
    assert default.plan_key() == tight.plan_key()
    solo = _solo_leader_calls(context, scheduler, monkeypatch, default)
    calls, _ = _slowed_counting_solve(context, monkeypatch, 0.25)
    pending = [scheduler.submit(default), scheduler.submit(tight)]
    responses = [p.wait(timeout=60.0) for p in pending]
    assert all(r is not None and r.status == STATUS_OK for r in responses)
    assert sorted(calls) == solo, (calls, solo)  # the leader's solve, once
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
            query="Q1", params=params, precision=None, deadline_ms=200.0,
        )
    )
    degraded = follower.wait(timeout=60.0)
    assert degraded is not None
    assert degraded.status == STATUS_DEGRADED, degraded.error
    assert degraded.tier in ("structural", "entropy", "lp", "exact")
    assert not degraded.exact
    exact = leader.wait(timeout=60.0)
    assert exact.status == STATUS_OK and exact.exact
    assert degraded.fingerprint == exact.fingerprint
    assert degraded.lower <= exact.lower <= exact.upper <= degraded.upper


def test_parked_same_plan_follower_degrades_over_the_published_problem(
    context, scheduler, monkeypatch
):
    """A follower of an identical request whose budget runs out while
    parked degrades over the prepared problem its leader published —
    to a sound estimator interval, not ``timeout``."""
    _, started = _slowed_counting_solve(context, monkeypatch, 1.0)
    params = {"pb_selectivity": 0.56}
    leader = scheduler.submit(QueryRequest(query="Q1", params=params))
    assert started.wait(timeout=30.0)  # the leader has prepared and is solving
    follower = scheduler.submit(
        QueryRequest(query="Q1", params=params, deadline_ms=200.0)
    )
    degraded = follower.wait(timeout=60.0)
    assert degraded is not None
    assert degraded.status == STATUS_DEGRADED, degraded.error
    assert degraded.tier in ("structural", "entropy", "lp", "exact")
    assert not degraded.exact
    assert degraded.dedup
    exact = leader.wait(timeout=60.0)
    assert exact.status == STATUS_OK and exact.exact and not exact.dedup
    assert degraded.fingerprint == exact.fingerprint
    assert degraded.lower <= exact.lower <= exact.upper <= degraded.upper


def _stalled_evaluation(monkeypatch, delay_s, fail_first=False):
    """Patch the scheduler's plan evaluation to sleep ``delay_s`` per call
    (the first call raising after its sleep when ``fail_first``); returns
    an event set on the first call."""
    entered = threading.Event()
    real = scheduler_module.evaluate_licm

    def evaluate(plan, relations):
        first = not entered.is_set()
        entered.set()
        time.sleep(delay_s)
        if first and fail_first:
            raise RuntimeError("plan evaluation failed")
        return real(plan, relations)

    monkeypatch.setattr(scheduler_module, "evaluate_licm", evaluate)
    return entered


@pytest.mark.parametrize("leader_prepared", [True, False])
def test_parked_follower_reports_dedup_on_every_degrade_rung(
    context, scheduler, monkeypatch, leader_prepared
):
    """A follower whose deadline expires while parked degrades over the
    problem its leader published, or — the leader not yet prepared, so no
    problem to estimate over — answers ``timeout``.  Either way it is
    still a follower's answer."""
    if leader_prepared:
        _, entered = _slowed_counting_solve(context, monkeypatch, 1.0)
    else:
        entered = _stalled_evaluation(monkeypatch, 1.0)
    params = {"pb_selectivity": 0.57 if leader_prepared else 0.58}
    leader = scheduler.submit(QueryRequest(query="Q1", params=params))
    assert entered.wait(timeout=30.0)
    follower = scheduler.submit(
        QueryRequest(query="Q1", params=params, deadline_ms=200.0)
    )
    expired = follower.wait(timeout=60.0)
    assert expired is not None
    if leader_prepared:
        assert expired.status == STATUS_DEGRADED, expired.error
        assert expired.tier in ("structural", "entropy", "lp", "exact")
        assert expired.fingerprint is not None
    else:
        assert expired.status == STATUS_TIMEOUT and expired.fingerprint is None
    assert expired.dedup
    assert scheduler._wide_payload(follower, expired)["dedup"] == "follower"
    assert leader.wait(timeout=60.0).status == STATUS_OK


def test_explain_follower_of_plain_leader_carries_decomposition(
    context, scheduler, monkeypatch
):
    _, started = _slowed_counting_solve(context, monkeypatch, 0.25)
    params = {"pb_selectivity": 0.59}
    leader = scheduler.submit(QueryRequest(query="Q1", params=params))
    assert started.wait(timeout=30.0)
    follower = scheduler.submit(QueryRequest(query="Q1", params=params, explain=True))
    explained = follower.wait(timeout=60.0)
    assert leader.wait(timeout=60.0).status == STATUS_OK
    assert explained.status == STATUS_OK and explained.dedup
    decomposition = explained.explain["decomposition"]
    assert decomposition["components"] == len(decomposition["blocks"]) > 0


def test_follower_of_a_leader_failing_before_prepare_serves_itself(
    scheduler, monkeypatch
):
    """No prepared problem is published when the leader's plan evaluation
    fails: the parked follower answers with a fresh serve attempt."""
    entered = _stalled_evaluation(monkeypatch, 0.3, fail_first=True)
    params = {"pb_selectivity": 0.62}
    leader = scheduler.submit(QueryRequest(query="Q1", params=params))
    assert entered.wait(timeout=30.0)
    follower = scheduler.submit(QueryRequest(query="Q1", params=params))
    failed = leader.wait(timeout=60.0)
    served = follower.wait(timeout=60.0)
    assert failed.status == "error" and "plan evaluation failed" in failed.error
    assert served is not None and served.status == STATUS_OK, served.error
    assert served.exact and served.lower <= served.upper


def test_one_stalled_leader_counts_once_in_flight(context, scheduler, monkeypatch):
    solving = threading.Event()
    release = threading.Event()

    def stall(entry):
        solving.set()
        assert release.wait(timeout=60.0)

    context.session("km", 2).cache.clear()
    _patch_solvers(monkeypatch, stall)
    leader = scheduler.submit(QueryRequest(query="Q1", params={"pb_selectivity": 0.63}))
    try:
        assert solving.wait(timeout=30.0)
        assert scheduler.in_flight == 1
    finally:
        release.set()
    assert leader.wait(timeout=60.0).status == STATUS_OK
    assert scheduler.in_flight == 0


def test_error_response_reports_real_queue_wait(context, scheduler, monkeypatch):
    context.session("km", 2).cache.clear()

    def fail(entry):
        time.sleep(0.2)
        raise RuntimeError("backend failed")

    _patch_solvers(monkeypatch, fail)
    response = scheduler.execute(
        QueryRequest(query="Q1", params={"pb_selectivity": 0.55}), timeout=60.0
    )
    assert response.status == "error"
    assert "backend failed" in response.error
    assert response.queue_ms < 100
    assert response.total_ms >= 200


# -- one accounting path per terminal response -----------------------------
class _RecordingSLO(SLOTracker):
    """An SLO tracker that also keeps every ``(status, total_s)`` event."""

    def __init__(self):
        super().__init__()
        self.events = []

    def record(self, status: str, total_s: float) -> None:
        self.events.append((status, total_s))
        super().record(status, total_s)


def _wide_events(caplog) -> list:
    return [
        record.wide
        for record in caplog.records
        if record.name == request_logger().name and getattr(record, "wide", None)
    ]


def _histogram_totals(sched) -> dict:
    """``{status: (count, sum)}`` of ``service_request_duration_seconds``."""
    text = sched.metrics.render()

    def series(suffix):
        pattern = (
            rf"^repro_service_request_duration_seconds_{suffix}"
            r'\{status="(\w+)"\} (\S+)$'
        )
        return {status: float(value) for status, value in re.findall(pattern, text, re.M)}

    counts, sums = series("count"), series("sum")
    return {status: (int(counts[status]), sums[status]) for status in counts}


def test_one_total_per_request(context, caplog):
    """The response's ``total_ms``, its wide event's, the latency
    histogram observation and the SLO event are one number, with and
    without ``explain`` (whose assembly runs before delivery)."""
    caplog.set_level(logging.INFO, logger=request_logger().name)
    slo = _RecordingSLO()
    with QueryScheduler(context, workers=1, slo=slo) as sched:
        sched.warm([("km", 2)])
        responses = [
            sched.execute(QueryRequest(query="Q1", params={"pb_selectivity": 0.71}, explain=True)),
            sched.execute(QueryRequest(query="Q1", params={"pb_selectivity": 0.71})),
        ]
    assert [r.status for r in responses] == [STATUS_OK, STATUS_OK]
    assert responses[0].explain is not None and responses[1].explain is None
    wides = {event["request_id"]: event for event in _wide_events(caplog)}
    for response, (status, total_s) in zip(responses, slo.events):
        assert status == response.status
        assert total_s == response.total_ms / 1e3
        assert wides[response.request_id]["total_ms"] == round(response.total_ms, 3)
    count, total = _histogram_totals(sched)[STATUS_OK]
    assert count == 2
    assert total == pytest.approx(sum(r.total_ms for r in responses) / 1e3, rel=1e-9)


def test_every_terminal_status_is_accounted_once(context, caplog):
    """ok, timeout, error and rejected requests each bump the status
    counter, the latency histogram and the wide log exactly once —
    rejections included — and the SLO tracker once each but for the
    invalid request (an unloaded encoding: the client's fault)."""
    caplog.set_level(logging.INFO, logger=request_logger().name)
    sched = QueryScheduler(context, workers=2, max_queue=8)
    sched.warm([("km", 2)])
    statuses = [
        sched.execute(QueryRequest(query="Q1")).status,
        sched.execute(QueryRequest(aggregate="max")).status,
        sched.execute(QueryRequest(query="Q1", deadline_ms=0.01)).status,
        sched.execute(QueryRequest(query="Q1", scheme="bipartite", k=3)).status,
    ]
    sched.close()  # joins the workers: every post-delivery accounting ran
    statuses.append(sched.execute(QueryRequest(query="Q1")).status)
    assert statuses == [STATUS_OK, STATUS_OK, STATUS_TIMEOUT, "error", STATUS_REJECTED]
    view = sched.status()
    assert view["by_status"] == {
        STATUS_OK: 2, STATUS_TIMEOUT: 1, "error": 1, STATUS_REJECTED: 1
    }
    assert view["submitted"] == 5 and view["completed"] == 4
    assert view["rejected_full"] == 1 and view["deadline_misses"] == 1
    histogram = _histogram_totals(sched)
    assert {status: count for status, (count, _) in histogram.items()} == view["by_status"]
    requests_total = sum(
        float(value)
        for value in re.findall(
            r"^repro_service_requests_total\{[^}]*\} (\S+)$", sched.metrics.render(), re.M
        )
    )
    assert requests_total == 5
    assert sched.slo.total == 4
    assert len(_wide_events(caplog)) == 5


# -- serving on the caller's thread ----------------------------------------
def _stall_first_thread(monkeypatch):
    """Stall the solver calls of the first thread that reaches a solver
    until the returned ``release`` is set; ``solving`` is set when it
    arrives.  Every other thread solves unhindered."""
    solving, release = threading.Event(), threading.Event()
    first = []

    def stall(entry):
        if not first:
            first.append(threading.get_ident())
        if first[0] == threading.get_ident():
            solving.set()
            assert release.wait(timeout=60.0)

    _patch_solvers(monkeypatch, stall)
    return solving, release


def test_the_scheduler_starts_no_thread_and_serves_on_the_callers(
    context, monkeypatch
):
    before = set(threading.enumerate())
    solver_threads = []
    _patch_solvers(monkeypatch, lambda entry: solver_threads.append(threading.current_thread()))
    context.session("km", 2).cache.clear()  # the request below really solves
    with QueryScheduler(context, workers=4) as sched:
        assert set(threading.enumerate()) <= before  # no new thread
        sched.warm([("km", 2)])
        response = sched.execute(QueryRequest(query="Q1", params={"pb_selectivity": 0.64}))
        assert response.status == STATUS_OK
        assert set(threading.enumerate()) <= before  # no new thread
    assert solver_threads and set(solver_threads) == {threading.current_thread()}
    assert not [t for t in threading.enumerate() if t.name.startswith("repro-serve-")]


def test_a_request_waiting_for_a_slot_times_out_at_its_deadline(context, monkeypatch):
    """With the only slot held by a stalled request, a queued request
    answers ``timeout`` at its deadline, not when the slot frees up."""
    solving, release = _stall_first_thread(monkeypatch)
    context.session("km", 2).cache.clear()
    with QueryScheduler(context, workers=1) as sched:
        sched.warm([("km", 2)])
        busy = sched.submit(QueryRequest(query="Q1", params={"pb_selectivity": 0.65}))
        try:
            assert solving.wait(timeout=30.0)
            queued = sched.submit(
                QueryRequest(query="Q1", params={"pb_selectivity": 0.66}, deadline_ms=200.0)
            )
            expired = queued.wait(timeout=5.0)
            assert expired is not None and not busy.done
            assert expired.status == STATUS_TIMEOUT
            assert expired.error == "queue wait"
            assert 150.0 <= expired.total_ms < 1000.0
            assert expired.queue_ms >= 150.0
            assert sched.queue_depth == 0
        finally:
            release.set()
        assert busy.wait(timeout=60.0).status == STATUS_OK
    assert sched.status()["deadline_misses"] == 1


def test_parked_followers_hold_no_slot(context, monkeypatch):
    """Two slots, one held by a stalled leader and none by its three
    parked followers: a fourth, distinct request still gets served."""
    solving, release = _stall_first_thread(monkeypatch)
    context.session("km", 2).cache.clear()
    params = {"pb_selectivity": 0.67}
    with QueryScheduler(context, workers=2) as sched:
        sched.warm([("km", 2)])
        leader = sched.submit(QueryRequest(query="Q1", params=params))
        try:
            assert solving.wait(timeout=30.0)
            followers = [
                sched.submit(QueryRequest(query="Q1", params=params)) for _ in range(3)
            ]
            deadline = time.monotonic() + 30.0
            while sched.status()["dedup_hits"] < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert sched.status()["dedup_hits"] == 3
            other = sched.execute(QueryRequest(query="Q1", params={"pb_selectivity": 0.68}))
            assert other.status == STATUS_OK and not other.dedup
            assert not leader.done and not any(f.done for f in followers)
        finally:
            release.set()
        exact = leader.wait(timeout=60.0)
        answers = [f.wait(timeout=60.0) for f in followers]
    assert exact.status == STATUS_OK and not exact.dedup
    for answer in answers:
        assert answer is not None and answer.status == STATUS_OK and answer.dedup
        assert (answer.lower, answer.upper) == (exact.lower, exact.upper)


def test_close_waits_for_the_request_in_progress(context, monkeypatch):
    solving, release = _stall_first_thread(monkeypatch)
    context.session("km", 2).cache.clear()
    sched = QueryScheduler(context, workers=1)
    sched.warm([("km", 2)])
    busy = sched.submit(QueryRequest(query="Q1", params={"pb_selectivity": 0.69}))
    assert solving.wait(timeout=30.0)
    seen_at_return = []

    def close():
        sched.close()
        seen_at_return.append((busy.done, dict(sched.status()["by_status"])))

    closer = threading.Thread(target=close)
    closer.start()
    closer.join(timeout=0.3)
    assert closer.is_alive()  # still waiting for busy
    release.set()
    closer.join(timeout=30.0)
    assert not closer.is_alive()
    assert seen_at_return == [(True, {STATUS_OK: 1})]  # answered and accounted
    assert busy.wait(timeout=1.0).status == STATUS_OK


def test_slot_accounting_under_a_concurrent_burst(context):
    """Many threads at once, with a short switch interval: never more
    than ``workers`` requests in a slot, and every admitted request
    answered with both counters back at zero."""
    with QueryScheduler(context, workers=2, max_queue=64) as sched:
        sched.warm([("km", 2)])
        lock, serving, peak = threading.Lock(), [0], [0]
        real = sched._answer_prepared

        def counted(*args, **kwargs):
            with lock:
                serving[0] += 1
                peak[0] = max(peak[0], serving[0])
            try:
                time.sleep(0.001)
                return real(*args, **kwargs)
            finally:
                with lock:
                    serving[0] -= 1

        sched._answer_prepared = counted
        requests = [
            QueryRequest(query="Q1", params={"pb_selectivity": round(0.40 + 0.01 * (i % 6), 2)})
            for i in range(18)
        ] + [QueryRequest(query="Q2", deadline_ms=0.01) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pending = [sched.submit(request) for request in requests]
            responses = [p.wait(timeout=120.0) for p in pending]
        finally:
            sys.setswitchinterval(interval)
    # close() returned: no request holds a slot any more.
    assert all(r is not None and r.status in STATUSES for r in responses)
    assert 1 <= peak[0] <= 2
    assert (sched.queue_depth, sched._active, sched.in_flight) == (0, 0, 0)
    status = sched.status()
    assert status["submitted"] == sum(status["by_status"].values()) == len(requests)
