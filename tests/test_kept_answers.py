"""Kept exact answers: a repeated ``tight`` COUNT/SUM or MIN/MAX answer is
one read of the session L1.

The scheduler keeps every exact answer that finished in time under
``("answer", plan identity)`` (:meth:`QueryRequest.plan_key`), and reads
it back on its one answer path.  These tests pin the soundness contract:
a kept answer equals a cleared-cache solve, nothing inexact is kept, a
non-lineage append drops every kept answer, ``cache_size=0`` keeps
nothing, dedup followers read the leader's answer, and a kept answer is
priced so that its own component entries are evicted before it.  They
also cover :func:`repro.core.bounds.minmax_bounds` reporting
``exact=False`` when a probe stopped undecided.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.engine.fabric as fabric_module
from helpers import brute_force_adhoc, counter_totals, delta, tiny_config
from repro.core.bounds import minmax_bounds
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.obs.logs import REQUEST_LOGGER
from repro.obs.slowlog import SpanBuffer
from repro.obs.tracer import Tracer, activate
from repro.queries.licm_eval import evaluate_licm
from repro.queries.workload import QUERY_BUILDERS
from repro.service.api import STATUS_DEGRADED, STATUS_OK, QueryRequest
from repro.service.scheduler import QueryScheduler, _adhoc_plan
from repro.solver import kernels
from repro.solver.result import SolverOptions

REAL_SOLVE = fabric_module.portfolio_solve
REAL_CLOSE_ROOTS = kernels.close_roots
SUITE = Path(__file__).resolve().parents[1] / "benchmarks" / "suite"


def _answer_counters() -> dict:
    moved = counter_totals()
    return {name: moved.get(name, 0) for name in ("answer_hits", "answer_misses")}


def _kept(session, key) -> bool:
    """Whether ``key`` has a kept answer, without touching the counters
    or the eviction order."""
    return ("answer", key) in session.cache


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
    with QueryScheduler(context, workers=2, max_queue=16) as sched:
        sched.warm([("km", 2)])
        yield sched


@pytest.fixture()
def tiny():
    """An enumerable database: 4 transactions, 16 variables, 50,625 worlds."""
    ctx = ExperimentContext(tiny_config())
    yield ctx
    ctx.close()


# -- 1. a kept answer equals a cleared-cache solve ---------------------------
def test_kept_answers_equal_cleared_cache_solves_on_the_dashboard_stream():
    """Every key of the seed-1 ``dashboard`` stream, on the benchmark
    server's database: the streamed answers (kept-answer reads from the
    second occurrence of a key on) equal an answer solved on a cleared
    L1, endpoint for endpoint."""
    sys.path.insert(0, str(SUITE))
    try:
        import workloads
    finally:
        sys.path.remove(str(SUITE))
    config = ExperimentConfig(num_transactions=600, num_items=128, seed=3)
    ctx = ExperimentContext(config)
    try:
        streamed = {}
        before = _answer_counters()
        with QueryScheduler(ctx, workers=2) as sched:
            sched.warm([(scheme, workloads.K) for scheme in workloads.SCHEMES])
            stream = workloads.warmup_stream("dashboard") + workloads.timed_stream(
                "dashboard", 1, 20
            )
            for spec in stream:
                response = sched.execute(QueryRequest(k=workloads.K, **spec))
                assert response.status == STATUS_OK, response.error
                answer = (response.lower, response.upper, response.exact)
                key = json.dumps(spec, sort_keys=True)
                assert streamed.setdefault(key, answer) == answer
            assert delta(before, _answer_counters()).get("answer_hits", 0) > 0
            for key, answer in streamed.items():
                spec = json.loads(key)
                ctx.session(spec["scheme"], workloads.K).cache.clear()
                response = sched.execute(QueryRequest(k=workloads.K, **spec))
                assert (response.lower, response.upper, response.exact) == answer, spec
        assert len(streamed) == len(workloads.HOT_KEYS)
    finally:
        ctx.close()


# -- 2. nothing inexact is kept ----------------------------------------------
def _tight_q1(pb_selectivity, **fields):
    return QueryRequest(
        query="Q1", params={"pb_selectivity": pb_selectivity}, precision="tight",
        **fields,
    )


def test_deadline_cut_tight_answer_is_never_kept(context, scheduler, monkeypatch):
    """A tight answer the deadline cut short degrades and keeps nothing;
    the next full-budget answer is solved and kept, the one after it is
    the read."""
    session = context.session("km", 2)
    session.cache.clear()
    # No root pass: every block is a unit, and the first one outlives the
    # budget, so every later unit starts past the deadline.
    unseeded = dataclasses.replace(session.options, seed_incumbent=False)
    monkeypatch.setattr(session, "options", unseeded)
    stalled = []

    def stall_once(problem, sense, options):
        if not stalled:
            stalled.append(sense)
            time.sleep(0.3)
        return REAL_SOLVE(problem, sense, options)

    monkeypatch.setattr(fabric_module, "portfolio_solve", stall_once)
    cut = scheduler.execute(_tight_q1(0.61, deadline_ms=100.0), timeout=60.0)
    assert cut.status == STATUS_DEGRADED and not cut.exact
    assert not _kept(session, _tight_q1(0.61).plan_key())
    monkeypatch.undo()
    solved = scheduler.submit(_tight_q1(0.61))
    assert solved.wait(timeout=60.0).exact and not solved.kept
    read = scheduler.submit(_tight_q1(0.61))
    assert read.wait(timeout=60.0).exact and read.kept
    assert (read.response.lower, read.response.upper) == (
        solved.response.lower, solved.response.upper,
    )


def test_node_limited_tight_answer_is_never_kept(context, scheduler, monkeypatch):
    session = context.session("km", 2)
    session.cache.clear()
    starved = dataclasses.replace(session.options, node_limit=0, seed_incumbent=False)
    monkeypatch.setattr(session, "options", starved)
    # A deadline makes the solves non-authoritative: no limit entry in L1.
    answer = scheduler.execute(_tight_q1(0.62, deadline_ms=60_000.0), timeout=60.0)
    assert answer.status == STATUS_OK and not answer.exact
    assert not _kept(session, _tight_q1(0.62).plan_key())


def _stall_solvers(monkeypatch, delay_s) -> threading.Event:
    """Sleep ``delay_s`` before every solver call (units and root passes);
    the returned event is set on the first call."""
    started = threading.Event()

    def unit(problem, sense, options):
        started.set()
        time.sleep(delay_s)
        return REAL_SOLVE(problem, sense, options)

    def roots(blocks, *args, **kwargs):
        started.set()
        time.sleep(delay_s)
        return REAL_CLOSE_ROOTS(blocks, *args, **kwargs)

    monkeypatch.setattr(fabric_module, "portfolio_solve", unit)
    monkeypatch.setattr(kernels, "close_roots", roots)
    return started


def test_deadline_cut_minmax_answer_degrades_and_is_never_kept(
    context, scheduler, monkeypatch
):
    """Probes the deadline stops before they find a world are undecided:
    the answer is not exact, so the scheduler degrades it — and keeps
    nothing, so the next full-budget request probes again."""
    session = context.session("km", 2)
    session.cache.clear()
    _stall_solvers(monkeypatch, 0.3)
    request = QueryRequest(aggregate="max", deadline_ms=100.0)
    degraded = scheduler.execute(request, timeout=60.0)
    assert degraded.status == STATUS_DEGRADED, degraded.error
    assert not degraded.exact
    assert not _kept(session, request.plan_key())
    monkeypatch.undo()
    exact = scheduler.execute(QueryRequest(aggregate="max"), timeout=60.0)
    assert exact.status == STATUS_OK and exact.exact
    assert _kept(session, request.plan_key())
    # Monte Carlo observes sampled worlds: inside the exact range.
    assert exact.lower <= degraded.lower <= degraded.upper <= exact.upper


# -- the minmax_bounds proof flag ----------------------------------------------
@pytest.mark.parametrize("aggregate", ["max", "min"])
def test_undecided_probes_report_inexact_and_still_contain_brute_force(
    tiny, aggregate, monkeypatch
):
    encoded = tiny.encoding("k-anonymity", 2).encoded
    plan = _adhoc_plan(encoded, aggregate)
    statuses = []

    def spy(problem, sense, options):
        solution = REAL_SOLVE(problem, sense, options)
        statuses.append((solution.status, solution.x is not None))
        return solution

    monkeypatch.setattr(fabric_module, "portfolio_solve", spy)
    relation = evaluate_licm(plan.child, encoded.relations)
    starved = SolverOptions(node_limit=0, backend="bb", seed_incumbent=False)
    bounds = minmax_bounds(relation, plan.attribute, aggregate, options=starved)
    assert ("limit", False) in statuses  # a probe really stopped undecided
    assert bounds.exact is False
    low, high = brute_force_adhoc(encoded, aggregate)
    assert bounds.lower <= low <= high <= bounds.upper


@pytest.mark.parametrize("aggregate", ["max", "min"])
def test_limit_probe_with_an_incumbent_is_proven_feasible(
    tiny, aggregate, monkeypatch
):
    """A probe stopped by a limit after it found a world has proved the
    world exists: with every probe decided the answer stays exact."""
    encoded = tiny.encoding("k-anonymity", 2).encoded
    plan = _adhoc_plan(encoded, aggregate)
    relation = evaluate_licm(plan.child, encoded.relations)
    # A useless kernel bound never closes the root, so the B&B installs
    # its seed incumbent and then stops at node 0.
    monkeypatch.setattr(
        kernels.CompiledProblem, "upper_bound", lambda self, domains: 10**9
    )
    limited = SolverOptions(node_limit=0, backend="bb")
    bounds = minmax_bounds(relation, plan.attribute, aggregate, options=limited)
    assert bounds.exact is True
    assert (bounds.lower, bounds.upper) == brute_force_adhoc(encoded, aggregate)


# -- 3. a non-lineage append drops every kept answer --------------------------
def test_non_lineage_add_drops_kept_answers_and_the_next_answer_is_brute_force(
    tiny,
):
    encoded = tiny.encoding("k-anonymity", 2).encoded
    model = encoded.model
    session = tiny.session("k-anonymity", 2)
    count = QueryRequest(aggregate="count", scheme="k-anonymity", precision="tight")
    peak = QueryRequest(aggregate="max", scheme="k-anonymity")
    with QueryScheduler(tiny, workers=1) as sched:
        sched.warm([("k-anonymity", 2)])
        first = [sched.execute(count), sched.execute(peak)]
        assert _kept(session, count.plan_key())
        assert _kept(session, peak.plan_key())
        assert [(r.lower, r.upper) for r in first] == [
            brute_force_adhoc(encoded, "count"),
            brute_force_adhoc(encoded, "max"),
        ]

        # Rule out the most expensive uncertain item: MAX and COUNT move.
        plan = _adhoc_plan(encoded, "max")
        relation = evaluate_licm(plan.child, encoded.relations)
        position = relation.position(plan.attribute)
        priciest = max(relation.maybe_rows, key=lambda row: row.values[position])
        model.add((priciest.ext + 0) <= 0)
        assert session.kept_answer(count.plan_key()) is None
        assert session.kept_answer(peak.plan_key()) is None

        before = _answer_counters()
        again = [sched.execute(count), sched.execute(peak)]
        assert delta(before, _answer_counters()) == {"answer_misses": 2}
    assert all(r.status == STATUS_OK and r.exact for r in again)
    assert [(r.lower, r.upper) for r in again] == [
        brute_force_adhoc(encoded, "count"),
        brute_force_adhoc(encoded, "max"),
    ]
    assert [(r.lower, r.upper) for r in again] != [(r.lower, r.upper) for r in first]


# -- 4. cache_size=0 keeps nothing ---------------------------------------------
def test_cache_size_zero_keeps_nothing():
    ctx = ExperimentContext(tiny_config(solve_cache_size=0))
    try:
        session = ctx.session("k-anonymity", 2)
        before = _answer_counters()
        with QueryScheduler(ctx, workers=1) as sched:
            sched.warm([("k-anonymity", 2)])
            for _ in range(2):
                for aggregate in ("count", "max"):
                    response = sched.execute(
                        QueryRequest(aggregate=aggregate, scheme="k-anonymity")
                    )
                    assert response.status == STATUS_OK and response.exact
        assert len(session.cache) == 0
        assert delta(before, _answer_counters()) == {"answer_misses": 4}
    finally:
        ctx.close()


# -- 5. a dedup follower reads the leader's kept answer -------------------------
def test_dedup_follower_reads_the_leaders_kept_answer(context, scheduler, monkeypatch):
    context.session("km", 2).cache.clear()
    started = _stall_solvers(monkeypatch, 0.25)
    params = {"pb_selectivity": 0.63}
    before = _answer_counters()
    leader = scheduler.submit(QueryRequest(query="Q1", params=params, precision="tight"))
    assert started.wait(timeout=30.0)  # the leader has prepared and is solving
    follower = scheduler.submit(
        QueryRequest(query="Q1", params=params, precision="tight")
    )
    first, second = leader.wait(timeout=60.0), follower.wait(timeout=60.0)
    assert first.status == second.status == STATUS_OK
    assert not first.dedup and second.dedup
    assert follower.kept and not leader.kept
    assert delta(before, _answer_counters()) == {"answer_misses": 1, "answer_hits": 1}
    assert (second.lower, second.upper, second.exact) == (first.lower, first.upper, True)
    assert second.cache_hits == 2 and second.nodes == 0


# -- 6. a kept answer outlives its own component entries ------------------------
def test_kept_answer_outlives_the_component_entries_it_replaces(context):
    """Serve a problem whose component entries are all L1 hits: the
    request's own solve seconds are 0, yet the kept answer is priced at
    the entries' summed cost, so flooding the L1 evicts every one of
    those entries before the answer."""
    request = _tight_q1(0.64)
    params = dataclasses.replace(context.config.params, pb_selectivity=0.64)

    def prepare(session, encoded):
        plan = QUERY_BUILDERS["Q1"](encoded, params)
        with encoded.model.scoped():
            return session.prepare(evaluate_licm(plan, encoded.relations))

    probe = prepare(context.session("km", 2), context.encoding("km", 2).encoded)
    entries = 2 * len(probe.components)
    ctx = ExperimentContext(
        dataclasses.replace(context.config, solve_cache_size=entries + 1)
    )
    try:
        session = ctx.session("km", 2)
        prepared = prepare(session, ctx.encoding("km", 2).encoded)
        session.solve_prepared(prepared)  # every component entry resident
        keys = [
            (part.fingerprint, sense)
            for part in prepared.components
            for sense in ("min", "max")
        ]
        assert all(key in session.cache for key in keys)
        with QueryScheduler(ctx, workers=1) as sched:
            sched.warm([("km", 2)])
            answer = sched.execute(request)
        assert answer.exact and answer.solve_ms == 0.0
        kept = ("answer", request.plan_key())
        assert kept in session.cache
        heaviest = max(session.cache.cost(key) for key in keys)
        assert session.cache.cost(kept) >= heaviest
        flood = 0
        while any(key in session.cache for key in keys):
            session.cache.put(("flood", flood), None, cost=heaviest)
            flood += 1
            assert kept in session.cache, flood
        assert session.kept_answer(request.plan_key()) is not None
    finally:
        ctx.close()


# -- provenance of a read -------------------------------------------------------
@pytest.fixture
def wide_events():
    events: list = []

    class Capture(logging.Handler):
        def emit(self, record):
            if getattr(record, "wide", None):
                events.append(record.wide)

    handler = Capture()
    log = logging.getLogger(REQUEST_LOGGER)
    previous_level = log.level
    log.setLevel(logging.INFO)
    log.addHandler(handler)
    yield events
    log.removeHandler(handler)
    log.setLevel(previous_level)


@pytest.mark.parametrize(
    "spec", [{"query": "Q2", "params": {"x_items": 2}}, {"aggregate": "min"}]
)
def test_a_read_names_its_source_in_the_wide_event_and_explain(
    context, wide_events, spec
):
    buffer = SpanBuffer()
    with activate(Tracer([buffer], retain=False)):
        with QueryScheduler(context, workers=2, span_buffer=buffer) as sched:
            sched.warm([("km", 2)])
            context.session("km", 2).cache.clear()
            solved = sched.execute(QueryRequest(precision="tight", **spec))
            read = sched.execute(QueryRequest(precision="tight", explain=True, **spec))
    assert solved.status == read.status == STATUS_OK
    assert (read.lower, read.upper, read.exact) == (solved.lower, solved.upper, True)
    assert read.cache_hits == 2 and read.nodes == 0
    tiers = {event["request_id"]: event["cache_tier"] for event in wide_events}
    assert tiers[solved.request_id] != "answer"
    assert tiers[read.request_id] == "answer"
    payload = read.explain
    assert payload["bounds"]["source"] == "answer"
    for entry in payload["components"]:
        assert entry["cache"] == "answer" and entry["status"] == "optimal"
    if "query" in spec:  # COUNT/SUM: one entry per decomposed component
        assert len(payload["components"]) == payload["decomposition"]["components"]


def test_a_partly_warm_escalation_is_not_an_l1_answer(context, wide_events):
    """A ``balanced`` answer counts a direction as cached only when every
    escalated component's entry for it was — the exact path's rule — so
    one primed component among cold ones is a cold answer, not an L1 one,
    in the wide event and in EXPLAIN."""
    spec = {"aggregate": "count", "scheme": "bipartite", "precision": "balanced"}
    with QueryScheduler(context, workers=2) as sched:
        sched.warm([("bipartite", 2)])
        session = context.session("bipartite", 2)
        request = QueryRequest(**spec)
        assert sched.execute(request).status == STATUS_OK
        prepared = session.memoized(request.plan_key())
        tiers = sched.answerer.answer(session, prepared, "balanced").component_tiers
        escalated = [tier["component"] for tier in tiers if tier["escalated"]]
        assert len({prepared.components[i].fingerprint for i in escalated}) > 1
        session.cache.clear()
        primed = escalated[0]
        session.solve_units(
            [(prepared.components[primed], sense, primed) for sense in ("min", "max")]
        )
        response = sched.execute(QueryRequest(explain=True, **spec))
    assert response.status == STATUS_OK
    assert response.cache_hits == 0
    event = next(e for e in wide_events if e["request_id"] == response.request_id)
    assert event["cache_tier"] == "cold"
    assert response.explain["bounds"]["source"] == "cold"
