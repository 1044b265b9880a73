"""Served answers against brute-force enumeration of possible worlds.

On an enumerable database every ad-hoc ``count``/``sum``/``min``/``max``
request answered through :class:`QueryScheduler` is checked against the
exact range over all 50,625 worlds, under every precision and three
cache states: cold, a warm repeat, and a repeat after
``session.cache.clear()``.  A ``tight`` answer must equal the enumeration
and report ``exact``; a ``fast`` or ``balanced`` answer must contain it.

With the serving default ``backend="auto"`` this runs under every solve
fabric.  On this database the root pass then closes every COUNT/SUM
component, so the fabric's units are the MIN/MAX feasibility probes.
With ``backend="scipy"`` (inline fabric) the root pass steps aside and
every component is a HiGHS solve, so the answers also go through the
SciPy backend's target-fixing probe and its fall-through solve.

A stored L2 row whose solution vector is not JSON must read as a miss:
the request re-solves and still equals the enumeration.

Each request evaluates its plan inside one lineage scope of the shared
model.  Distinct plans served interleaved through one scheduler, then a
base ``model.add``, then the same plans again must still equal the
enumeration — of the changed model after the append.

A ``degraded`` answer must contain the enumeration too: a ``tight``
COUNT/SUM leader whose solve outlives its deadline, a MIN/MAX leader
whose probes do, and a follower that expires while its leader solves.
Monte Carlo, whose sampled range lies inside the exact one, must never
serve; a deadline that passes in the queue answers ``timeout``.
"""

from __future__ import annotations

import dataclasses
import sqlite3
import threading

import pytest

import repro.engine.fabric as fabric_module
import repro.service.scheduler as scheduler_module
from helpers import brute_force_adhoc, counter_totals, delta, tiny_config
from repro.core.linexpr import linear_sum
from repro.experiments.runner import ExperimentContext
from repro.service.api import STATUS_DEGRADED, STATUS_OK, STATUS_TIMEOUT, QueryRequest
from repro.service.scheduler import QueryScheduler

AGGREGATES = ("count", "sum", "min", "max")
SCHEME = "k-anonymity"


@pytest.fixture(scope="module")
def truth():
    """The brute-force range of every aggregate (the data depend only on
    the seed, not on the serving knobs)."""
    ctx = ExperimentContext(tiny_config())
    try:
        encoded = ctx.encoding(SCHEME, 2).encoded
        return {aggregate: brute_force_adhoc(encoded, aggregate) for aggregate in AGGREGATES}
    finally:
        ctx.close()


@pytest.mark.parametrize("precision", ["tight", "balanced", "fast"])
@pytest.mark.parametrize("fabric", ["inline", "process"])
def test_served_answers_match_possible_world_enumeration(truth, fabric, precision):
    _check_served_answers(truth, precision, solver_backend="auto", solve_fabric=fabric)


@pytest.mark.parametrize("precision", ["tight", "balanced", "fast"])
def test_scipy_served_answers_match_possible_world_enumeration(truth, precision):
    before = counter_totals()
    _check_served_answers(truth, precision, solver_backend="scipy", solve_fabric="inline")
    probes = delta(before, counter_totals())
    if precision == "tight":
        assert probes.get("target_probe_proved", 0) + probes.get("target_probe_refuted", 0) > 0


def _check_served_answers(truth, precision, **config):
    ctx = ExperimentContext(tiny_config(solve_workers=2, **config))
    try:
        with QueryScheduler(ctx, workers=2) as sched:
            sched.warm([(SCHEME, 2)])
            session = ctx.session(SCHEME, 2)
            for state in ("cold", "warm", "cleared"):
                if state == "cleared":
                    session.cache.clear()
                for aggregate in AGGREGATES:
                    response = sched.execute(
                        QueryRequest(aggregate=aggregate, scheme=SCHEME, precision=precision)
                    )
                    where = (state, aggregate)
                    assert response.status == STATUS_OK, (where, response.error)
                    low, high = truth[aggregate]
                    if precision == "tight":
                        assert response.exact, where
                        assert (response.lower, response.upper) == (low, high), where
                    else:
                        assert response.lower <= low <= high <= response.upper, where
    finally:
        ctx.close()


def test_interleaved_plans_and_a_base_append_match_enumeration(truth):
    ctx = ExperimentContext(tiny_config(solve_workers=2))
    try:
        encoded = ctx.encoding(SCHEME, 2).encoded
        model = encoded.model
        with QueryScheduler(ctx, workers=2) as sched:
            sched.warm([(SCHEME, 2)])
            interleaved = ("count", "min", "sum", "max", "sum", "count", "max", "min")
            _check_tight(sched, interleaved, truth)

            # Pin the first maybe-tuple of TRANSITEM absent: a base change.
            row = encoded.relations["TRANSITEM"].maybe_rows[0]
            model.add(linear_sum([row.ext]) <= 0)
            changed = {}
            for aggregate in AGGREGATES:
                with model.scoped():
                    changed[aggregate] = brute_force_adhoc(encoded, aggregate)
            assert changed != truth  # the append reaches some answer
            _check_tight(sched, interleaved, changed)
    finally:
        ctx.close()


def _check_tight(sched, aggregates, expected):
    for aggregate in aggregates:
        response = sched.execute(
            QueryRequest(aggregate=aggregate, scheme=SCHEME, precision="tight")
        )
        assert response.status == STATUS_OK, (aggregate, response.error)
        assert response.exact, aggregate
        assert (response.lower, response.upper) == expected[aggregate], aggregate


def test_a_corrupt_l2_row_is_a_miss_and_the_answer_stays_exact(truth, tmp_path):
    path = str(tmp_path / "l2.sqlite")
    ctx = ExperimentContext(tiny_config(l2_cache_path=path))
    try:
        with QueryScheduler(ctx, workers=1) as sched:
            sched.warm([(SCHEME, 2)])
            _check_tight(sched, ["count"], truth)
            conn = sqlite3.connect(path)
            with conn:
                corrupted = conn.execute(
                    "UPDATE solves SET x_canonical = '[1, oops' WHERE rowid = "
                    "(SELECT MIN(rowid) FROM solves WHERE x_canonical IS NOT NULL)"
                ).rowcount
            conn.close()
            assert corrupted == 1
            ctx.session(SCHEME, 2).cache.clear()  # the next answer reads L2
            _check_tight(sched, ["count"], truth)
    finally:
        ctx.close()


# -- degraded answers ----------------------------------------------------------
REAL_SOLVE = fabric_module.portfolio_solve


@pytest.fixture()
def served(monkeypatch):
    """An unseeded scheduler on the enumerable database with Monte Carlo
    refused.  Without the root pass every block is a unit; one COUNT/SUM
    block and every MIN/MAX probe reach ``portfolio_solve``."""

    def refuse(*args, **kwargs):
        raise AssertionError("a served answer ran Monte Carlo")

    monkeypatch.setattr(scheduler_module, "run_monte_carlo", refuse)
    ctx = ExperimentContext(tiny_config())
    try:
        with QueryScheduler(ctx, workers=2) as sched:
            sched.warm([(SCHEME, 2)])
            session = ctx.session(SCHEME, 2)
            unseeded = dataclasses.replace(session.options, seed_incumbent=False)
            monkeypatch.setattr(session, "options", unseeded)
            yield sched
    finally:
        ctx.close()


def _stall_first_solve(monkeypatch, hold_s: float):
    """Hold the first ``portfolio_solve`` call for ``hold_s`` or until the
    returned ``release`` is set; ``started`` is set when it starts.  Later
    calls run at once."""
    started, release = threading.Event(), threading.Event()

    def solve(problem, sense, options):
        if not started.is_set():
            started.set()
            release.wait(hold_s)
        return REAL_SOLVE(problem, sense, options)

    monkeypatch.setattr(fabric_module, "portfolio_solve", solve)
    return started, release


def _request(aggregate, **fields):
    return QueryRequest(aggregate=aggregate, scheme=SCHEME, precision="tight", **fields)


def _assert_contains(response, exact):
    assert response.status == STATUS_DEGRADED, (response.status, response.error)
    assert not response.exact and response.fingerprint is not None
    low, high = exact
    assert response.lower <= low <= high <= response.upper, (response, exact)


@pytest.mark.parametrize("aggregate", AGGREGATES)
def test_a_leader_cut_by_its_deadline_degrades_to_a_containing_interval(
    truth, served, monkeypatch, aggregate
):
    """The first solve (a COUNT/SUM block, or a MIN/MAX probe) outlives
    the budget, so every later one starts past the deadline."""
    _stall_first_solve(monkeypatch, 0.3)
    response = served.execute(_request(aggregate, deadline_ms=100.0), timeout=60.0)
    _assert_contains(response, truth[aggregate])


@pytest.mark.parametrize("aggregate", ["count", "sum"])
def test_a_parked_follower_degrades_to_a_containing_interval(
    truth, served, monkeypatch, aggregate
):
    """The leader has prepared and is solving; the follower's deadline
    expires while parked, over the problem the leader published."""
    started, release = _stall_first_solve(monkeypatch, 30.0)
    leader = served.submit(_request(aggregate))
    assert started.wait(30.0)
    follower = served.submit(_request(aggregate, deadline_ms=100.0))
    expired = follower.wait(timeout=60.0)
    release.set()
    assert expired is not None and expired.dedup
    _assert_contains(expired, truth[aggregate])
    exact = leader.wait(timeout=60.0)
    assert exact.status == STATUS_OK and exact.exact
    assert (exact.lower, exact.upper) == truth[aggregate]


def test_a_deadline_that_passes_in_the_queue_times_out(served):
    response = served.execute(_request("count", deadline_ms=0.01), timeout=60.0)
    assert response.status == STATUS_TIMEOUT
    assert (response.lower, response.upper, response.exact) == (None, None, False)
