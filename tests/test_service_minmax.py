"""MIN/MAX requests on the scheduler's one serve path.

A MIN/MAX request joins a flight on its plan identity like COUNT/SUM, is
evaluated and prepared under the encoding's model lock, and probes the
prepared problem outside it.  These tests stall the probes (every one is
a ``repro.engine.fabric.portfolio_solve`` call on a problem with no
objective; on this database only km's ``max`` probes at all) to pin the
lock scope, the dedup of identical requests and the deadline of a
parked follower, which must answer ``timeout``, never an estimator tier:
a MIN/MAX problem's objective is not the aggregate.
"""

from __future__ import annotations

import threading

import pytest

import repro.engine.fabric as fabric_module
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.service.api import STATUS_OK, STATUS_TIMEOUT, QueryRequest
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
    )
    ctx = ExperimentContext(config)
    yield ctx
    ctx.close()


@pytest.fixture(scope="module")
def scheduler(context):
    with QueryScheduler(context, workers=4, max_queue=32) as sched:
        sched.warm([("km", 2)])
        yield sched


@pytest.fixture()
def stalled_probes(context, monkeypatch):
    """Hold every MIN/MAX probe until ``release`` is set; ``entered`` is
    set on the first one and ``probes`` counts them.  Kept answers are
    cleared first, so the next MIN/MAX request really probes."""
    context.session("km", 2).cache.clear()
    entered, release = threading.Event(), threading.Event()
    probes = []

    def solve(problem, sense, options):
        if not problem.objective:
            probes.append(problem)
            entered.set()
            release.wait(30.0)
        return REAL_SOLVE(problem, sense, options)

    monkeypatch.setattr(fabric_module, "portfolio_solve", solve)
    yield entered, release, probes
    release.set()


def _solo_probes(context, scheduler, stalled_probes, request):
    """The probes ``request`` costs on its own (kept answers cleared)."""
    entered, release, probes = stalled_probes
    release.set()
    assert scheduler.execute(request, timeout=60.0).status == STATUS_OK
    solo = len(probes)
    assert solo > 0
    context.session("km", 2).cache.clear()
    del probes[:]
    release.clear()
    entered.clear()  # the next wait is for the next request's first probe
    return solo


def test_probes_run_outside_the_model_lock(scheduler, stalled_probes):
    """A COUNT on the same encoding evaluates and prepares (under the
    model lock) and answers while a MIN/MAX request is still probing."""
    entered, release, _ = stalled_probes
    minmax = scheduler.submit(QueryRequest(aggregate="max"))
    assert entered.wait(30.0)  # the MIN/MAX request is probing
    count = scheduler.submit(QueryRequest(query="Q1", params={"pb_selectivity": 0.71}))
    response = count.wait(timeout=30.0)
    assert response is not None and response.status == STATUS_OK, response
    assert not minmax.done
    release.set()
    answer = minmax.wait(timeout=60.0)
    assert answer.status == STATUS_OK and answer.exact


def test_identical_minmax_requests_cost_one_leaders_probes(
    context, scheduler, stalled_probes
):
    """A follower parks on the leader's flight and reads the answer the
    leader kept: the pair costs the solo leader's probes."""
    entered, release, probes = stalled_probes
    solo = _solo_probes(context, scheduler, stalled_probes, QueryRequest(aggregate="max"))
    leader = scheduler.submit(QueryRequest(aggregate="max"))
    assert entered.wait(30.0)
    follower = scheduler.submit(QueryRequest(aggregate="max", precision="fast"))
    release.set()
    first, second = leader.wait(timeout=60.0), follower.wait(timeout=60.0)
    assert first.status == second.status == STATUS_OK
    assert (first.dedup, second.dedup) == (False, True)
    assert second.tier == "exact" and follower.kept
    assert (second.lower, second.upper, second.exact) == (first.lower, first.upper, True)
    assert first.fingerprint is not None
    assert second.fingerprint == first.fingerprint  # probed and kept answers alike
    assert len(probes) == solo
    assert scheduler.status()["dedup_hits"] >= 1


@pytest.mark.parametrize("fast", [True, False])
def test_parked_minmax_follower_never_degrades_to_an_estimator(
    scheduler, stalled_probes, fast
):
    """The leader has published its prepared problem and is probing; the
    follower's deadline expires while parked.  It answers ``timeout``,
    never an estimator tier over that problem — not even when it asks for
    ``fast``, the precision the estimator tiers serve."""
    entered, release, _ = stalled_probes
    leader = scheduler.submit(QueryRequest(aggregate="max"))
    assert entered.wait(30.0)  # flight.prepared is set
    follower = scheduler.submit(
        QueryRequest(
            aggregate="max", deadline_ms=200.0,
            precision="fast" if fast else None,
        )
    )
    expired = follower.wait(timeout=60.0)
    release.set()
    assert expired is not None and expired.dedup
    assert expired.status == STATUS_TIMEOUT and expired.tier is None
    assert not expired.exact and expired.fingerprint is None
    exact = leader.wait(timeout=60.0)
    assert exact.status == STATUS_OK and exact.exact
