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
"""

from __future__ import annotations

import sqlite3

import pytest

from helpers import brute_force_adhoc, counter_totals, delta, tiny_config
from repro.core.linexpr import linear_sum
from repro.experiments.runner import ExperimentContext
from repro.service.api import STATUS_OK, QueryRequest
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
