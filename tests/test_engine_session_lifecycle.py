"""Session lifecycle (close semantics) and cache/session thread safety."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from helpers import fig2c_model
from repro.core.aggregates import count_objective
from repro.engine import SolveSession
from repro.engine.cache import CachedSolve, SolveCache
from repro.errors import EngineError
from repro.solver.result import SolverOptions


def _session():
    model, trans, _ = fig2c_model()
    return SolveSession(model), count_objective(trans)


# -- close() semantics -----------------------------------------------------
def test_close_is_idempotent():
    session, objective = _session()
    session.bounds(objective)
    session.close()
    session.close()  # second close must be a no-op, not an error
    assert session.closed


def test_use_after_close_raises_engine_error():
    session, objective = _session()
    session.close()
    with pytest.raises(EngineError, match="closed") as excinfo:
        session.bounds(objective)
    # The message names the remedy, not just the failure.
    assert "new session" in str(excinfo.value)


def test_prepared_problem_cannot_be_solved_after_close():
    session, objective = _session()
    prepared = session.prepare(objective)
    assert prepared.fingerprint
    session.close()
    with pytest.raises(EngineError, match="closed"):
        session.solve_prepared(prepared)


def test_context_manager_closes():
    model, trans, _ = fig2c_model()
    with SolveSession(model) as session:
        session.bounds(count_objective(trans))
    assert session.closed


# -- prepare / solve_prepared split ----------------------------------------
def test_prepare_then_solve_matches_bounds():
    session, objective = _session()
    direct = session.bounds(objective)
    prepared = session.prepare(objective)
    again = session.solve_prepared(prepared)
    assert (again.lower, again.upper) == (direct.lower, direct.upper)
    assert again.stats["cache_hits"] > 0  # second pass reads the cache


def test_stop_check_truncates_to_inexact_bounds():
    model, trans, _ = fig2c_model()
    options = SolverOptions(backend="bb", stop_check=lambda: True)
    session = SolveSession(model, options=options)
    bounds = session.bounds(count_objective(trans))
    assert not bounds.exact


def test_truncated_per_call_solve_is_not_cached():
    session, objective = _session()
    cancelled = dataclasses.replace(
        session.options, backend="bb", stop_check=lambda: True
    )
    truncated = session.bounds(objective, options=cancelled)
    assert not truncated.exact
    assert len(session.cache) == 0  # poisoning a shared cache is worse
    exact = session.bounds(objective)
    assert exact.exact
    assert len(session.cache) == 2  # optimal min + max landed


# -- concurrency -----------------------------------------------------------
def test_solve_cache_concurrent_stress():
    cache = SolveCache(maxsize=32)
    entry = CachedSolve(
        status="optimal", objective=1, x_canonical=(1,), bound=1.0, nodes=0, backend="t"
    )
    errors = []
    barrier = threading.Barrier(8)

    def worker(seed: int) -> None:
        try:
            barrier.wait()
            for i in range(400):
                key = (f"fp{(seed * 7 + i) % 48}", "min")
                if i % 97 == 0:
                    cache.clear()
                elif i % 3 == 0:
                    cache.put(key, entry)
                else:
                    got = cache.get(key)
                    assert got is None or got is entry
                    key in cache  # noqa: B015 — exercising __contains__ under race
                    len(cache)
                    cache.stats
        except Exception as exc:  # noqa: BLE001 — surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    stats = cache.stats
    assert stats["size"] <= 32
    assert stats["hits"] + stats["misses"] > 0
    assert stats["evictions"] >= 0 and stats["invalidations"] >= 1


def test_session_concurrent_identical_bounds_agree():
    session, objective = _session()
    expected = session.bounds(objective)
    results = [None] * 6
    errors = []
    barrier = threading.Barrier(6)

    def worker(slot: int) -> None:
        try:
            barrier.wait()
            results[slot] = session.bounds(objective)
        except Exception as exc:  # noqa: BLE001 — surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    for bounds in results:
        assert (bounds.lower, bounds.upper) == (expected.lower, expected.upper)
