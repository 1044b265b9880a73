"""Unit tests for the engine's building blocks: the Stopwatch and the
process-registry counters/phase timings, canonicalizer, LRU solve cache,
and the constraint store's generation counter."""

from __future__ import annotations

import sys
import threading

import pytest

from helpers import counter_totals, delta, phase_totals
from repro.core.constraints import ConstraintStore
from repro.core.database import LICMModel
from repro.core.linexpr import linear_sum
from repro.engine import SolveSession
from repro.engine.cache import CachedSolve, SolveCache
from repro.engine.canonical import canonicalize
from repro.obs.export import count, phase
from repro.obs.tracer import Stopwatch
from repro.solver.model import from_licm


# -- Stopwatch / counters / phase timings -------------------------------------


def test_stopwatch_freezes_on_stop():
    sw = Stopwatch()
    first = sw.stop()
    assert first >= 0.0
    assert sw.elapsed == first  # frozen
    sw.restart()
    assert sw.elapsed >= 0.0


def test_timer_accumulates_and_emits():
    before = phase_totals()
    with phase("test.phase_a") as first:
        pass
    with phase("test.phase_a") as second:
        pass
    moved = delta(before, phase_totals())
    assert set(moved) <= {"test.phase_a"}
    # the yielded clocks are frozen on exit and sum to the recorded total
    assert moved.get("test.phase_a", 0.0) == pytest.approx(
        first.elapsed + second.elapsed
    )
    assert "test.missing" not in phase_totals()


def test_counters_and_snapshot():
    before = counter_totals()
    count("test.cache_hits")
    count("test.cache_hits", 2)
    assert delta(before, counter_totals()) == {"test.cache_hits": 3}


def test_counters_thread_safe():
    before = counter_totals()
    threads = [
        threading.Thread(target=lambda: [count("test.n") for _ in range(500)])
        for _ in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force interleaving inside inc()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert delta(before, counter_totals()) == {"test.n": 2000}


# -- canonicalizer -----------------------------------------------------------


def _fingerprint(objective, constraints):
    problem, _ = from_licm(objective, constraints)
    return canonicalize(problem)


def test_fingerprint_stable_under_index_shift():
    """Structurally identical problems over shifted variable indices
    canonicalize to the same fingerprint."""

    def build(offset: int):
        model = LICMModel()
        model.new_vars(offset)  # burn indices
        a, b, c = model.new_vars(3)
        model.add(linear_sum([a, b, c]) >= 1)
        model.add((a + b) <= 1)
        return _fingerprint(a + b + c, list(model.constraints))

    assert build(0) == build(7)


def test_fingerprint_ignores_constraint_order():
    model = LICMModel()
    a, b = model.new_vars(2)
    c1, c2 = (a + b) >= 1, (a + 0) <= 1
    assert _fingerprint(a + b, [c1, c2]) == _fingerprint(a + b, [c2, c1])


def test_fingerprint_distinguishes_different_problems():
    model = LICMModel()
    a, b = model.new_vars(2)
    base = _fingerprint(a + b, [(a + b) >= 1])
    assert base != _fingerprint(a + b, [(a + b) >= 2])
    assert base != _fingerprint(a - b, [(a + b) >= 1])
    assert base != _fingerprint(a + b, [(a + b) <= 1])


def test_columns_follow_first_appearance():
    """Objective variables ascending, then each constraint's in order —
    the one column order the vector, the caches and the fingerprint share."""
    model = LICMModel()
    model.new_vars(4)
    a, b, c, d = model.new_vars(4)
    problem, dense = from_licm(d + b, [(a + c) >= 1, (c + d) <= 1])
    assert list(dense.items()) == [
        (b.index, 0), (d.index, 1), (a.index, 2), (c.index, 3)
    ]
    assert problem.objective == {0: 1, 1: 1}


def test_witness_translation_roundtrip():
    """A vector in column space reads back as a model assignment through
    the block's dense map, and a session reports that assignment."""
    model = LICMModel()
    model.new_vars(4)
    a, b = model.new_vars(2)
    problem, dense = from_licm(a + b, [(a + b) >= 1])
    assert problem.num_vars == 2
    x = (1, 0)
    witness = {index: x[column] for index, column in dense.items()}
    assert witness == {a.index: 1, b.index: 0}
    assert (a + b).value(witness) == problem.objective_value(x)

    model.add(linear_sum([a, b]) >= 1)
    with SolveSession(model) as session:
        answer = session.bounds(a + b)
    for bound, assignment in (
        (answer.lower, answer.lower_witness),
        (answer.upper, answer.upper_witness),
    ):
        assert set(assignment) == {a.index, b.index}
        assert (a + b).value(assignment) == bound
    assert (answer.lower, answer.upper) == (1, 2)


# -- solve cache -------------------------------------------------------------


def _entry(value: int) -> CachedSolve:
    return CachedSolve("optimal", value, (1,), float(value), 0, "bb")


def test_cache_lru_discipline():
    cache = SolveCache(maxsize=2)
    cache.put("a", _entry(1))
    cache.put("b", _entry(2))
    assert cache.get("a").objective == 1  # refresh 'a'
    cache.put("c", _entry(3))  # evicts 'b'
    assert cache.get("b") is None
    assert cache.get("a") is not None and cache.get("c") is not None
    assert cache.stats["evictions"] == 1


def test_cache_clear_counts_invalidations():
    cache = SolveCache()
    cache.clear()  # empty clear is not an invalidation
    assert cache.stats["invalidations"] == 0
    cache.put("a", _entry(1))
    cache.clear()
    assert cache.stats["invalidations"] == 1
    assert len(cache) == 0


def test_cache_size_zero_disables():
    cache = SolveCache(maxsize=0)
    cache.put("a", _entry(1))
    assert cache.get("a") is None
    assert cache.stats == {
        "size": 0,
        "maxsize": 0,
        "hits": 0,
        "misses": 1,
        "evictions": 0,
        "invalidations": 0,
    }


# -- constraint store generation --------------------------------------------


def test_store_generation_counts_mutations():
    model = LICMModel()
    a, b = model.new_vars(2)
    store: ConstraintStore = model.constraints
    assert store.generation == 0
    model.add((a + b) >= 1)
    assert store.generation == 1
    model.add_all([(a + 0) <= 1, (b + 0) <= 1])
    assert store.generation == 3
    assert store.copy().generation == 3
