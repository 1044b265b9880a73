"""The cost-aware L1 (:class:`repro.engine.cache.LRUCache`).

Eviction is GreedyDual: an entry's priority is ``clock + cost``, a hit
refreshes it, and an eviction removes the lowest priority (least recent
on ties) and advances the clock to it.  With every cost 0 that is plain
LRU, which the first property pins against an ``OrderedDict`` reference;
the second pins costed sequences against a linear-scan reference.  The
session test at the end checks the point of the policy: the expensive
solves of one inseparable problem outlive a flood of cheap decomposed
components without changing any bound.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.fabric as fabric_module
from repro.core.database import LICMModel
from repro.core.linexpr import LinearExpr, linear_sum
from repro.engine import SolveSession
from repro.engine.cache import LRUCache, SolveCache
from repro.solver.kernels import ENUMERATE_MAX_FREE

from tests.helpers import counter_totals, delta

KEYS = st.sampled_from("abcdefg")
#: dyadic costs, so the reference's priorities are exact in binary
COSTS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])


class _ReferenceLRU:
    """The LRU the cache replaced, restated over an ``OrderedDict``."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.data: "OrderedDict[str, int]" = OrderedDict()
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def get(self, key):
        if key not in self.data:
            self.misses += 1
            return None
        self.data.move_to_end(key)
        self.hits += 1
        return self.data[key]

    def put(self, key, value, cost=0.0):
        if self.maxsize <= 0:
            return
        self.data[key] = value
        self.data.move_to_end(key)
        while len(self.data) > self.maxsize:
            self.data.popitem(last=False)
            self.evictions += 1

    def clear(self):
        if self.data:
            self.invalidations += 1
        self.data.clear()

    @property
    def stats(self):
        return {
            "size": len(self.data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class _ReferenceGreedyDual(_ReferenceLRU):
    """GreedyDual by linear scan: evict ``min (priority, recency)``."""

    def __init__(self, maxsize: int):
        super().__init__(maxsize)
        self.meta = {}  # key -> [priority, tick, cost]
        self.clock = 0.0
        self.tick = 0

    def _touch(self, key):
        self.tick += 1
        meta = self.meta[key]
        meta[0], meta[1] = self.clock + meta[2], self.tick

    def get(self, key):
        value = super().get(key)
        if value is not None:
            self._touch(key)
        return value

    def put(self, key, value, cost=0.0):
        if self.maxsize <= 0:
            return
        while key not in self.data and len(self.data) >= self.maxsize:
            victim = min(self.meta, key=lambda k: self.meta[k][:2])
            self.clock = self.meta.pop(victim)[0]
            del self.data[victim]
            self.evictions += 1
        self.data[key] = value
        self.meta[key] = [0.0, 0, cost]
        self._touch(key)

    def clear(self):
        super().clear()
        self.meta.clear()
        self.clock = 0.0


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, st.integers(0, 99), COSTS),
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def _replay(ops, cache, reference, zero_cost: bool):
    for op in ops:
        if op[0] == "put":
            _, key, value, cost = op
            cost = 0.0 if zero_cost else cost
            cache.put(key, value, cost)
            reference.put(key, value, cost)
        elif op[0] == "get":
            assert cache.get(op[1]) == reference.get(op[1])
        else:
            cache.clear()
            reference.clear()
        assert cache.stats == reference.stats
        assert {k for k in "abcdefg" if k in cache} == set(reference.data)


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 5), OPS)
def test_zero_cost_sequences_behave_exactly_like_lru(maxsize, ops):
    _replay(ops, LRUCache(maxsize), _ReferenceLRU(maxsize), zero_cost=True)


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 5), OPS)
def test_costed_sequences_follow_greedy_dual(maxsize, ops):
    cache, reference = LRUCache(maxsize), _ReferenceGreedyDual(maxsize)
    _replay(ops, cache, reference, zero_cost=False)
    assert cache.clock == reference.clock


def test_costly_entry_survives_until_the_clock_passes_its_priority():
    """At capacity 2, ``big`` (cost 1) sits beside a stream of cost-1/8
    entries.  Each cheap eviction lifts the clock by 1/8, so ``big``
    outlives eight of them (LRU would drop it at the second) and goes
    when the clock reaches its priority 1.0."""
    cache = LRUCache(2)
    cache.put("big", "B", cost=1.0)
    for i in range(8):
        cache.put(i, i, cost=0.125)
        assert "big" in cache, i
    assert cache.clock == 0.875
    cache.put(8, 8, cost=0.125)
    assert "big" not in cache
    assert cache.clock == 1.0
    assert cache.stats["evictions"] == 8


def test_a_hit_refreshes_the_priority_from_the_current_clock():
    cache = LRUCache(2)
    cache.put("big", "B", cost=1.0)
    for i in range(6):
        cache.put(i, i, cost=0.125)
    assert cache.clock == 0.625
    assert cache.get("big") == "B"  # priority 0.625 + 1.0
    for i in range(6, 13):  # past the 1.0 an unrefreshed entry had
        cache.put(i, i, cost=0.125)
        assert "big" in cache, i
    assert cache.clock == 1.5
    cache.put(13, 13, cost=0.125)
    assert "big" not in cache and cache.clock == 1.625


def test_clear_resets_the_clock():
    def fill(cache):
        for key, cost in (("a", 0.5), ("b", 0.25), ("c", 0.0), ("d", 0.125)):
            cache.put(key, key, cost=cost)

    cache = LRUCache(2)
    fill(cache)
    assert cache.clock == 0.25
    cache.clear()
    assert cache.clock == 0.0 and len(cache) == 0
    fill(cache)  # replays exactly as on a fresh cache
    fresh = LRUCache(2)
    fill(fresh)
    assert cache.clock == fresh.clock == 0.25
    assert {k for k in "abcd" if k in cache} == {k for k in "abcd" if k in fresh}


def test_l1_exports_evictions_and_their_cost():
    before = counter_totals()
    cache = SolveCache(1)
    cache.put("a", 1, cost=0.5)
    cache.put("b", 2, cost=1.0)  # evicts a
    cache.put("c", 3, cost=0.25)  # evicts b
    moved = delta(before, counter_totals())
    assert moved == {"cache_evictions": 2, "cache_evicted_seconds": 1.5}
    assert "c" in cache and "b" not in cache
    memo = LRUCache(1)  # the prepared memo exports nothing
    memo.put("a", 1, cost=0.5)
    memo.put("b", 2)
    assert delta(before, counter_totals()) == moved


def test_concurrent_puts_and_gets_stay_within_maxsize():
    cache = LRUCache(16)
    gets = [0] * 8
    oversize = []

    def worker(slot: int) -> None:
        rng = random.Random(slot)
        for _ in range(2000):
            key = rng.randrange(64)
            if rng.random() < 0.5:
                cache.put(key, key, cost=rng.choice([0.0, 0.001, 0.5]))
                if len(cache) > cache.maxsize:
                    oversize.append(len(cache))
            else:
                gets[slot] += 1
                value = cache.get(key)
                assert value is None or value == key

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not oversize
    stats = cache.stats
    assert stats["size"] <= 16
    assert stats["hits"] + stats["misses"] == sum(gets)
    # the heap still indexes every live entry: fresh puts evict normally
    for key in range(100, 140):
        cache.put(key, key)
        assert len(cache) == 16


# -- the session: an expensive solve outlives cheap components ------------

#: variables in the one-component problem: more than the root pass
#: enumerates, so its solves stay fabric units
CHAIN = ENUMERATE_MAX_FREE + 2


def _flood_model(blocks: int):
    """One connected chain (a one-component problem the root pass closes
    in neither sense) and ``blocks`` two-block objectives of distinct
    weights (each a decomposed problem whose components the root pass
    closes)."""
    model = LICMModel()
    chain = model.new_vars(CHAIN)
    for left, right in zip(chain, chain[1:]):
        model.add(left + right <= 1)
    # Without a lower cardinality the minimum is the all-zero point, which
    # the root pass closes: the chain would cost one real solve, not two.
    model.add(linear_sum(chain) >= 2)
    expensive = LinearExpr({v.index: p + 1 for p, v in enumerate(chain)}, 0)
    cheap = []
    for i in range(blocks):
        coeffs = {}
        for half in range(2):
            block = model.new_vars(3)
            model.add(linear_sum(block) <= 1)
            for position, var in enumerate(block):
                coeffs[var.index] = 10 * i + 3 * half + position + 1
        cheap.append(LinearExpr(coeffs, 0))
    return model, expensive, cheap


def _answers(session, expensive, cheap):
    objectives = [expensive, *cheap, expensive]
    return [
        (bounds.lower, bounds.upper, bounds.exact, bounds.stats["cache_hits"])
        for bounds in (session.bounds(objective) for objective in objectives)
    ]


def _chain_solves(monkeypatch, seconds: float) -> list:
    """Report ``seconds`` of solve wall for every chain solve, and count them."""
    calls = []
    real = fabric_module.portfolio_solve

    def timed(problem, sense, options):
        solution = real(problem, sense, options)
        if problem.num_vars == CHAIN:
            calls.append(sense)
            solution.solve_time = seconds
        return solution

    monkeypatch.setattr(fabric_module, "portfolio_solve", timed)
    return calls


def test_expensive_monolithic_key_survives_a_flood_of_cheap_components(monkeypatch):
    model, expensive, cheap = _flood_model(blocks=12)
    calls = _chain_solves(monkeypatch, seconds=5.0)
    with SolveSession(model, cache_size=8) as session:
        answers = _answers(session, expensive, cheap)
        assert session.cache.stats["evictions"] >= 12 * 4 - 8  # the flood evicted
    assert calls == ["min", "max"]  # the repeat was answered from L1
    assert answers[-1][3] == 2

    with SolveSession(model, cache_size=0) as uncached:
        reference = _answers(uncached, expensive, cheap)
    assert [a[:3] for a in answers] == [r[:3] for r in reference]


def test_without_its_cost_the_monolithic_key_is_flooded_out(monkeypatch):
    """The control: at zero cost the same flood evicts the chain (LRU)."""
    model, expensive, cheap = _flood_model(blocks=12)
    calls = _chain_solves(monkeypatch, seconds=0.0)
    with SolveSession(model, cache_size=8) as session:
        answers = _answers(session, expensive, cheap)
    assert calls == ["min", "max", "min", "max"]
    assert answers[-1][3] == 0
