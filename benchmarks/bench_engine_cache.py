"""Engine benchmarks: cold vs warm solve cache, serial vs parallel min/max.

The ISSUE-1 acceptance demo: a Figure-5-style repeated-query sweep (the
same aggregate query issued >= 3 times against one shared LICM model)
served by a shared :class:`SolveSession` shows L1 cache hits in the
process counters (``repro_counter_total{name="cache_hits"}``) and
lower total wall time than the cold path that re-solves every BIP.  Run
with::

    pytest benchmarks/bench_engine_cache.py --benchmark-only
"""

from __future__ import annotations

from repro.engine import InlineFabric, ProcessFabric, SolveSession
from repro.obs.export import global_registry
from repro.obs.tracer import Stopwatch
from repro.queries import answer_licm

SWEEP = 3  # identical aggregate queries per sweep


def _cold_sweep(encoded, plan):
    """Every query gets a throwaway, cache-less session (the legacy path)."""
    answers = []
    for _ in range(SWEEP):
        session = SolveSession(encoded.model, cache_size=0)
        answers.append(answer_licm(encoded, plan, session=session))
    return answers


def _cache_hits() -> float:
    series = global_registry().counter("counter_total").series
    return series.get((("name", "cache_hits"),), 0)


def _warm_sweep(encoded, plan, session):
    return [answer_licm(encoded, plan, session=session) for _ in range(SWEEP)]


def test_cold_vs_warm_cache_sweep(benchmark, context):
    encoded = context.encoding("km", 2).encoded
    plan = context.plan("Q1", encoded)

    cold_clock = Stopwatch()
    cold = _cold_sweep(encoded, plan)
    cold_time = cold_clock.stop()

    session = SolveSession(encoded.model)
    hits_before = _cache_hits()
    warm_clock = Stopwatch()
    warm = _warm_sweep(encoded, plan, session)
    warm_time = warm_clock.stop()
    warm_hits = _cache_hits() - hits_before

    # identical bounds from cached and cold paths
    assert {(a.lower, a.upper) for a in cold} == {(w.lower, w.upper) for w in warm}
    # >= 1 cache hit counted (queries 2..SWEEP hit both senses)
    assert warm_hits >= 1
    # the warm sweep beats re-solving everything
    assert warm_time < cold_time

    benchmark.extra_info["cold_sweep_s"] = round(cold_time, 4)
    benchmark.extra_info["warm_sweep_s"] = round(warm_time, 4)
    benchmark.extra_info["cache_hits"] = warm_hits
    benchmark.extra_info["speedup"] = round(cold_time / max(warm_time, 1e-9), 2)

    # steady-state warm sweep is what the benchmark records
    benchmark.pedantic(
        lambda: _warm_sweep(encoded, plan, session), rounds=3, iterations=1
    )


def test_serial_vs_parallel_minmax(benchmark, context):
    encoded = context.encoding("km", 2).encoded
    plan = context.plan("Q1", encoded)

    def sweep(fabric):
        with SolveSession(encoded.model, cache_size=0, fabric=fabric) as session:
            clock = Stopwatch()
            answer = answer_licm(encoded, plan, session=session)
            return answer, clock.stop()

    with ProcessFabric(workers=2) as process:
        serial_answer, serial_time = sweep(InlineFabric())
        parallel_answer, parallel_time = sweep(process)

        assert (serial_answer.lower, serial_answer.upper) == (
            parallel_answer.lower,
            parallel_answer.upper,
        )
        benchmark.extra_info["serial_s"] = round(serial_time, 4)
        benchmark.extra_info["parallel_s"] = round(parallel_time, 4)

        benchmark.pedantic(lambda: sweep(process), rounds=2, iterations=1)
