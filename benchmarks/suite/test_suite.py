"""Self-tests of the service benchmark (no server; a few seconds).

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import re
from types import SimpleNamespace

import pytest

import layers
import run
import traced_serve
import workloads as wl


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_stream_other_seed_other_stream(workload):
    def dump(seed):
        return json.dumps(wl.timed_stream(workload, seed, 20), sort_keys=True)

    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_seed_asks_for_the_same_work(workload):
    def mix(seed):
        stream = wl.timed_stream(workload, seed, 20)
        return sorted((wl.request_key(s), s["precision"]) for s in stream), [
            s.get("due") for s in stream
        ]

    assert mix(1) == mix(2)


@pytest.mark.parametrize("seed", range(5))
def test_dashboard_q3_recurs_a_block_apart(seed):
    stream = wl.timed_stream("dashboard", seed, 40)
    size = len(stream) // wl.blocks("dashboard", 40)
    for scheme in wl.SCHEMES:
        at = [i for i, s in enumerate(stream) if s.get("query") == "Q3" and s["scheme"] == scheme]
        assert [b - a for a, b in zip(at, at[1:])] == [size] * (len(at) - 1)


def test_open_loop_spreads_the_expensive_requests():
    stream = wl.timed_stream("open_hot", 5, 20)
    heavy = [i for i, s in enumerate(stream) if s["scheme"] == "k-anonymity"]
    assert heavy == list(range(0, len(stream), 4))


@pytest.mark.parametrize("seconds", [1, 20, 60])
def test_sweep_keys_are_unique_and_never_hot(seconds):
    for seed in range(5):
        keys = [wl.request_key(s) for s in wl.timed_stream("sweep", seed, seconds)]
        assert len(keys) == len(set(keys)) == 15 * wl.blocks("sweep", seconds)
        assert not set(keys) & {wl.request_key(s) for s in wl.warmup_stream("sweep")}
        for key in keys:
            params = dict(p.split("=") for p in key.split("/")[2].split(","))
            for name, value in params.items():
                grid = {"pa_selectivity": wl.PA_GRID, "pb_selectivity": wl.PB_GRID,
                        "q3_selectivity": wl.Q3_GRID}[name]
                assert float(value) in grid


def test_open_loop_arrivals_hold_the_rate():
    stream = wl.timed_stream("open_hot", 3, 20)
    due = [s["due"] for s in stream]
    assert due == sorted(due)
    window = len(stream) / wl.OPEN_RATE
    assert 0 <= due[0] and due[-1] < window
    assert all(s["deadline_ms"] == wl.OPEN_DEADLINE_MS for s in stream)


def test_warmup_covers_every_timed_key_once():
    for workload in ("dashboard", "interactive", "open_hot"):
        warm = [(wl.request_key(s), s["precision"]) for s in wl.warmup_stream(workload)]
        timed = {(wl.request_key(s), s["precision"]) for s in wl.timed_stream(workload, 1, 20)}
        assert len(warm) == len(set(warm)) and set(warm) == timed


def test_zipf_quota_every_key_present_head_dominates():
    quota = wl.zipf_quota(11, 25)
    assert min(quota) >= 1 and quota == sorted(quota, reverse=True) and quota[0] > quota[1]


@pytest.mark.parametrize("layer,module,attribute", traced_serve.WRAPS)
def test_every_wrapped_call_exists(layer, module, attribute):
    owner, name = traced_serve.resolve(module, attribute)
    target = getattr(owner, name)
    calls = target.values() if isinstance(target, dict) else [target]
    assert calls and all(callable(fn) for fn in calls), f"{layer}: {module}.{attribute}"


def test_observed_layers_are_wrapped_and_reported():
    wrapped = {layer for layer, _, _ in traced_serve.WRAPS}
    assert set(traced_serve.OBSERVE) <= wrapped
    reported = {name for name, _ in layers.METRICS}
    assert {f"{layer}_pct" for layer in layers.INCLUSIVE + layers.SELF} <= reported


def test_recorder_nests_spans_per_thread():
    recorder = traced_serve.Recorder()
    inner = recorder.wrap("engine.prune", lambda: None)
    outer = recorder.wrap("engine.prepare", lambda: inner())
    outer()
    (child, parent) = recorder.spans
    assert child[2] == "engine.prune" and parent[2] == "engine.prepare"
    assert child[1] == parent[0] and parent[1] is None
    assert parent[4] <= child[4] <= child[5] <= parent[5]


def _span(span_id, parent, layer, start, end, **attrs):
    return {"id": span_id, "parent": parent, "layer": layer, "thread": "t",
            "start": start, "end": end, "attrs": attrs}


SPANS = [
    _span(1, None, "engine.prepare", 0.0, 0.010),
    _span(2, 1, "engine.prune", 0.001, 0.004),
    _span(3, 1, "engine.from_licm", 0.004, 0.006),
    _span(4, None, "engine.solve_prepared", 0.010, 0.030),
    _span(5, 4, "solver.solve", 0.012, 0.027, nodes=1),
    _span(6, 5, "solver.solve", 0.013, 0.014, nodes=3),  # nested in itself
    _span(7, None, "obs.request_log", 0.040, 0.041),
]


def test_self_and_inclusive_times():
    times = layers.layer_times(SPANS)
    assert times["engine.prepare"]["self"] == pytest.approx(0.005)
    assert times["engine.prepare"]["inclusive"] == pytest.approx(0.010)
    assert times["engine.solve_prepared"]["self"] == pytest.approx(0.005)
    assert times["solver.solve"]["self"] == pytest.approx(0.015)
    assert times["solver.solve"]["inclusive"] == pytest.approx(0.015)
    assert times["solver.solve"]["calls"] == 2


def test_unattributed_is_total_minus_queue_minus_self_times():
    times = layers.layer_times(SPANS)
    # One request: 35 ms total, 2 ms queued, 30 ms inside layers; the
    # request log runs after the response and is not subtracted.
    assert layers.unattributed_ms(35.0, 2.0, times, 1) == pytest.approx(3.0)


def test_summarize_on_synthetic_spans():
    response = SimpleNamespace(total_ms=35.0, queue_ms=2.0, dedup=False)
    record = {"sent": 0.0, "done": 0.050, "response": response}
    out = layers.summarize(SPANS, [record])
    assert out["service.http_ms"] == pytest.approx(15.0)
    assert out["service.unattributed_pct"] == pytest.approx(100 * 3 / 35)
    assert out["engine.prepare_pct"] == pytest.approx(100 * 10 / 35)
    assert out["engine.prepare_other_pct"] == pytest.approx(100 * 5 / 35)
    assert out["engine.dispatch_pct"] == pytest.approx(100 * 5 / 35)
    assert out["solver.units"] == 2 and out["solver.root_closed_ratio"] == 0.5
    assert set(out) | {"trace_overhead_pct"} == {name for name, _ in layers.METRICS}


def test_by_key_assigns_spans_to_the_request_window():
    records = [
        {"sent": 0.0, "done": 0.035, "key": "a"},
        {"sent": 0.039, "done": 0.045, "key": "b"},
    ]
    per_key = layers.by_key(SPANS, records, lambda r: r["key"])
    assert per_key["a"]["engine.prune"] == pytest.approx(3.0)
    assert "obs.request_log" not in per_key.get("b", {})


def test_end_to_end_scales_latency_and_throughput_by_the_host_probe():
    slow = 2 * run.PROBE_REF_MS  # the host ran at half the reference speed
    timed = [
        {"sent": 0.0, "done": 0.1, "probe_ms": slow},
        {"sent": 0.1, "done": 0.5, "probe_ms": slow},
    ]
    measured = run.Pass(setup_s=[1.0, 3.0, 2.0], warm=[], timed=timed, origin=0.0, spans=[])
    assert run.unscaled(measured) == pytest.approx(
        {"latency_gmean_ms": 200.0, "throughput_rps": 4.0, "host_probe_ms": slow}
    )
    assert run.end_to_end(measured) == pytest.approx(
        {"setup_s": 2.0, "latency_gmean_ms": 100.0, "throughput_rps": 8.0}
    )


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/suite"]
    assert spec["command"] == ["python3", "benchmarks/suite/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.COMPARED)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(wl.COMPARED)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
