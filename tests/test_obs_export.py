"""Exporters: JSONL round-trip, Prometheus text, reports, manifests."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    Tracer,
    build_manifest,
    build_metrics,
    global_registry,
    read_jsonl,
    render_registries,
    render_report,
    validate_manifest,
    validate_trace,
    write_manifest,
)
from repro.obs.export import count, phase


def _traced_run(sink=None):
    tracer = Tracer([sink] if sink else [])
    with tracer.span("query", plan="CountStar") as root:
        root.set("rows", 3)
        with tracer.span("solve") as solve:
            solve.set("backend", "bb").set("witness", (1, 0, 1))  # non-JSON type
    return tracer


# -- JSONL --------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    with JsonlSink(path) as sink:
        tracer = _traced_run(sink)
    records = read_jsonl(path)
    assert sink.written == len(records) == 2
    by_name = {r["name"]: r for r in records}
    assert by_name["solve"]["parent_id"] == by_name["query"]["span_id"]
    assert by_name["query"]["attributes"]["rows"] == 3
    # tuples coerced to JSON lists
    assert by_name["solve"]["attributes"]["witness"] == [1, 0, 1]
    assert {r["trace_id"] for r in records} == {tracer.trace_id}
    assert validate_trace(path) == []


def test_validate_trace_catches_malformed(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as handle:
        handle.write(json.dumps({"trace_id": "t", "span_id": "a"}) + "\n")
    assert any("missing keys" in p for p in validate_trace(path))

    empty = str(tmp_path / "empty.jsonl")
    open(empty, "w").close()
    assert validate_trace(empty) == ["trace contains no spans"]

    dangling = str(tmp_path / "dangling.jsonl")
    record = {
        "trace_id": "t",
        "span_id": "a",
        "parent_id": "missing",
        "name": "x",
        "start_unix": 0.0,
        "duration": 0.1,
        "status": "ok",
        "attributes": {},
    }
    with open(dangling, "w") as handle:
        handle.write(json.dumps(record) + "\n")
    assert any("dangling parent" in p for p in validate_trace(dangling))


def _span_line(span_id: str, parent: str = None) -> str:
    return json.dumps(
        {
            "trace_id": "t",
            "span_id": span_id,
            "parent_id": parent,
            "name": f"op-{span_id}",
            "start_unix": 0.0,
            "duration": 0.1,
            "status": "ok",
            "attributes": {},
        }
    )


def test_truncated_trailing_line_is_dropped_and_counted(tmp_path):
    """A writer killed mid-line (crash) leaves a readable trace prefix."""
    from repro.obs import load_jsonl

    path = str(tmp_path / "crashed.jsonl")
    with open(path, "w") as handle:
        handle.write(_span_line("a") + "\n")
        handle.write(_span_line("b") + "\n")
        handle.write('{"trace_id": "t", "span_id": "c", "na')  # torn mid-write
    records, truncated = load_jsonl(path)
    assert [r["span_id"] for r in records] == ["a", "b"]
    assert truncated == 1
    assert [r["span_id"] for r in read_jsonl(path)] == ["a", "b"]
    # validate_trace reads through the same tolerant loader.
    assert validate_trace(path) == []


def test_complete_but_invalid_final_line_raises(tmp_path):
    """A newline-terminated bad last line is a *complete* corrupt record,
    not a torn write — it must raise, not vanish silently."""
    from repro.obs import load_jsonl

    path = str(tmp_path / "bad-tail.jsonl")
    with open(path, "w") as handle:
        handle.write(_span_line("a") + "\n")
        handle.write("{not json}\n")
    with pytest.raises(ValueError, match="corrupt JSONL line"):
        load_jsonl(path)


def test_midfile_corruption_still_raises(tmp_path):
    from repro.obs import load_jsonl

    path = str(tmp_path / "corrupt.jsonl")
    with open(path, "w") as handle:
        handle.write(_span_line("a") + "\n")
        handle.write("{definitely not json}\n")
        handle.write(_span_line("b") + "\n")
    with pytest.raises(ValueError, match="corrupt JSONL line"):
        load_jsonl(path)


def test_truncation_that_loses_a_parent_still_flags_dangling(tmp_path):
    """Tolerating the torn line must not hide the hole it leaves."""
    path = str(tmp_path / "lost-parent.jsonl")
    with open(path, "w") as handle:
        handle.write(_span_line("child", parent="root") + "\n")
        handle.write(_span_line("root")[:20])  # the root span was torn
    problems = validate_trace(path)
    assert any("dangling parent" in p for p in problems)


def test_jsonl_sink_flushes_per_span(tmp_path):
    """Each finished span is readable immediately — no buffering window."""
    path = str(tmp_path / "live.jsonl")
    sink = JsonlSink(path)
    tracer = Tracer([sink], retain=False)
    with tracer.span("first"):
        pass
    # The file is complete *now*, while the sink is still open.
    assert [r["name"] for r in read_jsonl(path)] == ["first"]
    with tracer.span("second"):
        pass
    assert [r["name"] for r in read_jsonl(path)] == ["first", "second"]
    sink.close()


# -- Prometheus text ----------------------------------------------------------


def test_metrics_registry_renders_prometheus_text():
    registry = MetricsRegistry()
    registry.counter("requests_total", "Requests").inc(labels={"query": "Q1"})
    registry.counter("requests_total", "Requests").inc(2, labels={"query": "Q2"})
    registry.gauge("cache_size", "Cache size").set(42)
    hist = registry.histogram("latency_seconds", "Latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    text = registry.render()
    assert "# TYPE repro_requests_total counter" in text
    assert 'repro_requests_total{query="Q1"} 1' in text
    assert 'repro_requests_total{query="Q2"} 2' in text
    assert "# TYPE repro_cache_size gauge" in text
    assert "repro_cache_size 42" in text
    assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
    assert 'repro_latency_seconds_bucket{le="1"} 2' in text
    assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in text
    assert "repro_latency_seconds_count 3" in text


def test_metrics_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("thing", "")
    with pytest.raises(TypeError):
        registry.gauge("thing", "")


def test_build_metrics_from_telemetry_and_tracer(tmp_path):
    count("test.export_hits", 5)
    with phase("test.export_phase"):
        pass
    tracer = _traced_run()
    registry = build_metrics(tracer)
    text = registry.render()
    assert 'repro_spans_total{name="solve"} 1' in text
    assert 'repro_span_duration_seconds_count{name="query"} 1' in text
    # counters and phases live in the process registry only
    assert "repro_counter_total" not in text
    path = str(tmp_path / "metrics.txt")
    registry.write(path)
    assert open(path).read() == text

    both = render_registries((registry, global_registry()))
    assert 'repro_counter_total{name="test.export_hits"} 5' in both
    assert 'repro_phase_seconds_total{phase="test.export_phase"}' in both
    assert 'repro_spans_total{name="solve"} 1' in both


# -- report -------------------------------------------------------------------


def test_render_report_tree_and_table():
    tracer = _traced_run()
    report = render_report(tracer)
    assert tracer.trace_id in report
    lines = report.splitlines()
    query_line = next(line for line in lines if "query" in line and "ms" in line)
    solve_line = next(line for line in lines if "solve" in line and "backend" in line)
    # child indented deeper than parent
    assert solve_line.index("solve") > query_line.index("query")
    assert "span" in report and "count" in report  # aggregate table header


# -- manifest -----------------------------------------------------------------


def test_manifest_build_write_validate(tmp_path):
    before = build_manifest()
    count("solver_nodes", 17)
    count("cache_hits", 2)
    with phase("l_query"):
        pass
    tracer = _traced_run()
    manifest = build_manifest(
        config={"num_transactions": 100},
        tracer=tracer,
        sessions={"km-k2": {"hits": 2, "size": 4}},
        extra={"figure": "demo"},
    )
    assert manifest["solver_nodes"] - before["solver_nodes"] == 17
    assert manifest["counters"]["solver_nodes"] == manifest["solver_nodes"]
    assert manifest["cache"]["hits"] - before["cache"]["hits"] == 2
    assert manifest["cache"]["sessions"]["km-k2"]["size"] == 4
    assert manifest["spans"]["query"]["count"] == 1
    assert manifest["trace_id"] == tracer.trace_id
    assert manifest["figure"] == "demo"
    assert "l_query" in manifest["phase_seconds"]

    path = str(tmp_path / "manifest.json")
    write_manifest(path, manifest)
    assert validate_manifest(path) == []


def test_validate_manifest_catches_missing_keys(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as handle:
        json.dump({"schema_version": 99}, handle)
    problems = validate_manifest(path)
    assert any("missing key" in p for p in problems)
    assert any("schema_version" in p for p in problems)
