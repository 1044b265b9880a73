"""Run manifests: one JSON document describing a traced run.

The manifest is the "why was this run slow" record every figure run can
emit: the experiment configuration, per-phase wall time, the engine
counters (cache hits, solver nodes), per-session solve-cache stats and a
per-span-name summary of the trace.  :func:`validate_trace` /
:func:`validate_manifest` are the well-formedness checks the CI smoke
job runs against the uploaded artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Optional

from repro.obs.export import global_registry, load_jsonl
from repro.obs.tracer import Tracer

__all__ = [
    "build_manifest",
    "validate_manifest",
    "validate_trace",
    "write_manifest",
]

MANIFEST_SCHEMA_VERSION = 1

_REQUIRED_SPAN_KEYS = {
    "trace_id",
    "span_id",
    "parent_id",
    "name",
    "start_unix",
    "duration",
    "status",
    "attributes",
}


def _config_dict(config) -> Optional[dict]:
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        raw = dataclasses.asdict(config)
    elif isinstance(config, dict):
        raw = dict(config)
    else:
        raw = {"repr": repr(config)}
    return json.loads(json.dumps(raw, default=repr))


def _series(counter, label: str) -> dict:
    """``{label value: total}`` of a one-label counter family."""
    with counter._lock:
        return {dict(key)[label]: value for key, value in counter.series.items()}


def _span_summary(tracer: Optional[Tracer]) -> dict:
    if tracer is None or not tracer.enabled:
        return {}
    summary: dict[str, dict] = {}
    for span in list(tracer.spans):
        entry = summary.setdefault(span.name, {"count": 0, "seconds": 0.0, "errors": 0})
        entry["count"] += 1
        if span.duration is not None:
            entry["seconds"] += span.duration
        if span.status == "error":
            entry["errors"] += 1
    for entry in summary.values():
        entry["seconds"] = round(entry["seconds"], 6)
    return summary


def build_manifest(
    config=None,
    tracer: Optional[Tracer] = None,
    sessions: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble the run manifest dict (JSON-serializable).

    ``phase_seconds`` and ``counters`` are this process's totals of the
    ``repro_phase_seconds_total`` / ``repro_counter_total`` families in
    :func:`~repro.obs.export.global_registry`.

    :param config: an :class:`~repro.experiments.config.ExperimentConfig`
        (or any dataclass/dict) describing the workload.
    :param tracer: the run's tracer; summarized per span name.
    :param sessions: mapping of label -> solve-cache ``stats`` dict.
    :param extra: free-form additions (figure name, artifact paths, ...).
    """
    import repro

    registry = global_registry()
    counters = {
        name: int(total)
        for name, total in _series(registry.counter("counter_total"), "name").items()
    }
    phases = _series(registry.counter("phase_seconds_total"), "phase")
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_unix": time.time(),
        "repro_version": getattr(repro, "__version__", "unknown"),
        "trace_id": tracer.trace_id if tracer is not None and tracer.enabled else None,
        "config": _config_dict(config),
        "phase_seconds": {
            name: round(seconds, 6) for name, seconds in sorted(phases.items())
        },
        "counters": counters,
        "solver_nodes": counters.get("solver_nodes", 0),
        "cache": {
            "hits": counters.get("cache_hits", 0),
            "misses": counters.get("cache_misses", 0),
            "invalidations": counters.get("cache_invalidations", 0),
            "sessions": {
                str(label): dict(stats) for label, stats in (sessions or {}).items()
            },
        },
        "spans": _span_summary(tracer),
    }
    if extra:
        manifest.update(json.loads(json.dumps(extra, default=repr)))
    return manifest


def write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def validate_trace(path: str, single_trace: bool = False) -> list[str]:
    """Well-formedness problems of a JSONL trace file ([] when valid).

    A stream may interleave many traces (the query service starts a fresh
    trace id per request); pass ``single_trace=True`` for artifacts that
    must contain exactly one (the ``python -m repro trace`` demo).  In
    either mode a span's parent must exist *and* belong to the same trace.

    A truncated trailing line — the writer crashed mid-span — is
    tolerated, not an error: the readable prefix is validated and the
    dropped-line count is reported via :func:`repro.obs.export.load_jsonl`.
    A span whose *parent* was on the truncated line still surfaces as a
    dangling parent.
    """
    problems: list[str] = []
    try:
        records, _truncated = load_jsonl(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable trace: {exc}"]
    if not records:
        return ["trace contains no spans"]
    trace_ids = {record.get("trace_id") for record in records}
    if single_trace and len(trace_ids) != 1:
        problems.append(f"expected one trace id, found {sorted(map(str, trace_ids))}")
    span_traces: dict = {}
    for index, record in enumerate(records):
        missing = _REQUIRED_SPAN_KEYS - set(record)
        if missing:
            problems.append(f"line {index + 1}: missing keys {sorted(missing)}")
            continue
        if record["span_id"] in span_traces:
            problems.append(f"line {index + 1}: duplicate span id {record['span_id']}")
        span_traces[record["span_id"]] = record.get("trace_id")
        if record["duration"] is not None and record["duration"] < 0:
            problems.append(f"line {index + 1}: negative duration")
    for index, record in enumerate(records):
        parent = record.get("parent_id")
        if parent is None:
            continue
        if parent not in span_traces:
            problems.append(f"line {index + 1}: dangling parent {parent}")
        elif span_traces[parent] != record.get("trace_id"):
            problems.append(
                f"line {index + 1}: parent {parent} belongs to another trace"
            )
    return problems


def validate_manifest(path: str) -> list[str]:
    """Well-formedness problems of a manifest file ([] when valid)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"unreadable manifest: {exc}"]
    problems = []
    for key in ("schema_version", "phase_seconds", "counters", "cache", "spans"):
        if key not in manifest:
            problems.append(f"missing key {key!r}")
    if manifest.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        problems.append(
            f"schema_version {manifest.get('schema_version')!r} != {MANIFEST_SCHEMA_VERSION}"
        )
    if not isinstance(manifest.get("phase_seconds"), dict):
        problems.append("phase_seconds is not a mapping")
    return problems
