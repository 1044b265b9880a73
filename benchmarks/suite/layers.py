"""Per-layer metrics from the spans ``traced_serve.py`` records.

A layer's *self* time is its span's duration minus the time its child
spans cover; children run on the parent's thread and nest inside it, so
that is the duration minus the sum of the children's durations.  The
self times of all layers that run inside a request, plus the time the
request waited in the admission queue, account for the server's
``total_ms``; what is left is ``service.unattributed``.  ``wide_event``
runs after the response is handed back, outside ``total_ms``, so it is
reported but not subtracted.

Layer times are reported as a share (%) of the mean server ``total_ms``
per request.  Some layers never run on some workloads (no estimator on
``dashboard``, no MIN/MAX outside it), and a share of 0 says that
without posing as a measured time.  ``engine.prepare``,
``engine.solve_prepared``, ``estimator.answer`` and ``solver.solve`` are
inclusive of the layers below them; ``engine.prepare_other`` and
``engine.dispatch`` are the self parts of the first two.  ``python.gc``
is the garbage collector, wherever a collection interrupts a request.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict

#: layers whose reported share is inclusive of nested layers
INCLUSIVE = ("engine.prepare", "engine.solve_prepared", "estimator.answer", "solver.solve")
#: layers reported by their self time
SELF = (
    "queries.plan_build",
    "queries.licm_eval",
    "core.minmax_bounds",
    "engine.prune",
    "engine.from_licm",
    "engine.canonicalize",
    "engine.split_blocks",
    "estimator.structural",
    "estimator.entropy",
    "estimator.lp",
    "mc.fallback",
    "obs.request_log",
    "python.gc",
)
#: runs after the response is delivered (outside total_ms)
OUTSIDE_REQUEST = ("obs.request_log",)

#: every per-layer metric and its unit, in report order
METRICS = (
    ("service.total_ms", "ms"),
    ("service.queue_ms", "ms"),
    ("service.http_ms", "ms"),
    ("service.unattributed_ms", "ms"),
    ("service.unattributed_pct", "%"),
    ("service.dedup_ratio", "ratio"),
    ("queries.plan_build_pct", "%"),
    ("queries.licm_eval_pct", "%"),
    ("queries.licm_eval_calls", "count"),
    ("core.minmax_bounds_pct", "%"),
    ("engine.prepare_pct", "%"),
    ("engine.prune_pct", "%"),
    ("engine.from_licm_pct", "%"),
    ("engine.canonicalize_pct", "%"),
    ("engine.split_blocks_pct", "%"),
    ("engine.prepare_other_pct", "%"),
    ("engine.components", "count"),
    ("engine.solve_prepared_pct", "%"),
    ("engine.dispatch_pct", "%"),
    ("engine.l1_gets", "count"),
    ("engine.l1_hit_ratio", "ratio"),
    ("solver.solve_pct", "%"),
    ("solver.units", "count"),
    ("solver.nodes", "count"),
    ("solver.root_closed_ratio", "ratio"),
    ("estimator.answer_pct", "%"),
    ("estimator.structural_pct", "%"),
    ("estimator.entropy_pct", "%"),
    ("estimator.lp_pct", "%"),
    ("estimator.escalation_ratio", "ratio"),
    ("mc.fallback_pct", "%"),
    ("mc.fallback_calls", "count"),
    ("obs.request_log_pct", "%"),
    ("python.gc_pct", "%"),
    ("python.gc_full_collections", "count"),
    ("trace_overhead_pct", "%"),
)


def load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def layer_times(spans: list) -> dict:
    """Per layer: ``self`` and ``inclusive`` seconds and ``calls``.

    Inclusive time counts only outermost occurrences, so a layer nested
    inside itself is not counted twice.
    """
    by_id = {span["id"]: span for span in spans}
    children = defaultdict(float)
    for span in spans:
        if span["parent"] in by_id:
            children[span["parent"]] += span["end"] - span["start"]
    out = defaultdict(lambda: {"self": 0.0, "inclusive": 0.0, "calls": 0})
    for span in spans:
        duration = span["end"] - span["start"]
        entry = out[span["layer"]]
        entry["calls"] += 1
        entry["self"] += duration - children[span["id"]]
        parent = by_id.get(span["parent"])
        while parent is not None and parent["layer"] != span["layer"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            entry["inclusive"] += duration
    return out


def unattributed_ms(total_ms: float, queue_ms: float, times: dict, n: int) -> float:
    """Mean server time per request not covered by queueing or a layer."""
    attributed = sum(
        entry["self"] for layer, entry in times.items() if layer not in OUTSIDE_REQUEST
    )
    return total_ms - queue_ms - attributed * 1e3 / n


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(spans: list, records: list) -> dict:
    """Per-layer metrics (``METRICS`` minus ``trace_overhead_pct``) for the
    timed requests ``records`` (each with ``sent``, ``done`` and a
    ``response``), given the spans of the same window."""
    n = len(records)
    responses = [r["response"] for r in records]
    total = _mean(resp.total_ms for resp in responses)
    queue = _mean(resp.queue_ms for resp in responses)
    times = layer_times(spans)

    def pct(layer: str, kind: str) -> float:
        return _ratio(100.0 * times[layer][kind] * 1e3 / n, total)

    out = {
        "service.total_ms": total,
        "service.queue_ms": queue,
        "service.http_ms": _mean(
            (r["done"] - r["sent"]) * 1e3 - r["response"].total_ms for r in records
        ),
        "service.unattributed_ms": unattributed_ms(total, queue, times, n),
        "service.dedup_ratio": _ratio(sum(resp.dedup for resp in responses), n),
        "queries.licm_eval_calls": times["queries.licm_eval"]["calls"] / n,
        "engine.prepare_other_pct": pct("engine.prepare", "self"),
        "engine.components": _ratio(
            sum(s["attrs"].get("blocks", 0) for s in spans if s["layer"] == "engine.split_blocks"),
            times["engine.prepare"]["calls"],
        ),
        "engine.dispatch_pct": pct("engine.solve_prepared", "self"),
        "engine.l1_gets": times["engine.l1_get"]["calls"] / n,
        "engine.l1_hit_ratio": _ratio(
            sum(1 for s in spans if s["attrs"].get("hit")), times["engine.l1_get"]["calls"]
        ),
        "solver.units": times["solver.solve"]["calls"] / n,
        "solver.nodes": sum(s["attrs"].get("nodes", 0) for s in spans if s["layer"] == "solver.solve") / n,
        "solver.root_closed_ratio": _ratio(
            sum(1 for s in spans if s["layer"] == "solver.solve" and s["attrs"]["nodes"] <= 1),
            times["solver.solve"]["calls"],
        ),
        "estimator.escalation_ratio": _ratio(
            sum(s["attrs"]["escalations"] for s in spans if s["layer"] == "estimator.answer"),
            sum(s["attrs"]["components"] for s in spans if s["layer"] == "estimator.answer"),
        ),
        "mc.fallback_calls": times["mc.fallback"]["calls"] / n,
        "python.gc_full_collections": sum(
            1 for s in spans if s["layer"] == "python.gc" and s["attrs"]["generation"] == 2
        ) / n,
    }
    out["service.unattributed_pct"] = _ratio(100.0 * out["service.unattributed_ms"], total)
    for layer in INCLUSIVE:
        out[f"{layer}_pct"] = pct(layer, "inclusive")
    for layer in SELF:
        out[f"{layer}_pct"] = pct(layer, "self")
    return out


def by_key(spans: list, records: list, key_of) -> dict:
    """Mean self ms per layer for each request key (closed loop only:
    a span belongs to the request whose send..done window it starts in)."""
    windows = sorted((r["sent"], r["done"], key_of(r)) for r in records)
    starts = [window[0] for window in windows]
    counts = defaultdict(int)
    for _, _, key in windows:
        counts[key] += 1
    owned = defaultdict(list)
    for span in spans:
        i = bisect.bisect_right(starts, span["start"]) - 1
        if i >= 0 and span["start"] < windows[i][1]:
            owned[windows[i][2]].append(span)
    return {
        key: {
            layer: entry["self"] * 1e3 / counts[key]
            for layer, entry in layer_times(own).items()
            if layer not in OUTSIDE_REQUEST
        }
        for key, own in owned.items()
    }
