"""Trace/metric exporters: JSONL traces, Prometheus text, human reports.

Three ways out of a traced run:

* :class:`JsonlSink` — streams every finished span as one JSON line
  (attach it to a :class:`~repro.obs.tracer.Tracer`); the file is the
  machine-readable trace the CI smoke run validates.
* :class:`MetricsRegistry` — counters/gauges/histograms rendered in the
  Prometheus text exposition format (``metrics.txt``);
  :func:`build_metrics` populates one from a tracer's spans.  The
  process-wide :func:`global_registry` also carries the engine's
  counters and phase timings, recorded through :func:`count` and
  :func:`phase`.
* :func:`render_report` — the human view: a span tree plus a per-name
  aggregate table, printed by ``python -m repro trace``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from typing import IO, Iterable, Iterator, Optional, Union

from repro.obs.tracer import Span, Stopwatch, Tracer, iter_tree

__all__ = [
    "DURATION_BUCKETS",
    "ESTIMATOR_BUCKETS",
    "JsonlSink",
    "MetricsRegistry",
    "OPENMETRICS_CONTENT_TYPE",
    "TEXT_CONTENT_TYPE",
    "build_metrics",
    "count",
    "global_registry",
    "load_jsonl",
    "phase",
    "read_jsonl",
    "render_registries",
    "render_report",
]

#: Content types for the two supported expositions.  Exemplars are not
#: legal in the 0.0.4 text format — they render only under
#: ``application/openmetrics-text`` (see :meth:`MetricsRegistry.render`).
TEXT_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"


def _jsonable(value):
    """Coerce arbitrary span attribute values into JSON-safe ones."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


class JsonlSink:
    """Streams finished spans to a JSONL file, one span per line.

    Usable as a tracer sink and as a context manager; ``close()`` is
    idempotent.  Lines are flushed as written so a crashed run still
    leaves a readable prefix.
    """

    def __init__(self, target: Union[str, IO[str]]):
        self.path: Optional[str] = None
        if isinstance(target, str):
            self.path = target
            self._file: Optional[IO[str]] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._file = target
            self._owns = False
        self._lock = threading.Lock()
        self.written = 0

    def __call__(self, span: Span) -> None:
        record = span.to_dict()
        record["attributes"] = _jsonable(record.get("attributes", {}))
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._file is None:
                return
            self._file.write(line + "\n")
            self._file.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._file is not None and self._owns:
                self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_jsonl(path: str) -> tuple[list[dict], int]:
    """Parse a JSONL trace; returns ``(records, truncated_lines)``.

    A writer killed mid-line (the crash the per-span flush is designed
    for) leaves one partial final line **without** a trailing newline:
    that line is dropped and counted instead of raising, so a crashed
    run's trace stays readable.  A malformed line that *is*
    newline-terminated was written completely and is real corruption —
    it raises ``ValueError`` wherever it sits, including at the end.
    """
    records: list[dict] = []
    truncated = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            text = line.strip()
            if not text:
                continue
            try:
                records.append(json.loads(text))
            except ValueError as exc:
                if line.endswith("\n"):
                    raise ValueError(f"corrupt JSONL line: {exc}") from exc
                truncated += 1  # unterminated ⇒ the torn final write
    return records, truncated


def read_jsonl(path: str) -> list[dict]:
    """Parse a JSONL trace back into a list of span dicts.

    Tolerates a truncated trailing line (see :func:`load_jsonl`, which
    also reports how many lines were dropped).
    """
    records, _ = load_jsonl(path)
    return records


# -- Prometheus-text metrics -------------------------------------------------

#: default histogram buckets for span durations, in seconds
DURATION_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: finer buckets for the estimator tiers, whose closed-form passes finish
#: in microseconds — DURATION_BUCKETS would dump them all into the first
#: bucket and hide the per-tier latency ladder the /metrics scrape exists
#: to show
ESTIMATOR_BUCKETS = (
    0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0
)


def _labels_key(labels: Optional[dict]) -> tuple:
    return tuple(sorted((labels or {}).items()))


def _format_labels(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
    return "{" + inner + "}"


def _escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Instrument:
    kind = ""

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self.series: dict[tuple, float] = {}
        # Long-lived instruments (the scheduler's latency histograms) are
        # hit from every worker thread; a per-instrument lock keeps
        # observations and renders consistent.
        self._lock = threading.Lock()

    def _family_name(self, openmetrics: bool) -> str:
        return self.name

    def _sample_name(self, openmetrics: bool) -> str:
        return self.name

    def render(self, openmetrics: bool = False) -> list[str]:
        family = self._family_name(openmetrics)
        sample = self._sample_name(openmetrics)
        lines = [f"# HELP {family} {self.help}", f"# TYPE {family} {self.kind}"]
        with self._lock:
            series = dict(self.series)
        for key in sorted(series):
            lines.append(
                f"{sample}{_format_labels(key)} {_format_value(series[key])}"
            )
        return lines


class Counter(_Instrument):
    kind = "counter"

    # OpenMetrics names a counter *family* without the mandatory
    # ``_total`` sample suffix (family ``foo``, samples ``foo_total``);
    # the 0.0.4 text format has no such distinction.
    def _family_name(self, openmetrics: bool) -> str:
        if openmetrics and self.name.endswith("_total"):
            return self.name[: -len("_total")]
        return self.name

    def _sample_name(self, openmetrics: bool) -> str:
        if openmetrics and not self.name.endswith("_total"):
            return self.name + "_total"
        return self.name

    def inc(self, value: float = 1, labels: Optional[dict] = None) -> None:
        key = _labels_key(labels)
        with self._lock:
            self.series[key] = self.series.get(key, 0) + value


class Gauge(_Instrument):
    kind = "gauge"

    def set(self, value: float, labels: Optional[dict] = None) -> None:
        with self._lock:
            self.series[_labels_key(labels)] = float(value)


class Exemplar:
    """One traced observation pinned to a histogram bucket.

    Rendered in OpenMetrics exemplar syntax —
    ``... # {trace_id="abc"} 0.23 1690000000.5`` — so a p99 bucket in a
    scrape links directly to the JSONL trace of a request that landed in
    it.  Each bucket keeps its most recent exemplar.
    """

    __slots__ = ("labels", "value", "timestamp")

    def __init__(self, labels: dict, value: float, timestamp: Optional[float] = None):
        self.labels = dict(labels)
        self.value = float(value)
        self.timestamp = time.time() if timestamp is None else float(timestamp)

    def render(self) -> str:
        inner = ",".join(
            f'{name}="{_escape(val)}"' for name, val in sorted(self.labels.items())
        )
        return f"# {{{inner}}} {_format_value(self.value)} {self.timestamp:.3f}"


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(self, name: str, help_text: str, buckets=DURATION_BUCKETS):
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(buckets))
        self._data: dict[tuple, dict] = {}

    def observe(
        self,
        value: float,
        labels: Optional[dict] = None,
        exemplar: Optional[dict] = None,
    ) -> None:
        """Record one observation.

        ``exemplar`` (e.g. ``{"trace_id": span.trace_id}``) is attached to
        the one bucket the value lands in — the first bucket whose upper
        bound contains it, or ``+Inf`` past the last — replacing that
        bucket's previous exemplar.
        """
        key = _labels_key(labels)
        landing = len(self.buckets)  # +Inf by default
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                landing = index
                break
        with self._lock:
            data = self._data.get(key)
            if data is None:
                data = self._data[key] = {
                    "counts": [0] * len(self.buckets),
                    "sum": 0.0,
                    "count": 0,
                    "exemplars": {},
                }
            for index in range(landing, len(self.buckets)):
                data["counts"][index] += 1
            data["sum"] += value
            data["count"] += 1
            if exemplar:
                data["exemplars"][landing] = Exemplar(exemplar, value)

    def render(self, openmetrics: bool = False) -> list[str]:
        """Exposition lines; exemplars render only when ``openmetrics``.

        Exemplars are OpenMetrics syntax — a 0.0.4 ``text/plain`` scrape
        containing them fails to parse in real Prometheus, so the plain
        render must stay exemplar-free.
        """
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        with self._lock:
            snapshot = {
                key: {
                    "counts": list(data["counts"]),
                    "sum": data["sum"],
                    "count": data["count"],
                    "exemplars": dict(data["exemplars"]),
                }
                for key, data in self._data.items()
            }
        for key in sorted(snapshot):
            data = snapshot[key]

            def _line(index: int, bound_text: str, count: int) -> str:
                bucket_key = key + (("le", bound_text),)  # noqa: B023 — key is loop-stable here
                text = f"{self.name}_bucket{_format_labels(bucket_key)} {count}"
                mark = data["exemplars"].get(index) if openmetrics else None  # noqa: B023
                return f"{text} {mark.render()}" if mark is not None else text

            for index, (bound, count) in enumerate(zip(self.buckets, data["counts"])):
                lines.append(_line(index, _format_value(bound), count))
            lines.append(_line(len(self.buckets), "+Inf", data["count"]))
            lines.append(f"{self.name}_sum{_format_labels(key)} {_format_value(data['sum'])}")
            lines.append(f"{self.name}_count{_format_labels(key)} {data['count']}")
        return lines


class MetricsRegistry:
    """A tiny dependency-free Prometheus-text metrics registry.

    ``counter``/``gauge``/``histogram`` get-or-create instruments by name;
    ``render()`` produces the exposition text and ``write(path)`` the
    ``metrics.txt`` the experiment harness ships with every traced run.
    """

    def __init__(self, prefix: str = "repro"):
        self.prefix = prefix
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()
        # Per-instrument state as of the last snapshot_delta(), keyed by
        # full instrument name — what makes deltas *deltas*.
        self._baselines: dict[str, dict] = {}

    def _get(self, cls, name: str, help_text: str, **kwargs):
        full = f"{self.prefix}_{name}" if self.prefix else name
        with self._lock:
            instrument = self._instruments.get(full)
            if instrument is None:
                instrument = cls(full, help_text, **kwargs)
                self._instruments[full] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {full!r} already registered as {instrument.kind}"
                )
            return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "", buckets=DURATION_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help_text, buckets=buckets)

    # -- cross-process repatriation: delta snapshots ----------------------

    def snapshot_delta(self) -> dict:
        """Everything observed since the previous ``snapshot_delta()``.

        Returns a plain picklable dict (counters, gauges, histogram
        bucket counts, and exemplars newer than the baseline) and
        advances the baseline, so successive calls never double-report.
        A forked solve worker calls this once at startup to discard the
        state inherited from its parent, then once per solve unit; the
        parent replays each delta with :meth:`merge_delta`.
        """
        with self._lock:
            instruments = sorted(self._instruments.items())
        delta: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, instrument in instruments:
            if isinstance(instrument, Histogram):
                self._histogram_delta(delta["histograms"], name, instrument)
            elif isinstance(instrument, Counter):
                self._scalar_delta(delta["counters"], name, instrument, diff=True)
            elif isinstance(instrument, Gauge):
                self._scalar_delta(delta["gauges"], name, instrument, diff=False)
        return delta

    def _scalar_delta(self, out: dict, name: str, instrument, diff: bool) -> None:
        with instrument._lock:
            current = dict(instrument.series)
        baseline = self._baselines.get(name, {})
        series = {}
        for key, value in current.items():
            previous = baseline.get(key)
            if diff:
                changed = value - (previous or 0)
                if changed:
                    series[key] = changed
            elif previous is None or previous != value:
                series[key] = value  # gauges carry last-value, not a sum
        self._baselines[name] = current
        if series:
            out[name] = {"help": instrument.help, "series": series}

    def _histogram_delta(self, out: dict, name: str, instrument: "Histogram") -> None:
        with instrument._lock:
            current = {
                key: {
                    "counts": list(data["counts"]),
                    "sum": data["sum"],
                    "count": data["count"],
                    "exemplars": dict(data["exemplars"]),
                }
                for key, data in instrument._data.items()
            }
        baseline = self._baselines.get(name, {})
        series = {}
        for key, data in current.items():
            base = baseline.get(key) or {
                "counts": [0] * len(instrument.buckets),
                "sum": 0.0,
                "count": 0,
                "exemplar_ts": {},
            }
            count = data["count"] - base["count"]
            if not count:
                continue
            exemplars = {
                index: (mark.labels, mark.value, mark.timestamp)
                for index, mark in data["exemplars"].items()
                if mark.timestamp > base["exemplar_ts"].get(index, -math.inf)
            }
            series[key] = {
                "counts": [
                    now - then for now, then in zip(data["counts"], base["counts"])
                ],
                "sum": data["sum"] - base["sum"],
                "count": count,
                "exemplars": exemplars,
            }
        self._baselines[name] = {
            key: {
                "counts": data["counts"],
                "sum": data["sum"],
                "count": data["count"],
                "exemplar_ts": {
                    index: mark.timestamp
                    for index, mark in data["exemplars"].items()
                },
            }
            for key, data in current.items()
        }
        if series:
            out[name] = {
                "help": instrument.help,
                "buckets": instrument.buckets,
                "series": series,
            }

    def _adopt(self, cls, full_name: str, help_text: str, **kwargs):
        """Get-or-create by *full* name (deltas carry prefixed names)."""
        with self._lock:
            instrument = self._instruments.get(full_name)
            if instrument is None:
                instrument = cls(full_name, help_text, **kwargs)
                self._instruments[full_name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {full_name!r} already registered as {instrument.kind}"
                )
            return instrument

    def merge_delta(self, delta: dict) -> None:
        """Replay a :meth:`snapshot_delta` into this registry.

        Counters add, gauges take the shipped last value, histogram
        buckets add element-wise (bucket layouts must match — merging a
        worker built against different buckets raises ``ValueError``),
        and each bucket keeps its newest exemplar by timestamp, so a
        repatriated exemplar never clobbers a fresher local one.
        """
        for name, family in (delta.get("counters") or {}).items():
            instrument = self._adopt(Counter, name, family["help"])
            with instrument._lock:
                for key, value in family["series"].items():
                    instrument.series[key] = instrument.series.get(key, 0) + value
        for name, family in (delta.get("gauges") or {}).items():
            instrument = self._adopt(Gauge, name, family["help"])
            with instrument._lock:
                for key, value in family["series"].items():
                    instrument.series[key] = float(value)
        for name, family in (delta.get("histograms") or {}).items():
            buckets = tuple(family["buckets"])
            instrument = self._adopt(
                Histogram, name, family["help"], buckets=buckets
            )
            if instrument.buckets != buckets:
                raise ValueError(
                    f"histogram {name!r} bucket mismatch: "
                    f"{instrument.buckets} != {buckets}"
                )
            for key, shipped in family["series"].items():
                with instrument._lock:
                    data = instrument._data.get(key)
                    if data is None:
                        data = instrument._data[key] = {
                            "counts": [0] * len(buckets),
                            "sum": 0.0,
                            "count": 0,
                            "exemplars": {},
                        }
                    for index, value in enumerate(shipped["counts"]):
                        data["counts"][index] += value
                    data["sum"] += shipped["sum"]
                    data["count"] += shipped["count"]
                    for index, (labels, value, stamp) in shipped["exemplars"].items():
                        known = data["exemplars"].get(index)
                        if known is None or stamp >= known.timestamp:
                            data["exemplars"][index] = Exemplar(
                                labels, value, timestamp=stamp
                            )

    def _render_lines(self, openmetrics: bool) -> list[str]:
        with self._lock:
            instruments = [self._instruments[name] for name in sorted(self._instruments)]
        lines: list[str] = []
        for instrument in instruments:
            lines.extend(instrument.render(openmetrics))
        return lines

    def render(self, fmt: str = "text") -> str:
        """One exposition of every instrument.

        * ``fmt="text"`` — Prometheus text 0.0.4.  **No exemplars**:
          they are not legal in that format and break real scrapers.
        * ``fmt="openmetrics"`` — OpenMetrics 1.0: histogram buckets
          carry exemplars, counter families drop the ``_total`` sample
          suffix, and the exposition ends with the mandatory ``# EOF``.
        """
        openmetrics = _check_fmt(fmt)
        lines = self._render_lines(openmetrics)
        if openmetrics:
            lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render())


def _check_fmt(fmt: str) -> bool:
    if fmt not in ("text", "openmetrics"):
        raise ValueError(f"fmt must be 'text' or 'openmetrics', got {fmt!r}")
    return fmt == "openmetrics"


def render_registries(registries, fmt: str = "text") -> str:
    """Concatenate several registries into one exposition.

    Metric names must be disjoint across the registries (they are: the
    service snapshot, the scheduler's histograms and the process-global
    engine registry use distinct families).  In OpenMetrics mode the
    single ``# EOF`` terminator lands once, at the very end — which is
    why the service cannot just concatenate per-registry ``render()``.
    """
    openmetrics = _check_fmt(fmt)
    lines: list[str] = []
    for registry in registries:
        lines.extend(registry._render_lines(openmetrics))
    if openmetrics:
        lines.append("# EOF")
    return "\n".join(lines) + "\n"


#: the always-on process registry instrumented layers observe into (the
#: engine's counters, phase timings and solve-wall histogram, the
#: branch-and-bound nodes/prunes histograms).  The service's ``/metrics``
#: renders it after its own families; standalone runs write it into
#: ``metrics.txt`` next to the span families of :func:`build_metrics`.
_GLOBAL_REGISTRY = MetricsRegistry()

# Registered up front so both families appear in every exposition, even
# before the first query.
_COUNTERS = _GLOBAL_REGISTRY.counter(
    "counter_total", "Engine counters (cache hits, solver nodes, ...)"
)
_PHASE_SECONDS = _GLOBAL_REGISTRY.counter(
    "phase_seconds_total", "Accumulated pipeline phase wall time"
)


def global_registry() -> MetricsRegistry:
    """The process-wide registry for always-on engine/solver metrics."""
    return _GLOBAL_REGISTRY


def count(name: str, delta: float = 1) -> None:
    """Add ``delta`` to ``repro_counter_total{name=...}``."""
    _COUNTERS.inc(delta, labels={"name": name})


@contextmanager
def phase(name: str) -> Iterator[Stopwatch]:
    """Time a block into ``repro_phase_seconds_total{phase=...}``.

    Yields the running :class:`~repro.obs.tracer.Stopwatch`, so callers
    that also need the block's own wall time read ``clock.elapsed``.
    """
    clock = Stopwatch()
    try:
        yield clock
    finally:
        _PHASE_SECONDS.inc(clock.stop(), labels={"phase": name})


def build_metrics(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Populate a registry from a run's span tree.

    Produces ``repro_span_duration_seconds{name=...}`` — a histogram over
    span durations — plus ``repro_spans_total{name=...}``.  The counter
    and phase families live in :func:`global_registry`; a traced run
    writes both registries with :func:`render_registries`.
    """
    registry = registry or MetricsRegistry()
    if tracer is not None and tracer.enabled:
        spans = registry.counter("spans_total", "Finished spans per span name")
        durations = registry.histogram(
            "span_duration_seconds", "Span durations per span name"
        )
        for span in list(tracer.spans):
            spans.inc(labels={"name": span.name})
            if span.duration is not None:
                durations.observe(span.duration, labels={"name": span.name})
    return registry


# -- human report ------------------------------------------------------------


def _format_attrs(span: Span, limit: int = 5) -> str:
    parts = []
    for key, value in span.attributes.items():
        if isinstance(value, list):
            value = f"[{len(value)} events]"
        elif isinstance(value, float):
            value = f"{value:.4g}"
        parts.append(f"{key}={value}")
        if len(parts) >= limit:
            parts.append("…")
            break
    return " ".join(parts)


def render_report(tracer: Tracer, max_depth: int = 12) -> str:
    """A human tree + aggregate table of one trace (for terminals/docs)."""
    lines = [f"trace {tracer.trace_id} — {len(tracer)} spans"]
    lines.append("")
    for depth, span in iter_tree(tracer):
        if depth > max_depth:
            continue
        took = f"{span.duration * 1e3:8.2f}ms" if span.duration is not None else "    open"
        indent = "  " * depth
        attrs = _format_attrs(span)
        lines.append(f"{took}  {indent}{span.name}" + (f"  [{attrs}]" if attrs else ""))
    lines.append("")
    lines.append(_aggregate_table(tracer.spans))
    return "\n".join(lines)


def _aggregate_table(spans: Iterable[Span]) -> str:
    totals: dict[str, list] = {}
    for span in spans:
        entry = totals.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        if span.duration is not None:
            entry[1] += span.duration
            entry[2] = max(entry[2], span.duration)
    headers = ("span", "count", "total_ms", "max_ms")
    rows = [
        (name, str(count), f"{total * 1e3:.2f}", f"{worst * 1e3:.2f}")
        for name, (count, total, worst) in sorted(
            totals.items(), key=lambda item: -item[1][1]
        )
    ]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    out = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)
