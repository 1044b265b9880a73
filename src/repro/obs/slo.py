"""Rolling-window SLOs: availability and latency error budgets.

The service promises two objectives, in classic SRE terms:

* **availability** — the fraction of requests answering with a good
  status (``ok`` and ``degraded`` both count: a degraded answer is a
  kept promise, the deadline contract working as designed).  The
  scheduler records no event for an invalid request, whose ``error``
  is the client's fault;
* **latency** — the fraction of *good* requests finishing within the
  latency target.

Each objective is evaluated over several rolling windows at once and
reported as a **burn rate**: ``error_rate / (1 - target)``, i.e. how
many times faster than "exactly meeting the SLO" the error budget is
being spent.  A breach requires *every* window's burn rate to exceed
its threshold — the standard multi-window alert shape (Google SRE
workbook ch. 5): the short window proves the problem is happening *now*,
the long window proves it is not a blip.  Defaults: a 5-minute window at
14.4× (burning a 30-day budget in ~2 days) and a 1-hour window at 6×.

:class:`SLOTracker` is fed one ``record(status, seconds)`` per finished
request by the scheduler; :meth:`SLOTracker.export` writes the
``repro_slo_*`` gauge families into a scrape registry, and
``/healthz?deep=1`` turns :meth:`SLOTracker.breached` into a 503.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

__all__ = ["SLOConfig", "SLOTracker"]


@dataclass(frozen=True)
class SLOConfig:
    """Targets and window shape for both objectives.

    ``windows_s`` and ``burn_thresholds`` are matched element-wise; the
    defaults are the SRE-workbook fast/slow pair scaled to a service
    whose interesting timescale is minutes, not days.
    """

    availability_target: float = 0.999
    latency_target_ms: float = 1000.0
    latency_objective: float = 0.95
    windows_s: Tuple[float, ...] = (300.0, 3600.0)
    burn_thresholds: Tuple[float, ...] = (14.4, 6.0)
    good_statuses: Tuple[str, ...] = ("ok", "degraded")
    max_events: int = 65536

    def __post_init__(self):
        if len(self.windows_s) != len(self.burn_thresholds):
            raise ValueError(
                "windows_s and burn_thresholds must pair up: "
                f"{self.windows_s} vs {self.burn_thresholds}"
            )
        for target in (self.availability_target, self.latency_objective):
            if not 0.0 < target < 1.0:
                raise ValueError(f"objective targets must be in (0, 1), got {target}")


class SLOTracker:
    """Bounded rolling-window compliance/burn-rate bookkeeping.

    One ``(timestamp, available, fast)`` tuple per finished request,
    kept in a deque bounded both by count (``max_events``) and by age
    (events older than the longest window are evicted on write).  All
    reads go through :meth:`snapshot`, which is what ``/metrics``,
    ``/v1/status`` and deep health consume.  ``clock`` is injectable for
    deterministic tests.
    """

    def __init__(
        self,
        config: Optional[SLOConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or SLOConfig()
        self._clock = clock
        self._events: deque = deque(maxlen=self.config.max_events)
        self._lock = threading.Lock()
        self.total = 0

    def record(self, status: str, total_s: float) -> None:
        """Account one finished request (any terminal status)."""
        available = status in self.config.good_statuses
        fast = available and total_s * 1000.0 <= self.config.latency_target_ms
        now = self._clock()
        horizon = now - max(self.config.windows_s)
        with self._lock:
            self._events.append((now, available, fast))
            self.total += 1
            while self._events and self._events[0][0] < horizon:
                self._events.popleft()

    def snapshot(self) -> dict:
        """Per-window compliance, burn rates, and the breach verdict."""
        config = self.config
        now = self._clock()
        with self._lock:
            events = list(self._events)
            total = self.total
        windows = []
        avail_breaches, latency_breaches = [], []
        for window_s, threshold in zip(config.windows_s, config.burn_thresholds):
            cutoff = now - window_s
            sample = [event for event in events if event[0] >= cutoff]
            count = len(sample)
            good = sum(1 for event in sample if event[1])
            fast = sum(1 for event in sample if event[2])
            # An empty window is compliant: no traffic burns no budget.
            availability = good / count if count else 1.0
            latency_ratio = fast / good if good else 1.0
            avail_burn = (1.0 - availability) / (1.0 - config.availability_target)
            latency_burn = (1.0 - latency_ratio) / (1.0 - config.latency_objective)
            avail_breaches.append(count > 0 and avail_burn >= threshold)
            latency_breaches.append(good > 0 and latency_burn >= threshold)
            windows.append(
                {
                    "window_s": window_s,
                    "burn_threshold": threshold,
                    "requests": count,
                    "availability": availability,
                    "availability_burn_rate": avail_burn,
                    "latency_ratio": latency_ratio,
                    "latency_burn_rate": latency_burn,
                }
            )
        breached = {
            "availability": bool(avail_breaches) and all(avail_breaches),
            "latency": bool(latency_breaches) and all(latency_breaches),
        }
        breached["any"] = breached["availability"] or breached["latency"]
        return {
            "targets": {
                "availability": config.availability_target,
                "latency": config.latency_objective,
                "latency_target_ms": config.latency_target_ms,
            },
            "total_requests": total,
            "windows": windows,
            "breached": breached,
        }

    def breached(self) -> bool:
        """True when any objective burns too fast in *every* window."""
        return self.snapshot()["breached"]["any"]

    def export(self, registry) -> dict:
        """Write the ``repro_slo_*`` gauges into a scrape registry.

        Computed at scrape time (the tracker holds raw events, not
        gauges), so a scrape always reflects the current windows.
        Returns the snapshot it rendered, for callers that also want
        the dict view.
        """
        snap = self.snapshot()
        target = registry.gauge(
            "slo_target_ratio", "Configured objective target, as a ratio"
        )
        target.set(snap["targets"]["availability"], labels={"objective": "availability"})
        target.set(snap["targets"]["latency"], labels={"objective": "latency"})
        ratio = registry.gauge(
            "slo_objective_ratio", "Rolling-window compliance ratio per objective"
        )
        burn = registry.gauge(
            "slo_burn_rate",
            "Error-budget burn rate per objective and window (1.0 = spending "
            "budget exactly at the sustainable rate)",
        )
        for window in snap["windows"]:
            label = f"{int(window['window_s'])}s"
            ratio.set(
                window["availability"],
                labels={"objective": "availability", "window": label},
            )
            ratio.set(
                window["latency_ratio"],
                labels={"objective": "latency", "window": label},
            )
            burn.set(
                window["availability_burn_rate"],
                labels={"objective": "availability", "window": label},
            )
            burn.set(
                window["latency_burn_rate"],
                labels={"objective": "latency", "window": label},
            )
        breach = registry.gauge(
            "slo_breach",
            "1 when an objective's burn rate exceeds its threshold in every window",
        )
        breach.set(
            float(snap["breached"]["availability"]), labels={"objective": "availability"}
        )
        breach.set(float(snap["breached"]["latency"]), labels={"objective": "latency"})
        return snap
