"""Picklable cooperative cancellation for cross-process solves.

The solver's original cancellation hook — ``SolverOptions.stop_check``,
a zero-argument closure — cannot cross a process boundary: closures do
not pickle, and even if they did, a deadline lambda evaluated in a
worker would close over the *parent's* clock state.  Two picklable
replacements cover the service's needs:

* an **absolute deadline** (``SolverOptions.deadline_at``, a
  ``time.monotonic()`` instant).  On Linux ``CLOCK_MONOTONIC`` is
  system-wide, so the same float means the same instant in a forked
  worker;
* a :class:`CancelToken` — a frozen ``(scope, slot)`` handle resolving
  to a ``multiprocessing.Event`` through the module-level registry
  below.  The events themselves cannot be pickled into pool task
  arguments ("should only be shared through inheritance"), so the
  process fabric creates its scope *before* the pool forks: children
  inherit the registry, and only the tiny token travels with each task.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List

_SCOPES: Dict[str, List] = {}
_SCOPES_LOCK = threading.Lock()


def create_scope(scope: str, size: int, factory: Callable = threading.Event) -> None:
    """Register ``size`` cancellation events under ``scope``.

    ``factory`` builds each event — a fork context's ``Event`` for the
    process fabric, ``threading.Event`` by default.  Must be
    called **before** the worker pool forks so children inherit the
    events; calling it again for an existing scope is an error (the
    forked children would not see the replacement).
    """
    with _SCOPES_LOCK:
        if scope in _SCOPES:
            raise ValueError(f"cancellation scope {scope!r} already exists")
        _SCOPES[scope] = [factory() for _ in range(max(1, int(size)))]


def drop_scope(scope: str) -> None:
    """Forget a scope's events (idempotent; fabric shutdown)."""
    with _SCOPES_LOCK:
        _SCOPES.pop(scope, None)


@dataclass(frozen=True)
class CancelToken:
    """A picklable handle to one shared cancellation event.

    ``is_set()`` in a forked worker reads the same event the parent's
    ``set()`` wrote.  A token whose scope is unknown in this process
    (e.g. deserialized somewhere the fabric never initialised) reports
    *not cancelled* rather than raising: cancellation is cooperative
    and best-effort by design, and the absolute deadline still applies.
    """

    scope: str
    slot: int

    def _event(self):
        with _SCOPES_LOCK:
            events = _SCOPES.get(self.scope)
        if not events:
            return None
        return events[self.slot % len(events)]

    def is_set(self) -> bool:
        event = self._event()
        return event.is_set() if event is not None else False

    def set(self) -> None:
        event = self._event()
        if event is not None:
            event.set()
