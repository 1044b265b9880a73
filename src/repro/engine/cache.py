"""Bounded LRU cache of BIP solve outcomes.

Entries are keyed by ``(canonical fingerprint, sense)`` and store the
solution *in canonical variable order*, so a hit coming from a
structurally identical but differently-indexed repeat query can be
translated back through that query's own :class:`~repro.engine.canonical.CanonicalBIP`.

The cache is self-validating: the fingerprint is computed from the
*pruned* problem on every lookup, so any store mutation that actually
changes a problem changes its fingerprint and misses naturally.  The
session layer additionally clears the cache outright when non-lineage
constraints are added (see ``SolveSession._ensure_fresh``).

The LRU itself (:class:`LRUCache`) is value-agnostic; the session also
uses it, sized from the same ``cache_size``, for its prepared-problem memo.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple


@dataclass(frozen=True)
class CachedSolve:
    """One optimization outcome, stored in canonical variable order."""

    status: str
    objective: Optional[int]
    x_canonical: Optional[Tuple[int, ...]]
    bound: Optional[float]
    nodes: int
    backend: str


class LRUCache:
    """A thread-safe bounded LRU map with hit/miss/eviction counters.

    ``maxsize <= 0`` disables caching entirely (every lookup misses and
    nothing is stored) — the facade path for one-shot solves.
    """

    def __init__(self, maxsize: int = 128):
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, entry: Any) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            self._data[key] = entry
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Explicit invalidation (the constraint store changed)."""
        with self._lock:
            if self._data:
                self.invalidations += 1
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    @property
    def stats(self) -> dict:
        """A consistent snapshot of the counters (taken under the lock)."""
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }


class SolveCache(LRUCache):
    """The L1 tier: an LRU map ``(fingerprint, sense) -> CachedSolve``."""
