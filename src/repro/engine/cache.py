"""Bounded cost-aware cache of BIP solve outcomes.

Entries are keyed by ``(fingerprint, sense)`` and store the solution
in the block's canonical column order (:func:`repro.solver.model.from_licm`),
so a hit coming from a structurally identical but differently-indexed
repeat query reads as a witness through that query's own ``dense`` map.

The cache is self-validating: the fingerprint is computed from the
*pruned* problem on every lookup, so any store mutation that actually
changes a problem changes its fingerprint and misses naturally.  The
session layer additionally clears the cache outright when the base store
changes; a query's own lineage, evaluated inside ``LICMModel.scoped()``
and rolled back after, never does (see ``SolveSession._ensure_fresh``).

Eviction is GreedyDual (Young 1994; Cao & Irani, "Cost-Aware WWW Proxy
Caching", 1997): each entry carries the cost of recomputing it, and a
full cache evicts the entry that is cheapest to recompute *relative to
an inflating clock*, so an expensive solve outlives many cheap ones but
not forever.  With every cost 0 the policy is exactly LRU.

The cache itself (:class:`LRUCache`) is value-agnostic; the session also
uses it, sized from the same ``cache_size``, for its prepared-problem memo.
Next to the per-component solves, the L1 holds whole exact answers
(:class:`KeptAnswer`) under ``("answer", key)`` keys — see
:meth:`~repro.engine.session.SolveSession.kept_answer`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.obs.export import count


@dataclass(frozen=True)
class CachedSolve:
    """One optimization outcome, stored in canonical column order."""

    status: str
    objective: Optional[int]
    x_canonical: Optional[Tuple[int, ...]]
    bound: Optional[float]
    nodes: int
    backend: str


@dataclass(frozen=True)
class KeptAnswer:
    """A whole exact answer kept in L1: its bounds, never its witnesses.

    Only exact answers are kept, so there is no ``exact`` flag; ``backend``
    is the solver that produced the bounds (``None`` for MIN/MAX probes).
    """

    lower: Any
    upper: Any
    backend: Optional[str] = None


class LRUCache:
    """A thread-safe bounded GreedyDual map with hit/miss/eviction counters.

    ``put(key, value, cost)`` gives the entry the priority ``H = L +
    cost``, where ``L`` is the cache's clock; a hit refreshes ``H`` to
    the current ``L + cost``.  Putting a new key into a full cache first
    evicts the resident entry with the smallest ``H`` (ties go to the
    least recently used) and advances ``L`` to that ``H``.  ``cost`` is
    the seconds it would take to recompute the value; with every cost 0
    all priorities equal ``L`` and the order is plain LRU.  The heap uses
    lazy deletion: a refreshed or replaced entry leaves its old heap
    record behind, skipped when popped and dropped when the heap is
    rebuilt.

    ``maxsize <= 0`` disables caching entirely (every lookup misses and
    nothing is stored) — the facade path for one-shot solves.  A subclass
    that sets ``metric`` exports each eviction to the process metrics
    registry as ``repro_counter_total{name="<metric>_evictions"}`` and the
    recompute seconds it discarded as ``{name="<metric>_evicted_seconds"}``.
    """

    metric: Optional[str] = None

    def __init__(self, maxsize: int = 128):
        self.maxsize = maxsize
        self._data: Dict[Hashable, Any] = {}
        # key -> (priority, seq, cost) of its live heap record
        self._stamps: Dict[Hashable, Tuple[float, int, float]] = {}
        # (priority, seq, key); a record is live iff its seq is the key's stamp
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._seq = itertools.count()
        self._clock = 0.0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _stamp(self, key: Hashable, cost: float) -> None:
        """Give ``key`` the priority ``L + cost`` and the newest recency."""
        stamp = (self._clock + cost, next(self._seq), cost)
        self._stamps[key] = stamp
        heapq.heappush(self._heap, (stamp[0], stamp[1], key))
        if len(self._heap) > 2 * len(self._stamps) + 64:
            self._heap = [(h, seq, k) for k, (h, seq, _) in self._stamps.items()]
            heapq.heapify(self._heap)

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            if key not in self._data:
                self.misses += 1
                return None
            self._stamp(key, self._stamps[key][2])
            self.hits += 1
            return self._data[key]

    def put(self, key: Hashable, entry: Any, cost: float = 0.0) -> None:
        if self.maxsize <= 0:
            return
        evicted = []
        with self._lock:
            if key not in self._data:
                while len(self._data) >= self.maxsize:
                    priority, seq, victim = heapq.heappop(self._heap)
                    stamp = self._stamps.get(victim)
                    if stamp is None or stamp[1] != seq:
                        continue  # a stale record: refreshed or gone
                    del self._data[victim], self._stamps[victim]
                    self._clock = priority
                    self.evictions += 1
                    evicted.append(stamp[2])
            self._data[key] = entry
            self._stamp(key, cost)
        if evicted and self.metric is not None:
            count(f"{self.metric}_evictions", len(evicted))
            count(f"{self.metric}_evicted_seconds", sum(evicted))

    def cost(self, key: Hashable) -> float:
        """The recompute cost ``key`` was stored with (0 when absent)."""
        with self._lock:
            stamp = self._stamps.get(key)
            return stamp[2] if stamp is not None else 0.0

    def clear(self) -> None:
        """Explicit invalidation (the constraint store changed)."""
        with self._lock:
            if self._data:
                self.invalidations += 1
            self._data.clear()
            self._stamps.clear()
            self._heap.clear()
            self._clock = 0.0

    @property
    def clock(self) -> float:
        """The GreedyDual clock ``L``: the priority of the last eviction."""
        with self._lock:
            return self._clock

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
    """The L1 tier: a GreedyDual map ``(fingerprint, sense) -> CachedSolve``,
    each entry costed by the seconds its solve (or L2 read) took, plus
    ``("answer", key) -> KeptAnswer`` entries for whole exact answers."""

    metric = "cache"
