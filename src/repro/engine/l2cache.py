"""Cross-process L2 solve cache: SQLite in WAL mode, stdlib only.

The in-process LRU (:mod:`repro.engine.cache`) is the L1 tier: fast,
but private to one process and gone on restart.  When solves dispatch
to a pool of forked workers, a second tier pays off twice over:

* **cross-process sharing** — a worker that solved a component writes
  the outcome through; any *other* worker (or the parent) asked for the
  same ``(fingerprint, sense)`` reads it instead of re-searching;
* **restart survival** — the file outlives the scheduler, so a warm
  service restart answers repeat queries from disk.

Keys are the existing BLAKE2b canonical fingerprints, which are
*self-validating*: any change to a pruned problem changes its
fingerprint, so entries never need explicit invalidation — stale rows
are simply never looked up again.

Poisoning guard: only ``optimal`` outcomes — plus ``infeasible`` ones
proven under full (authoritative) budgets — are stored.  A ``limit``
solve truncated by a request deadline is an answer for *that request
only*; writing it through would hand later full-budget requests an
inexact bound as if it were exact.

Concurrency: WAL mode lets concurrent readers proceed under a single
writer; writers race benignly because two processes solving the same
fingerprint write byte-identical rows (``INSERT OR REPLACE``).  Every
connection is lazy and keyed by ``(pid, thread)`` — sqlite3 handles are
neither fork- nor thread-portable.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Optional, Tuple

from repro.engine.cache import CachedSolve

_SCHEMA = """
CREATE TABLE IF NOT EXISTS solves (
    fingerprint TEXT NOT NULL,
    sense       TEXT NOT NULL,
    status      TEXT NOT NULL,
    objective   INTEGER,
    x_canonical TEXT,
    bound       REAL,
    nodes       INTEGER NOT NULL,
    backend     TEXT NOT NULL,
    created_unix REAL NOT NULL,
    PRIMARY KEY (fingerprint, sense)
)
"""

#: statuses that may ever be persisted (see the poisoning guard above)
_STORABLE = ("optimal", "infeasible")

#: deep-health probe table — separate from ``solves`` so a probe can
#: never collide with (or be mistaken for) real cache traffic
_PROBE_SCHEMA = """
CREATE TABLE IF NOT EXISTS health_probe (
    id INTEGER PRIMARY KEY CHECK (id = 1),
    probed_unix REAL NOT NULL
)
"""


def _entry(status, objective, x_text, bound, nodes, backend) -> CachedSolve:
    """One ``solves`` row as a :class:`CachedSolve`; a malformed row raises
    ``ValueError`` or ``TypeError``."""
    x_canonical: Optional[Tuple[int, ...]] = None
    if x_text is not None:
        x_canonical = tuple(int(v) for v in json.loads(x_text))
    return CachedSolve(
        status=status,
        objective=objective,
        x_canonical=x_canonical,
        bound=bound,
        nodes=int(nodes),
        backend=backend,
    )


class L2SolveCache:
    """A shared ``(fingerprint, sense) -> CachedSolve`` map on disk.

    :param path: the SQLite database file.  Every process pointed at the
        same path shares one cache; the file is created on first use.
    :param busy_timeout_ms: how long a connection waits on a locked
        database before giving up.  Contention is rare (WAL) and a
        missed cache write is harmless, so this stays small.

    Hit/miss/write counters are **per process** (plain ints, no shared
    state): the parent's counters feed ``/metrics``, and each worker
    keeps its own tallies that travel home inside unit results.
    """

    def __init__(self, path: str, busy_timeout_ms: int = 2_000):
        self.path = path
        self.busy_timeout_ms = int(busy_timeout_ms)
        self._local = threading.local()
        self._stats_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.rejects = 0  # guarded-out (non-authoritative / limit) puts

    # -- connection management --------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        """The calling thread's connection, re-opened after a fork."""
        pid = os.getpid()
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", None) == pid:
            return conn
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=self.busy_timeout_ms / 1000.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
        conn.execute(_SCHEMA)
        conn.commit()
        self._local.conn = conn
        self._local.pid = pid
        return conn

    def ping(self, timeout_ms: Optional[int] = None) -> bool:
        """Deep-health probe: can this process open the file *and commit*?

        A **fresh** connection per call, on purpose: the cached per-thread
        handle was opened when the file was healthy and would keep
        answering after the file turns read-only underneath it.  The
        probe writes to its own single-row table so it never touches the
        ``solves`` rows or the hit/miss/write/reject counters.
        """
        budget = self.busy_timeout_ms if timeout_ms is None else int(timeout_ms)
        try:
            conn = sqlite3.connect(self.path, timeout=budget / 1000.0)
            try:
                conn.execute(f"PRAGMA busy_timeout={budget}")
                conn.execute(_PROBE_SCHEMA)
                conn.execute(
                    "INSERT OR REPLACE INTO health_probe (id, probed_unix) "
                    "VALUES (1, ?)",
                    (time.time(),),
                )
                conn.commit()
            finally:
                conn.close()
        except sqlite3.Error:
            return False
        return True

    def close(self) -> None:
        """Close this thread's connection (others close on GC/exit)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # -- cache protocol ----------------------------------------------------
    def get(self, fingerprint: str, sense: str) -> Optional[CachedSolve]:
        try:
            row = self._connection().execute(
                "SELECT status, objective, x_canonical, bound, nodes, backend "
                "FROM solves WHERE fingerprint = ? AND sense = ?",
                (fingerprint, sense),
            ).fetchone()
            entry = None if row is None else _entry(*row)
        except (sqlite3.Error, TypeError, ValueError):
            entry = None  # a busy/corrupt L2 degrades to a miss, never an error
        with self._stats_lock:
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
        return entry

    def put(self, fingerprint: str, sense: str, entry: CachedSolve,
            authoritative: bool = True) -> bool:
        """Write-through one outcome; returns whether it was stored.

        The poisoning guard lives here so every writer applies it:
        ``limit`` never stores, and ``infeasible`` stores only when the
        solve ran under authoritative (non-deadline-truncated) options —
        an infeasibility proof is exact, but gating on ``authoritative``
        keeps L2 admission no looser than L1's.
        """
        if entry.status not in _STORABLE:
            with self._stats_lock:
                self.rejects += 1
            return False
        if entry.status != "optimal" and not authoritative:
            with self._stats_lock:
                self.rejects += 1
            return False
        x_text = (
            json.dumps([int(v) for v in entry.x_canonical])
            if entry.x_canonical is not None
            else None
        )
        try:
            conn = self._connection()
            conn.execute(
                "INSERT OR REPLACE INTO solves "
                "(fingerprint, sense, status, objective, x_canonical, bound, "
                " nodes, backend, created_unix) VALUES (?,?,?,?,?,?,?,?,?)",
                (
                    fingerprint,
                    sense,
                    entry.status,
                    entry.objective,
                    x_text,
                    entry.bound,
                    int(entry.nodes),
                    entry.backend,
                    time.time(),
                ),
            )
            conn.commit()
        except sqlite3.Error:
            return False  # a lost write is a future cache miss, nothing more
        with self._stats_lock:
            self.writes += 1
        return True

    def __len__(self) -> int:
        try:
            (count,) = self._connection().execute(
                "SELECT COUNT(*) FROM solves"
            ).fetchone()
            return int(count)
        except sqlite3.Error:
            return 0

    @property
    def stats(self) -> dict:
        with self._stats_lock:
            return {
                "path": self.path,
                "entries": len(self),
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "rejects": self.rejects,
            }

    def __repr__(self) -> str:
        return f"L2SolveCache({self.path!r}, {len(self)} entries)"
