"""Shared machinery for the figure harnesses: datasets, encodings, answers.

Encoding an anonymized dataset is the expensive *L-model* phase; the cache
here builds each (scheme, k) encoding once per process so Figures 5, 6 and
7 can share it, while still recording the paper's L-model timing.

Each encoding also gets one :class:`~repro.engine.session.SolveSession`,
shared by every query answered against it: a Figure-5 style sweep that
issues structurally repeated aggregate queries is served from the
session's solve cache instead of re-solving, and all phase timings flow
into the process metrics registry (:func:`repro.obs.export.phase`)
instead of ad-hoc ``perf_counter`` bookkeeping.
"""

from __future__ import annotations

import logging
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.anonymize import (
    EncodedDatabase,
    Hierarchy,
    coherence_suppress,
    encode_bipartite,
    encode_generalized,
    encode_suppressed,
    k_anonymize,
    km_anonymize,
    safe_grouping,
)
from repro.data import TransactionDataset, generate
from repro.engine.fabric import ExecutorFabric, make_fabric
from repro.engine.session import SolveSession
from repro.experiments.config import ExperimentConfig
from repro.mc import run_monte_carlo
from repro.obs.export import phase
from repro.queries import answer_licm, query1, query2, query3
from repro.relational.query import PlanNode
from repro.solver.result import SolverOptions

logger = logging.getLogger(__name__)

SCHEMES = ("km", "k-anonymity", "bipartite")
#: Appendix C's suppression encoding, benchmarkable as an extension scheme.
ALL_SCHEMES = SCHEMES + ("coherence",)
QUERIES = ("Q1", "Q2", "Q3")


@dataclass
class EncodingRecord:
    """One encoded (scheme, k) dataset plus its build timings."""

    encoded: EncodedDatabase
    anonymize_time: float
    model_time: float  # the paper's L-model


class ExperimentContext:
    """Caches the dataset, the per-(scheme, k) encodings and solve sessions."""

    def __init__(self, config: ExperimentConfig | None = None):
        self.config = config or ExperimentConfig()
        self._dataset: TransactionDataset | None = None
        self._hierarchy: Hierarchy | None = None
        self._encodings: Dict[Tuple[str, int], EncodingRecord] = {}
        self._sessions: Dict[Tuple[str, int], SolveSession] = {}
        self._fabric: Optional[ExecutorFabric] = None
        self._l2_path: Optional[str] = None
        self._l2_auto = False

    @property
    def dataset(self) -> TransactionDataset:
        if self._dataset is None:
            self._dataset = generate(
                self.config.num_transactions,
                num_items=self.config.num_items,
                seed=self.config.seed,
            )
        return self._dataset

    @property
    def hierarchy(self) -> Hierarchy:
        if self._hierarchy is None:
            self._hierarchy = Hierarchy.balanced(
                self.dataset.items, fanout=self.config.hierarchy_fanout
            )
        return self._hierarchy

    def encoding(self, scheme: str, k: int) -> EncodingRecord:
        """Anonymize + encode (cached per scheme and k)."""
        key = (scheme, k)
        if key in self._encodings:
            return self._encodings[key]
        logger.info("anonymizing + encoding %s (k=%d)...", scheme, k)
        with phase("anonymize") as anonymize_clock:
            if scheme == "km":
                anonymized = km_anonymize(
                    self.dataset, self.hierarchy, k, self.config.km_m
                )
                encode: Callable = encode_generalized
            elif scheme == "k-anonymity":
                anonymized = k_anonymize(self.dataset, self.hierarchy, k)
                encode = encode_generalized
            elif scheme == "bipartite":
                anonymized = safe_grouping(self.dataset, k)
                encode = encode_bipartite
            elif scheme == "coherence":
                # Private items: the least popular decile (the natural "rare,
                # sensitive purchases" reading); p=1 keeps suppression tractable.
                supports = self.dataset.item_supports()
                ranked = sorted(self.dataset.items, key=lambda i: supports.get(i, 0))
                private = set(ranked[: max(1, len(ranked) // 10)])
                anonymized = coherence_suppress(
                    self.dataset, private_items=private, h=0.8, k=k, p=1
                )
                encode = encode_suppressed
            else:
                raise ValueError(f"unknown scheme {scheme!r}")

        with phase("l_model") as model_clock:
            encoded = encode(anonymized)

        record = EncodingRecord(encoded, anonymize_clock.elapsed, model_clock.elapsed)
        self._encodings[key] = record
        logger.info(
            "%s k=%d: anonymize %.1fs, encode %.1fs, %s",
            scheme,
            k,
            record.anonymize_time,
            record.model_time,
            encoded.stats,
        )
        return record

    @property
    def fabric(self) -> ExecutorFabric:
        """The executor fabric every session of this context dispatches to.

        Built once, lazily, from ``config.solve_fabric``/``solve_workers``
        so that all (scheme, k) sessions share one worker pool instead of
        spawning a pool each.
        """
        if self._fabric is None:
            self._fabric = make_fabric(
                self.config.solve_fabric, self.config.solve_workers
            )
        return self._fabric

    @property
    def l2_path(self) -> Optional[str]:
        """SQLite path of the cross-process L2 solve cache (or ``None``).

        An explicit ``config.l2_cache_path`` always wins; otherwise the
        process fabric auto-provisions a temp file (forked workers need a
        shared medium to make their solves reusable) which ``close()``
        removes again.
        """
        if self._l2_path is None:
            if self.config.l2_cache_path == "off":
                return None
            if self.config.l2_cache_path:
                self._l2_path = self.config.l2_cache_path
            elif self.config.solve_fabric == "process":
                fd, path = tempfile.mkstemp(prefix="repro-l2-", suffix=".sqlite")
                os.close(fd)
                self._l2_path = path
                self._l2_auto = True
        return self._l2_path

    def session(self, scheme: str, k: int) -> SolveSession:
        """The shared solve session for one encoding (created on demand)."""
        key = (scheme, k)
        if key not in self._sessions:
            self._sessions[key] = SolveSession(
                self.encoding(scheme, k).encoded.model,
                options=self.solver_options(),
                cache_size=self.config.solve_cache_size,
                fabric=self.fabric,
                l2_path=self.l2_path,
            )
        return self._sessions[key]

    def cache_stats(self) -> Dict[str, dict]:
        """Per-session solve-cache stats, keyed ``'<scheme>-k<k>'`` (for
        the run manifest)."""
        return {
            f"{scheme}-k{k}": dict(session.cache.stats)
            for (scheme, k), session in sorted(self._sessions.items())
        }

    def fabric_stats(self) -> dict:
        """Fabric + L2 configuration snapshot (for ``/v1/status`` and
        run manifests)."""
        return {
            "kind": self._fabric.kind if self._fabric else self.config.solve_fabric,
            "workers": self.config.solve_workers,
            "started": self._fabric is not None,
            "fabric": self._fabric.describe() if self._fabric else None,
            "l2_cache_path": self._l2_path or self.config.l2_cache_path,
        }

    def close(self) -> None:
        """Shut down the sessions, the shared fabric, and any auto L2 file."""
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()
        if self._fabric is not None:
            self._fabric.close()
            self._fabric = None
        if self._l2_auto and self._l2_path:
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(self._l2_path + suffix)
                except OSError:
                    pass
        self._l2_path = None
        self._l2_auto = False

    def plan(self, query: str, encoded: EncodedDatabase) -> PlanNode:
        builders = {"Q1": query1, "Q2": query2, "Q3": query3}
        return builders[query](encoded, self.config.params)

    def solver_options(self) -> SolverOptions:
        return SolverOptions(
            backend=self.config.solver_backend,
            time_limit=self.config.solver_time_limit,
        )

    def licm_answer(self, query: str, scheme: str, k: int):
        """Answer one query in a lineage scope, so the shared session's L1
        stays warm across a sweep."""
        record = self.encoding(scheme, k)
        plan = self.plan(query, record.encoded)
        session = self.session(scheme, k)
        with record.encoded.model.scoped():
            answer = answer_licm(record.encoded, plan, session=session)
        logger.info("%s/%s k=%d LICM %r", query, scheme, k, answer)
        return answer

    def mc_answer(self, query: str, scheme: str, k: int):
        record = self.encoding(scheme, k)
        plan = self.plan(query, record.encoded)
        return run_monte_carlo(
            record.encoded,
            plan,
            self.config.mc_samples,
            seed=self.config.seed,
            max_workers=self.config.mc_workers,
        )
