"""Experiment configuration and scaling.

The paper runs on BMS-POS (515K transactions, 1657 items) with CPLEX on a
2009 desktop.  The defaults here are scaled so the full figure suite runs
on a laptop in minutes while keeping the *absolute* workload of each query
comparable (predicate selectivities are raised in proportion to the
dataset shrink, so e.g. Pa still selects on the order of 100 transactions,
matching the paper's 0.5% of 515K ≈ 2575 — same order of magnitude).

Set the environment variable ``REPRO_SCALE`` to a float to grow or shrink
everything at once (e.g. ``REPRO_SCALE=5`` for a 10K-transaction run).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Tuple

from repro.queries.workload import QueryParams

PAPER_TRANSACTIONS = 515_000


@dataclass
class ExperimentConfig:
    """Knobs for the figure-reproduction harness."""

    num_transactions: int = 2_000
    num_items: int = 256
    hierarchy_fanout: int = 4
    k_values: Tuple[int, ...] = (2, 4, 6, 8)
    km_m: int = 2
    mc_samples: int = 20  # the paper samples 20 worlds
    seed: int = 7
    solver_backend: str = "auto"
    solver_time_limit: float = 600.0  # the paper's observed CPLEX budget
    #: threads for the engine's min/max solves (1 = strictly serial)
    solve_workers: int = 1
    #: executor fabric for solve units: ``thread`` (historical in-process
    #: pool), ``process`` (forked workers that sidestep the GIL), or
    #: ``inline`` (always serial, regardless of ``solve_workers``)
    solve_fabric: str = "thread"
    #: SQLite path for the cross-process L2 solve cache.  ``None`` leaves
    #: L2 off for thread/inline fabrics and auto-provisions a temp file
    #: for the process fabric (workers need a shared medium); the literal
    #: string ``"off"`` disables L2 unconditionally.
    l2_cache_path: str | None = None
    #: threads for MC per-world query evaluation (1 = strictly serial)
    mc_workers: int = 1
    #: LRU capacity of each encoding's solve cache (0 disables caching)
    solve_cache_size: int = 128
    params: QueryParams = field(default_factory=QueryParams)

    def __post_init__(self):
        scale = float(os.environ.get("REPRO_SCALE", "1.0"))
        if scale != 1.0:
            self.num_transactions = max(200, int(self.num_transactions * scale))
        # Keep |Pa| around 100 transactions regardless of dataset size, the
        # same absolute order as the paper's 0.5% of 515K.
        self.params = QueryParams(
            pa_selectivity=min(1.0, 100 / self.num_transactions),
            pb_selectivity=0.25,
            pc_selectivity=0.25,
            # Q3's Pa and Pb are adjacent location ranges: at most half
            # the domain each (below 120 transactions).
            q3_selectivity=min(0.5, 60 / self.num_transactions),
        )

    @property
    def label(self) -> str:
        return f"{self.num_transactions}tx-{self.num_items}items-seed{self.seed}"
