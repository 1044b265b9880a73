"""Solver result and option types shared by all backends."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.solver.cancel import CancelToken


@dataclass
class Solution:
    """Outcome of one optimization run.

    ``status`` is one of:

    * ``'optimal'`` — ``objective`` is proven optimal and ``x`` attains it;
    * ``'limit'``   — a node/time limit stopped the search; ``objective`` is
      the best incumbent (may be ``None``) and ``bound`` the proven dual
      bound, mirroring the paper's "quite tight approximate bounds" regime;
    * ``'infeasible'`` — no possible world satisfies the constraints.
    """

    status: str
    objective: Optional[int] = None
    x: Optional[list[int]] = None
    bound: Optional[float] = None
    nodes: int = 0
    solve_time: float = 0.0
    backend: str = ""
    #: provenance of the node-0 incumbent seed the B&B installed before
    #: search, if any: ``'greedy'`` (pure-greedy point, pre-LP) or
    #: ``'lp_round'`` (rounded root LP point).  ``None`` when seeding is
    #: disabled, produced nothing, or the backend does not seed (SciPy).
    seed_incumbent: Optional[str] = None

    @property
    def gap(self) -> Optional[float]:
        """Absolute gap between incumbent and proven bound (0 at optimality)."""
        if self.objective is None or self.bound is None:
            return None
        return abs(self.bound - self.objective)


@dataclass
class SolverOptions:
    """Tuning knobs for :func:`repro.solver.interface.solve`.

    ``backend``:
      * ``'auto'``  — own B&B for small programs, SciPy HiGHS MILP otherwise;
      * ``'bb'``    — the from-scratch branch-and-bound;
      * ``'scipy'`` — SciPy HiGHS MILP.

    ``branching``: ``'most_fractional'``, ``'pseudocost'`` or ``'first'``.
    ``node_selection``: ``'best_bound'`` or ``'dfs'``.

    Cooperative cancellation comes in three picklability tiers, all
    polled through :meth:`should_stop` between branch-and-bound nodes
    (returning ``True`` stops the search with ``status='limit'``, best
    incumbent + proven bound preserved):

    * ``stop_check`` — an arbitrary zero-argument closure.  In-process
      only: closures do not cross the process boundary, so the process
      executor fabric strips it before dispatch.
    * ``deadline_at`` — an absolute ``time.monotonic()`` instant.  A
      plain float, so it pickles into forked workers unchanged (Linux
      ``CLOCK_MONOTONIC`` is system-wide).  The service layer uses this
      to enforce per-request deadlines across processes.
    * ``cancel`` — a :class:`~repro.solver.cancel.CancelToken` resolving
      to a shared (inheritable) event; the process fabric's abort token
      stops its in-flight solves mid-search.

    The SciPy backend polls only before each HiGHS call, not mid-solve;
    the solver facade therefore clamps ``time_limit`` by ``deadline_at``
    when a solve starts, so callers set only the deadline.

    ``seed_incumbent`` installs a greedy node-0 incumbent before search
    (see docs/solver.md).
    """

    backend: str = "auto"
    branching: str = "most_fractional"
    node_selection: str = "best_bound"
    node_limit: int = 200_000
    time_limit: float = 600.0  # the paper's observed CPLEX budget on Query 3
    use_presolve: bool = True
    use_heuristics: bool = True
    cut_rounds: int = 3  # rounds of root cover-cut separation (0 disables)
    integrality_tol: float = 1e-6
    seed_incumbent: bool = True  # greedy node-0 incumbent before search
    stop_check: Optional[Callable[[], bool]] = field(
        default=None, repr=False, compare=False
    )
    deadline_at: Optional[float] = field(default=None, repr=False, compare=False)
    cancel: Optional[CancelToken] = field(default=None, repr=False, compare=False)

    def should_stop(self) -> bool:
        """Poll every cancellation source (closure, deadline, token)."""
        if self.stop_check is not None and self.stop_check():
            return True
        if self.deadline_at is not None and time.monotonic() >= self.deadline_at:
            return True
        return self.cancel is not None and self.cancel.is_set()

    def remaining_time_limit(self) -> float:
        """``time_limit`` additionally clamped by ``deadline_at``.

        Backends that enforce a wall budget but cannot poll
        :meth:`should_stop` mid-solve (SciPy HiGHS) use this so an
        absolute deadline still bounds their runtime.
        """
        if self.deadline_at is None:
            return self.time_limit
        return min(self.time_limit, max(self.deadline_at - time.monotonic(), 1e-3))
