"""End-to-end LICM query answering with the paper's timing breakdown.

The paper reports three LICM phases (Figure 6): *L-model* (raw anonymized
data -> LICM database; measured at encoding time), *L-query* (applying the
LICM operators and pruning), and *L-solve* (both BIP solves).  This module
produces the latter two around a single plan, returning the bounds plus the
timing/size stats the experiment harness prints.

``answer_licm`` is a facade over :class:`repro.engine.session.SolveSession`;
pass a session to share its solve cache, executor and telemetry across a
sweep (the experiment harness does — see
:meth:`repro.experiments.runner.ExperimentContext.session`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.anonymize.encode import EncodedDatabase
from repro.core.bounds import AggregateBounds
from repro.core.linexpr import LinearExpr
from repro.engine.telemetry import Stopwatch
from repro.errors import QueryError
from repro.obs.tracer import current_tracer
from repro.queries.licm_eval import evaluate_licm
from repro.relational.query import PlanNode
from repro.solver.result import SolverOptions


@dataclass
class LICMAnswer:
    """Bounds for one aggregate query plus the phase timing breakdown."""

    bounds: AggregateBounds
    query_time: float  # operator evaluation + pruning + BIP construction
    solve_time: float  # both optimization directions

    @property
    def lower(self) -> Optional[int]:
        return self.bounds.lower

    @property
    def upper(self) -> Optional[int]:
        return self.bounds.upper

    def __repr__(self) -> str:
        return (
            f"LICMAnswer({self.bounds!r}, query={self.query_time:.3f}s, "
            f"solve={self.solve_time:.3f}s)"
        )


def answer_licm(
    encoded: EncodedDatabase,
    plan: PlanNode,
    options: Optional[SolverOptions] = None,
    prune_method: str = "lineage",
    session=None,
) -> LICMAnswer:
    """Evaluate an aggregate plan over an encoded database and bound it.

    ``CountStar``/``SumAttr`` plans become one BIP objective solved in both
    directions; ``MinAttr``/``MaxAttr`` plans are resolved with the
    case-based feasibility probes of :func:`repro.core.bounds.minmax_bounds`.

    When ``session`` is given, ``prune_method`` is taken from it and
    repeated structurally identical queries are served from its solve
    cache (``bounds.stats['cache_hits']`` reports how many of the two
    directions were).  ``options`` then acts as a per-call override of the
    session's solver options — the service layer passes a
    deadline-clamped copy — and overridden solves only enter the cache
    when optimal.
    """
    from repro.core.bounds import minmax_bounds
    from repro.engine.session import SolveSession
    from repro.relational.query import MaxAttr, MinAttr

    if session is None:
        session = SolveSession(
            encoded.model, options=options, prune_method=prune_method
        )
        solve_options = None
    else:
        solve_options = options
    telemetry = session.telemetry

    with current_tracer().span(
        "query.answer_licm", plan=type(plan).__name__
    ) as root_span:
        total = Stopwatch()
        if isinstance(plan, (MinAttr, MaxAttr)):
            with telemetry.timer("l_query"):
                relation = evaluate_licm(plan.child, encoded.relations)
            agg = "min" if isinstance(plan, MinAttr) else "max"
            bounds = minmax_bounds(
                relation, plan.attribute, agg, options=solve_options, session=session
            )
        else:
            with telemetry.timer("l_query"):
                objective = evaluate_licm(plan, encoded.relations)
            if not isinstance(objective, LinearExpr):
                raise QueryError(
                    "answer_licm requires a plan ending in CountStar, SumAttr, "
                    "MinAttr or MaxAttr"
                )
            bounds = session.bounds(objective, options=solve_options)
        solve_time = bounds.stats.get("solve_time", 0.0)
        root_span.set("lower", bounds.lower).set("upper", bounds.upper)
        root_span.set("solve_time", solve_time)
        return LICMAnswer(
            bounds=bounds,
            query_time=max(total.stop() - solve_time, 0.0),
            solve_time=solve_time,
        )
