"""LP-relaxation bounds: the solver's HiGHS LP, no integrality.

Tier (a) reuses :mod:`repro.solver.relaxation` — the exact same LP the
branch-and-bound roots its search at — but stops there: the relaxation's
optimum over ``[0, 1]^n`` contains every 0/1 point, so its value is a
valid one-sided bound in either direction.  Because the objective and
constant are integral, the fractional LP value is rounded *inward*
(``floor`` for max, ``ceil`` for min), which is still sound for the
integer optimum and often closes the gap entirely.

This is the most expensive estimator tier (one ``linprog`` call per
direction) and the tightest: on the paper's cardinality systems the
constraint matrix is an interval matrix per row, and the LP bound is
frequently integral already.
"""

from __future__ import annotations

from time import perf_counter

from repro.errors import SolverError
from repro.estimator.base import (
    COST_LP,
    ESTIMATE_BOUNDED,
    ESTIMATE_INFEASIBLE,
    ESTIMATE_UNAVAILABLE,
    EstimateResult,
    component_problem,
)
from repro.solver.relaxation import relaxation_bound

_VALIDITY = (
    "LP relaxation: the optimum over [0,1]^n contains every 0/1 point; "
    "the integral objective lets the fractional value round inward"
)


class LPRelaxationEstimator:
    """Tier (a): one LP relaxation per (component, sense)."""

    name = "lp"
    cost = COST_LP
    validity = _VALIDITY

    def estimate(self, prepared_component, sense: str) -> EstimateResult:
        problem = component_problem(prepared_component)
        start = perf_counter()
        try:
            status, value = relaxation_bound(problem, sense)
        except SolverError as exc:
            return EstimateResult(
                sense=sense,
                bound=None,
                status=ESTIMATE_UNAVAILABLE,
                tier=self.name,
                validity=self.validity,
                cost=self.cost,
                seconds=perf_counter() - start,
                detail={"error": str(exc)},
            )
        if status == "infeasible":
            return EstimateResult(
                sense=sense,
                bound=None,
                status=ESTIMATE_INFEASIBLE,
                tier=self.name,
                validity="the LP relaxation itself is empty",
                cost=self.cost,
                seconds=perf_counter() - start,
            )
        if status != "optimal":
            return EstimateResult(
                sense=sense,
                bound=None,
                status=ESTIMATE_UNAVAILABLE,
                tier=self.name,
                validity=self.validity,
                cost=self.cost,
                seconds=perf_counter() - start,
                detail={"status": status},
            )
        return EstimateResult(
            sense=sense,
            bound=float(value),
            status=ESTIMATE_BOUNDED,
            tier=self.name,
            validity=self.validity,
            cost=self.cost,
            seconds=perf_counter() - start,
            detail={"engine": "highs"},
        )


__all__ = ["LPRelaxationEstimator"]
