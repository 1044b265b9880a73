"""The estimator contract: cheap, provably valid bounds on a BIP optimum.

A :class:`BoundEstimator` answers one direction of one prepared component
*without* running the exact branch-and-cut: for ``sense="max"`` it returns
an **upper** bound on the true maximum, for ``sense="min"`` a **lower**
bound on the true minimum.  The pair of directions therefore yields an
outer interval that is guaranteed to contain the exact ``[min, max]``
aggregate range — wider, never narrower.  That one-sided soundness
contract is what lets the :class:`~repro.estimator.tiered.TieredAnswerer`
intersect the intervals of several tiers (the intersection of valid outer
intervals is itself a valid outer interval) and serve them at
``precision=fast`` without ever inventing an answer outside the paper's
possible-world range.

Every result carries a ``validity`` proof tag (the one-line argument for
why the bound is sound — surfaced in docs/estimators.md and the slow-query
ring) and a ``cost`` class so policies can order tiers cheapest-first
without hard-coding estimator names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

#: Cost classes, cheapest first.  ``COST_ORDER`` gives the sort key.
COST_TRIVIAL = "trivial"  # closed-form arithmetic over the coefficients
COST_CHEAP = "cheap"  # one pass with sorting, still no LP or search
COST_LP = "lp"  # one LP relaxation per (component, sense)
COST_EXACT = "exact"  # the full branch-and-cut (not an estimator tier)

COST_ORDER = (COST_TRIVIAL, COST_CHEAP, COST_LP, COST_EXACT)

#: EstimateResult statuses.
ESTIMATE_BOUNDED = "bounded"  # ``bound`` is a valid one-sided bound
ESTIMATE_INFEASIBLE = "infeasible"  # a single row alone admits no 0/1 point
ESTIMATE_UNAVAILABLE = "unavailable"  # this tier cannot bound this problem


@dataclass(frozen=True)
class EstimateResult:
    """One direction of one component, answered by one tier.

    ``bound`` is an upper bound on the maximum when ``sense="max"`` and a
    lower bound on the minimum when ``sense="min"`` (``None`` unless
    ``status == "bounded"``).  ``validity`` names the soundness argument;
    ``cost`` is the tier's cost class; ``seconds`` is the wall time this
    estimate took.
    """

    sense: str
    bound: Optional[float]
    status: str
    tier: str
    validity: str
    cost: str
    seconds: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def bounded(self) -> bool:
        return self.status == ESTIMATE_BOUNDED and self.bound is not None


@runtime_checkable
class BoundEstimator(Protocol):
    """The swappable tier interface.

    ``estimate`` accepts a prepared component — anything carrying a
    ``problem`` attribute holding a :class:`~repro.solver.model.BIPProblem`
    (e.g. :class:`~repro.engine.session.PreparedComponent`), or a bare
    ``BIPProblem`` — and one sense, and returns an :class:`EstimateResult`
    whose bound satisfies the one-sided soundness contract above.
    Estimators are stateless and thread-safe; any memoization happens in
    the policy layer, on the prepared problem the verdict belongs to,
    never in the shared solve caches.
    """

    name: str
    cost: str
    validity: str

    def estimate(self, prepared_component, sense: str) -> EstimateResult:
        ...


def component_problem(prepared_component):
    """Unwrap a prepared component (or accept a bare BIPProblem)."""
    return getattr(prepared_component, "problem", prepared_component)


def free_bound(problem, sense: str) -> float:
    """The constraint-free bound: every variable takes its best value.

    Sound for any 0/1 program because dropping every constraint only
    enlarges the feasible set.  Includes the objective constant.
    """
    coefs = problem.objective.values()
    if sense == "max":
        return float(problem.objective_constant + sum(c for c in coefs if c > 0))
    return float(problem.objective_constant + sum(c for c in coefs if c < 0))


__all__ = [
    "BoundEstimator",
    "EstimateResult",
    "COST_TRIVIAL",
    "COST_CHEAP",
    "COST_LP",
    "COST_EXACT",
    "COST_ORDER",
    "ESTIMATE_BOUNDED",
    "ESTIMATE_INFEASIBLE",
    "ESTIMATE_UNAVAILABLE",
    "component_problem",
    "free_bound",
]
