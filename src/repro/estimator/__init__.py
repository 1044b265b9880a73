"""Tiered answering: swappable bound estimators with escalation to exact BIP.

Three stock tiers, cheapest first —

* :class:`~repro.estimator.structural.StructuralEstimator`: closed-form
  interval arithmetic on pure-cardinality rows (``Z1 <= Σx <= Z2``);
* :class:`~repro.estimator.entropy.EntropyEstimator`: an info-theoretic
  counting bound from the aggregated capacity of the constraint system;
* :class:`~repro.estimator.lp.LPRelaxationEstimator`: the solver's
  HiGHS LP relaxation without integrality —

behind the :class:`~repro.estimator.base.BoundEstimator` protocol, driven
by the :class:`~repro.estimator.tiered.TieredAnswerer` policy that the
service scheduler consults for ``precision=fast|balanced`` requests.
See docs/estimators.md for the tier table and validity guarantees.
"""

from repro.estimator.base import (
    COST_CHEAP,
    COST_EXACT,
    COST_LP,
    COST_ORDER,
    COST_TRIVIAL,
    ESTIMATE_BOUNDED,
    ESTIMATE_INFEASIBLE,
    ESTIMATE_UNAVAILABLE,
    BoundEstimator,
    EstimateResult,
    component_problem,
    free_bound,
)
from repro.estimator.entropy import EntropyEstimator
from repro.estimator.lp import LPRelaxationEstimator
from repro.estimator.structural import StructuralEstimator
from repro.estimator.tiered import (
    DEFAULT_TOLERANCE,
    PRECISION_BALANCED,
    PRECISION_FAST,
    PRECISION_TIGHT,
    TIER_EXACT,
    TieredAnswer,
    TieredAnswerer,
    TierInterval,
    default_estimators,
)

__all__ = [
    "BoundEstimator",
    "EstimateResult",
    "StructuralEstimator",
    "EntropyEstimator",
    "LPRelaxationEstimator",
    "TieredAnswerer",
    "TieredAnswer",
    "TierInterval",
    "default_estimators",
    "component_problem",
    "free_bound",
    "COST_TRIVIAL",
    "COST_CHEAP",
    "COST_LP",
    "COST_EXACT",
    "COST_ORDER",
    "ESTIMATE_BOUNDED",
    "ESTIMATE_INFEASIBLE",
    "ESTIMATE_UNAVAILABLE",
    "PRECISION_FAST",
    "PRECISION_BALANCED",
    "PRECISION_TIGHT",
    "TIER_EXACT",
    "DEFAULT_TOLERANCE",
]
