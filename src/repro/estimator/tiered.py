"""The tier policy: cheapest-first estimation, escalation to exact BIP.

:class:`TieredAnswerer` runs the configured estimator tiers cheapest-first
over each decomposed component, maintaining the *intersection* of their
intervals (sound: every tier's interval contains the exact ``[min, max]``,
so their intersection does too, and soundness also guarantees it is
non-empty).  It short-circuits a component as soon as two consecutive
tiers agree within ``tolerance`` (max endpoint distance between their own
intervals), and escalates to the exact solver — through the session's
fabric and both cache tiers — any component that

* a tier proved infeasible or could not bound at all,
* still disagrees after every tier under ``precision="balanced"``, or
* belongs to a ``precision="tight"`` request (all of them).

Escalated solves are ordinary authoritative solve units: they hit and
populate the L1/L2 caches exactly like the exact path.  Estimated bounds,
by contrast, **never** touch the shared caches.  The answerer keeps no
whole answers: the service scheduler keeps exact ones under the plan
identity (see :mod:`repro.service.scheduler`).  A component's verdict is
a pure function of its BIP, the estimator ladder and ``tolerance``, so
the answerer keeps it on the prepared problem
(:attr:`~repro.engine.session.PreparedProblem.verdicts`), keyed by its
own identity and the component fingerprint: later ``fast``/``balanced``
answers on the same prepared problem — and the scheduler's deadline
fallback — reuse it instead of re-running the cascade, and the verdicts
live and die with the session's prepared-problem memo entry.  ``tight``
never reads them, so a ``fast`` answer can never poison a later ``tight``
answer on the same fingerprint (see tests/test_estimator.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InfeasibleError
from repro.estimator.base import (
    COST_ORDER,
    ESTIMATE_INFEASIBLE,
    BoundEstimator,
    free_bound,
)
from repro.estimator.entropy import EntropyEstimator
from repro.estimator.lp import LPRelaxationEstimator
from repro.estimator.structural import StructuralEstimator

#: Request precision levels (service.api re-exports these).
PRECISION_FAST = "fast"
PRECISION_BALANCED = "balanced"
PRECISION_TIGHT = "tight"

#: The exact solver's pseudo-tier name in provenance fields.
TIER_EXACT = "exact"

DEFAULT_TOLERANCE = 1e-6

_TIER_DEPTH = {name: depth for depth, name in enumerate(COST_ORDER)}


def default_estimators() -> Tuple[BoundEstimator, ...]:
    """The stock ladder: structural -> entropy -> LP relaxation."""
    return (StructuralEstimator(), EntropyEstimator(), LPRelaxationEstimator())


@dataclass
class TierInterval:
    """The tier cascade's verdict on one component.

    ``lower``/``upper`` is the intersection of every bounded tier's
    interval (still an outer interval of the exact range); ``tier`` is the
    deepest tier that ran; ``gap`` is the endpoint distance between the
    last two tiers' own intervals (``inf`` until two tiers have bounded).
    """

    lower: Optional[float] = None
    upper: Optional[float] = None
    tier: Optional[str] = None
    agreed: bool = False
    infeasible: bool = False
    gap: float = math.inf
    seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def bounded(self) -> bool:
        return self.lower is not None and self.upper is not None


@dataclass
class TieredAnswer:
    """One request's answer with full per-tier provenance."""

    lower: Optional[float]
    upper: Optional[float]
    exact: bool
    precision: str
    tier: str  # deepest tier that contributed to the answer
    components: int
    exact_components: int
    estimated_components: int
    escalations: int  # components escalated beyond the estimator tiers
    gap: float  # worst per-component disagreement at decision time
    tier_seconds: Dict[str, float] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    #: per-component provenance dicts (component index, fingerprint, tier,
    #: agreed/infeasible/gap from the cascade, escalated, exact, and
    #: whether the verdict was reused from the prepared problem) — the raw
    #: material for EXPLAIN payloads.
    component_tiers: List[dict] = field(default_factory=list)
    #: components whose cascade verdict was reused, not computed here
    reused_components: int = 0

    @property
    def seconds(self) -> float:
        return sum(self.tier_seconds.values())

    @property
    def cascaded(self) -> bool:
        """Whether the estimator cascade ran: False for a ``tight``
        answer, which goes straight to the exact solver."""
        return self.precision != PRECISION_TIGHT


class TieredAnswerer:
    """Policy object gluing estimator tiers to the exact engine.

    :param estimators: the tiers, re-sorted cheapest-first by cost class
        (:func:`default_estimators` when omitted).
    :param tolerance: two consecutive tiers whose intervals are within
        this distance (both endpoints) *agree* — the cascade stops there.
    """

    def __init__(
        self,
        estimators: Optional[Sequence[BoundEstimator]] = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ):
        tiers = tuple(estimators) if estimators is not None else default_estimators()
        self.estimators = tuple(
            sorted(tiers, key=lambda e: _TIER_DEPTH.get(e.cost, len(COST_ORDER)))
        )
        self.tolerance = float(tolerance)
        # Keys this answerer's verdicts in PreparedProblem.verdicts: only
        # the same ladder and tolerance may reuse a verdict.
        self._identity = object()

    # -- the per-component cascade ----------------------------------------
    def estimate_interval(self, prepared_component) -> TierInterval:
        """Run the tier cascade on one component (or bare BIPProblem).

        Always runs every tier it needs; :meth:`answer` is what reuses
        verdicts across requests.
        """
        interval = TierInterval()
        previous: Optional[Tuple[float, float]] = None
        for estimator in self.estimators:
            low = estimator.estimate(prepared_component, "min")
            high = estimator.estimate(prepared_component, "max")
            spent = interval.seconds.get(estimator.name, 0.0)
            interval.seconds[estimator.name] = spent + low.seconds + high.seconds
            if ESTIMATE_INFEASIBLE in (low.status, high.status):
                interval.infeasible = True
                interval.tier = estimator.name
                break
            if not (low.bounded and high.bounded):
                continue
            interval.tier = estimator.name
            interval.lower = (
                low.bound if interval.lower is None
                else max(interval.lower, low.bound)
            )
            interval.upper = (
                high.bound if interval.upper is None
                else min(interval.upper, high.bound)
            )
            if previous is not None:
                interval.gap = max(
                    abs(low.bound - previous[0]), abs(high.bound - previous[1])
                )
                if interval.gap <= self.tolerance:
                    interval.agreed = True
                    break
            previous = (low.bound, high.bound)
        return interval

    # -- the request-level policy ------------------------------------------
    def answer(
        self,
        session,
        prepared,
        precision: str,
        options=None,
    ) -> TieredAnswer:
        """Answer one prepared problem at the requested precision.

        ``session`` is the :class:`~repro.engine.session.SolveSession`
        owning the caches and fabric; escalations go through
        :meth:`~repro.engine.session.SolveSession.solve_units` with
        ``options`` (the scheduler's deadline-carrying copy).  Raises
        :class:`~repro.errors.InfeasibleError` when an escalated component
        proves the constraint system empty, exactly like the exact path.

        ``fast``/``balanced`` first look up each component's verdict in
        ``prepared.verdicts`` under this answerer's identity and run the
        cascade only on a miss (so identical fingerprints inside one
        request also cascade once); ``tight`` never reads the verdicts: it
        solves every component through the session's caches.
        """
        components = prepared.components
        constant = prepared.objective_offset
        if precision == PRECISION_TIGHT:
            return self._answer_tight(session, prepared, options)

        stored = prepared.verdicts
        verdicts: List[TierInterval] = []
        reused: List[bool] = []
        escalate: List[int] = []
        for index, component in enumerate(components):
            key = (self._identity, component.fingerprint)
            verdict = stored.get(key)
            reused.append(verdict is not None)
            if verdict is None:
                # Two requests racing on one problem may both run the
                # cascade; it is deterministic, so either verdict serves.
                verdict = self.estimate_interval(component)
                stored.setdefault(key, verdict)
            verdicts.append(verdict)
            if verdict.infeasible or not verdict.bounded:
                escalate.append(index)
            elif precision == PRECISION_BALANCED and not verdict.agreed:
                escalate.append(index)

        exact_values: Dict[int, Tuple[object, object]] = {}
        exact_seconds = 0.0
        stats = {"nodes": 0, "cache_hits": 0, "l2_hits": 0, "backend": None}
        if escalate:
            tasks = []
            for index in escalate:
                for sense in ("min", "max"):
                    tasks.append((components[index], sense, index))
            results = session.solve_units(tasks, options)
            for position, index in enumerate(escalate):
                low = results[2 * position]
                high = results[2 * position + 1]
                for entry, _, _, _ in (low, high):
                    if entry.status == "infeasible":
                        raise InfeasibleError(
                            "the LICM constraints admit no possible world"
                        )
                exact_values[index] = (low[0], high[0])
                for entry, cached, seconds, l2 in (low, high):
                    stats["nodes"] += entry.nodes
                    stats["cache_hits"] += int(cached)
                    stats["l2_hits"] += int(l2)
                    exact_seconds += seconds
                    if entry.backend and entry.backend != "closed-form":
                        stats["backend"] = entry.backend

        ladder = [estimator.name for estimator in self.estimators] + [TIER_EXACT]
        lower_total = 0.0
        upper_total = 0.0
        exact_components = 0
        worst_gap = 0.0
        deepest = 0
        all_exact = True
        tier_seconds: Dict[str, float] = {}
        component_tiers: List[dict] = []
        for index, (component, verdict) in enumerate(zip(components, verdicts)):
            # A reused verdict ran no tier in this request.
            ran = {} if reused[index] else verdict.seconds
            for name, seconds in ran.items():
                tier_seconds[name] = tier_seconds.get(name, 0.0) + seconds
            provenance = {
                "component": index,
                "fingerprint": component.fingerprint,
                "tier": verdict.tier,
                "agreed": verdict.agreed,
                "infeasible": verdict.infeasible,
                "gap": verdict.gap if math.isfinite(verdict.gap) else None,
                "escalated": index in exact_values,
                "exact": False,
                "reused": reused[index],
                "seconds": sum(ran.values()),
            }
            if index in exact_values:
                low_entry, high_entry = exact_values[index]
                lo, hi, comp_exact = _escalated_interval(
                    component.problem, verdict, low_entry, high_entry
                )
                exact_components += 1
                deepest = max(deepest, ladder.index(TIER_EXACT))
                provenance["tier"] = TIER_EXACT
                provenance["exact"] = comp_exact
                if not comp_exact:
                    all_exact = False
            else:
                lo, hi = verdict.lower, verdict.upper
                all_exact = False
                if verdict.tier in ladder:
                    deepest = max(deepest, ladder.index(verdict.tier))
                if math.isfinite(verdict.gap):
                    worst_gap = max(worst_gap, verdict.gap)
                else:
                    worst_gap = max(worst_gap, hi - lo)
            component_tiers.append(provenance)
            lower_total += lo
            upper_total += hi
        if exact_seconds:
            tier_seconds[TIER_EXACT] = (
                tier_seconds.get(TIER_EXACT, 0.0) + exact_seconds
            )
        return TieredAnswer(
            lower=lower_total + constant,
            upper=upper_total + constant,
            exact=all_exact and exact_components == len(components),
            precision=precision,
            tier=ladder[deepest],
            components=len(components),
            exact_components=exact_components,
            estimated_components=len(components) - exact_components,
            escalations=len(escalate),
            gap=worst_gap,
            tier_seconds=tier_seconds,
            reused_components=sum(reused),
            stats={
                **stats,
                "components": len(components),
                "fingerprint": prepared.fingerprint,
                "solve_time": sum(tier_seconds.values()),
            },
            component_tiers=component_tiers,
        )

    def _answer_tight(self, session, prepared, options) -> TieredAnswer:
        """Every component exactly, through the session's fabric and
        caches.  A deadline-cut or node-limited answer is not exact."""
        components = prepared.components
        bounds = session.solve_prepared(prepared, options=options)
        stats = dict(bounds.stats)
        count = len(components)
        return TieredAnswer(
            lower=bounds.lower,
            upper=bounds.upper,
            exact=bounds.exact,
            precision=PRECISION_TIGHT,
            tier=TIER_EXACT,
            components=count,
            exact_components=count,
            estimated_components=0,
            escalations=0,
            gap=0.0,
            tier_seconds={TIER_EXACT: stats.get("solve_time", 0.0)},
            stats=stats,
            component_tiers=[
                {
                    "component": index,
                    "fingerprint": component.fingerprint,
                    "tier": TIER_EXACT,
                    "escalated": False,
                    "exact": bounds.exact,
                }
                for index, component in enumerate(components)
            ],
        )


def _escalated_interval(problem, verdict: TierInterval, low_entry, high_entry):
    """Fold an escalated component's solver entries into an interval.

    Optimal entries give the exact point; a deadline-truncated entry
    contributes its proven dual bound, intersected with whatever the
    estimator tiers already established (both are sound outer bounds).
    """
    exact = low_entry.status == "optimal" and high_entry.status == "optimal"
    lo = low_entry.objective if low_entry.status == "optimal" else low_entry.bound
    hi = high_entry.objective if high_entry.status == "optimal" else high_entry.bound
    if lo is None:
        lo = verdict.lower if verdict.lower is not None else free_bound(problem, "min")
    elif verdict.lower is not None:
        lo = max(lo, verdict.lower)
    if hi is None:
        hi = verdict.upper if verdict.upper is not None else free_bound(problem, "max")
    elif verdict.upper is not None:
        hi = min(hi, verdict.upper)
    return float(lo), float(hi), exact


__all__ = [
    "PRECISION_FAST",
    "PRECISION_BALANCED",
    "PRECISION_TIGHT",
    "TIER_EXACT",
    "DEFAULT_TOLERANCE",
    "TierInterval",
    "TieredAnswer",
    "TieredAnswerer",
    "default_estimators",
]
