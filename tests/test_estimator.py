"""The estimator tiers and the tiered answering policy.

Unit-level soundness on hand-built BIPs (each tier's interval contains the
brute-force exact range), the cascade's short-circuit and escalation
policy, and the cache-hygiene contract: estimator verdicts live only on
the prepared problem, keyed by the answerer that computed them — the
session's L1/L2 solve caches never see them, so a ``fast`` answer can
never poison a later ``tight`` one (the service-level half of that
guarantee lives in tests/test_service_scheduler.py).
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import Counter

import pytest

from repro.core.database import LICMModel
from repro.core.linexpr import LinearExpr
from repro.engine.session import SolveSession
from repro.errors import InfeasibleError
from repro.estimator import (
    ESTIMATE_BOUNDED,
    ESTIMATE_INFEASIBLE,
    PRECISION_BALANCED,
    PRECISION_FAST,
    PRECISION_TIGHT,
    TIER_EXACT,
    BoundEstimator,
    EntropyEstimator,
    EstimateResult,
    LPRelaxationEstimator,
    StructuralEstimator,
    TieredAnswerer,
    default_estimators,
    free_bound,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.queries.licm_eval import evaluate_licm
from repro.solver.model import BIPConstraint, BIPProblem

ALL_TIERS = (StructuralEstimator(), EntropyEstimator(), LPRelaxationEstimator())


def brute_force(problem: BIPProblem):
    """Exact [min, max] by enumeration (None when infeasible)."""
    values = [
        problem.objective_value(x)
        for x in itertools.product((0, 1), repeat=problem.num_vars)
        if problem.is_feasible(list(x))
    ]
    if not values:
        return None
    return min(values), max(values)


def make_problem(num_vars, rows, objective, constant=0):
    return BIPProblem(
        num_vars=num_vars,
        constraints=[BIPConstraint(tuple(t), op, rhs) for t, op, rhs in rows],
        objective=dict(objective),
        objective_constant=constant,
    )


#: x0..x3, unit objective; exact range is [1, 2] but the three tiers see
#: [1,3] (structural), [0,2] (entropy) and [1,2] (LP) — no two consecutive
#: tiers agree, which is what the escalation tests need.
DISAGREEING = make_problem(
    4,
    [
        ([(1, 0), (1, 1)], "<=", 1),
        ([(1, 2), (1, 3)], "<=", 1),
        ([(1, 0), (1, 2)], ">=", 1),
    ],
    {0: 1, 1: 1, 2: 1, 3: 1},
)

#: One unit row the first two tiers bound identically ([0, 2]) — the
#: cascade must short-circuit before the LP tier.
AGREEING = make_problem(
    3,
    [([(1, 0), (1, 1), (1, 2)], "<=", 2)],
    {0: 1, 1: 1, 2: 1},
)


# -- per-tier soundness on hand-built problems -----------------------------
@pytest.mark.parametrize("estimator", ALL_TIERS, ids=lambda e: e.name)
@pytest.mark.parametrize(
    "problem",
    [
        DISAGREEING,
        AGREEING,
        make_problem(3, [], {0: 2, 1: -1, 2: 3}, constant=5),
        make_problem(
            4,
            [([(1, 0), (1, 1), (1, 2)], "==", 2), ([(1, 2), (1, 3)], ">=", 1)],
            {0: -2, 1: 1, 2: 4, 3: -3},
        ),
        make_problem(3, [([(2, 0), (3, 1)], "<=", 4)], {0: 1, 1: 1, 2: -2}),
    ],
    ids=["disagreeing", "agreeing", "free", "mixed", "nonunit"],
)
def test_every_tier_interval_contains_exact(estimator, problem):
    exact = brute_force(problem)
    assert exact is not None
    low = estimator.estimate(problem, "min")
    high = estimator.estimate(problem, "max")
    assert low.status == high.status == ESTIMATE_BOUNDED
    assert low.bound <= exact[0] + 1e-9
    assert high.bound >= exact[1] - 1e-9
    assert isinstance(estimator, BoundEstimator)


def test_structural_is_exact_on_constraint_free_blocks():
    problem = make_problem(3, [], {0: 2, 1: -1, 2: 3}, constant=5)
    high = StructuralEstimator().estimate(problem, "max")
    low = StructuralEstimator().estimate(problem, "min")
    assert (low.bound, high.bound) == (4.0, 10.0)  # exact, not just a bound
    assert high.detail.get("exact") is True


def test_structural_detects_single_row_infeasibility():
    problem = make_problem(2, [([(1, 0), (1, 1)], "==", 5)], {0: 1, 1: 1})
    result = StructuralEstimator().estimate(problem, "max")
    assert result.status == ESTIMATE_INFEASIBLE
    assert result.bound is None


def test_entropy_budget_caps_covered_positives():
    # Two disjoint <=1 rows over four +1 coefficients: budget 2 of 4.
    high = EntropyEstimator().estimate(DISAGREEING, "max")
    assert high.bound == 2.0
    assert high.detail["capacity_budget"] == 2
    assert high.detail["covered_variables"] == 4
    # C(4,0)+C(4,1)+C(4,2) = 11 admissible on-patterns.
    assert high.detail["capacity_bits"] == pytest.approx(math.log2(11), abs=1e-3)


def test_lp_tier_matches_known_relaxation_values():
    low = LPRelaxationEstimator().estimate(DISAGREEING, "min")
    high = LPRelaxationEstimator().estimate(DISAGREEING, "max")
    assert (low.bound, high.bound) == (1.0, 2.0)


def test_free_bound_drops_every_constraint():
    assert free_bound(DISAGREEING, "max") == 4.0
    assert free_bound(DISAGREEING, "min") == 0.0


# -- the cascade ------------------------------------------------------------
class CountingLP(LPRelaxationEstimator):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def estimate(self, prepared_component, sense):
        self.calls += 1
        return super().estimate(prepared_component, sense)


def test_agreement_short_circuits_before_the_lp_tier():
    lp = CountingLP()
    answerer = TieredAnswerer(
        estimators=(StructuralEstimator(), EntropyEstimator(), lp)
    )
    interval = answerer.estimate_interval(AGREEING)
    assert interval.agreed and interval.gap == 0.0
    assert interval.tier == "entropy"
    assert lp.calls == 0
    exact = brute_force(AGREEING)
    assert interval.lower <= exact[0] <= exact[1] <= interval.upper


def test_disagreeing_tiers_intersect_without_going_inside_exact():
    interval = TieredAnswerer().estimate_interval(DISAGREEING)
    assert not interval.agreed
    assert interval.tier == "lp"
    assert interval.gap == 1.0  # entropy vs structural / lp vs entropy
    assert (interval.lower, interval.upper) == (1.0, 2.0)  # == exact here


def test_estimators_sorted_cheapest_first_regardless_of_input_order():
    answerer = TieredAnswerer(
        estimators=(LPRelaxationEstimator(), StructuralEstimator(), EntropyEstimator())
    )
    assert [e.name for e in answerer.estimators] == ["structural", "entropy", "lp"]


class CountingTier:
    """Delegates to a real tier and counts cascades per fingerprint."""

    def __init__(self, inner):
        self.inner = inner
        self.name, self.cost, self.validity = inner.name, inner.cost, inner.validity
        self.calls = Counter()

    def estimate(self, prepared_component, sense):
        self.calls[prepared_component.fingerprint] += 1
        return self.inner.estimate(prepared_component, sense)


def counting_answerer(tolerance=1e-6):
    tiers = [CountingTier(tier) for tier in default_estimators()]
    return TieredAnswerer(estimators=tiers, tolerance=tolerance), tiers[0]


def _repeated_block_model():
    """Two identical <=1 blocks (one fingerprint), a block whose tiers
    disagree, and two variables outside the objective."""
    model = LICMModel()
    v = model.new_vars(11)
    model.add((v[0] + v[1] + v[2]) <= 1)
    model.add((v[3] + v[4] + v[5]) <= 1)
    model.add((v[6] + v[7]) >= 1)
    model.add((v[6] + v[8]) <= 1)
    objective = LinearExpr({var.index: 1 for var in v[:9]}, 0)
    return model, v, objective


def test_verdicts_are_kept_per_prepared_problem_and_answerer():
    model, v, objective = _repeated_block_model()
    with SolveSession(model) as session:
        prepared = session.prepare(objective, key="q")
        fingerprints = [c.fingerprint for c in prepared.components]
        assert len(set(fingerprints)) < len(fingerprints)  # a repeated block
        answerer, structural = counting_answerer()

        answers = [
            answerer.answer(session, session.prepare(objective, key="q"), precision)
            for precision in (PRECISION_FAST, PRECISION_FAST, PRECISION_BALANCED)
        ]
        # One cascade (min + max) per distinct fingerprint, across all
        # three requests and the memo hits between them.
        assert structural.calls == {fp: 2 for fp in fingerprints}
        first, second, balanced = answers
        assert [t["reused"] for t in first.component_tiers] == [
            fingerprints.index(fp) != i for i, fp in enumerate(fingerprints)
        ]
        assert all(t["reused"] for t in second.component_tiers)
        assert second.reused_components == len(fingerprints)
        assert second.tier_seconds == {}
        assert all(t["seconds"] == 0.0 for t in second.component_tiers)
        for field in ("lower", "upper", "tier", "gap", "escalations"):
            assert getattr(first, field) == getattr(second, field)
        assert 0 < balanced.escalations < balanced.components

        # Another ladder/tolerance never reads those verdicts.
        strict, strict_structural = counting_answerer(tolerance=-1.0)
        escalated = strict.answer(session, prepared, PRECISION_BALANCED)
        assert strict_structural.calls == {fp: 2 for fp in fingerprints}
        assert escalated.escalations == escalated.components
        assert escalated.exact
        assert structural.calls == {fp: 2 for fp in fingerprints}

        # A base append clears the prepared memo: the rebuilt problem
        # (same fingerprints) runs the cascade again.
        model.add((v[9] + v[10]) <= 1)
        rebuilt = session.prepare(objective, key="q")
        assert rebuilt is not prepared and not rebuilt.verdicts
        assert [c.fingerprint for c in rebuilt.components] == fingerprints
        answerer.answer(session, rebuilt, PRECISION_FAST)
        assert structural.calls == {fp: 4 for fp in fingerprints}


def test_cache_size_zero_reuses_no_verdict():
    model, _, objective = _repeated_block_model()
    with SolveSession(model, cache_size=0) as session:
        answerer, structural = counting_answerer()
        for _ in range(2):
            answerer.answer(session, session.prepare(objective), PRECISION_FAST)
    assert set(structural.calls.values()) == {4}


# -- the answer() policy against a real session ----------------------------
@pytest.fixture(scope="module")
def workload():
    config = ExperimentConfig(
        num_transactions=80, num_items=32, k_values=(2,), mc_samples=4, seed=5
    )
    context = ExperimentContext(config)
    encoded = context.encoding("km", 2).encoded
    plan = context.plan("Q1", encoded)
    objective = evaluate_licm(plan, encoded.relations)
    yield encoded, objective
    context.close()


@pytest.fixture()
def session(workload):
    encoded, _ = workload
    with SolveSession(encoded.model) as sess:
        yield sess


def test_fast_answer_contains_exact_and_never_touches_l1(workload, session):
    encoded, objective = workload
    prepared = session.prepare(objective)
    exact = session.solve_prepared(prepared)
    session.cache.clear()

    answer = TieredAnswerer().answer(session, prepared, PRECISION_FAST)
    assert answer.precision == PRECISION_FAST
    assert answer.lower <= exact.lower <= exact.upper <= answer.upper
    assert not answer.exact
    assert answer.estimated_components == answer.components
    assert answer.exact_components == 0 and answer.escalations == 0
    assert answer.tier in {e.name for e in default_estimators()}
    assert prepared.verdicts  # the verdicts stay on the prepared problem ...
    assert len(session.cache) == 0  # ... and the shared L1 never sees them
    # A tight answer on the same problem never reads them.
    tight = TieredAnswerer().answer(session, prepared, PRECISION_TIGHT)
    assert (tight.lower, tight.upper) == (exact.lower, exact.upper)
    assert tight.exact


def test_balanced_escalation_reaches_the_exact_answer(workload, session):
    encoded, objective = workload
    prepared = session.prepare(objective)
    exact = session.solve_prepared(prepared)
    # tolerance -1 makes agreement impossible: balanced escalates every
    # component, so the answer must equal the exact one bit-for-bit.
    answerer = TieredAnswerer(tolerance=-1.0)
    answer = answerer.answer(session, prepared, PRECISION_BALANCED)
    assert (answer.lower, answer.upper) == (exact.lower, exact.upper)
    assert answer.exact
    assert answer.tier == TIER_EXACT
    assert answer.escalations == answer.components
    assert answer.exact_components == answer.components


def test_tight_precision_is_the_exact_path(workload, session):
    encoded, objective = workload
    prepared = session.prepare(objective)
    exact = session.solve_prepared(prepared)
    answer = TieredAnswerer().answer(session, prepared, PRECISION_TIGHT)
    assert (answer.lower, answer.upper) == (exact.lower, exact.upper)
    assert answer.exact and answer.tier == TIER_EXACT and answer.gap == 0.0
    assert answer.estimated_components == 0


def test_two_threads_answering_one_prepared_problem_agree(workload, session):
    _, objective = workload
    prepared = session.prepare(objective)
    answerer = TieredAnswerer()
    barrier = threading.Barrier(2)
    answers = [None, None]

    def run(slot):
        barrier.wait()
        answers[slot] = answerer.answer(session, prepared, PRECISION_FAST)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    first, second = answers
    assert (first.lower, first.upper, first.tier, first.gap, first.escalations) == (
        second.lower, second.upper, second.tier, second.gap, second.escalations
    )
    assert len(prepared.verdicts) == len({
        c.fingerprint for c in prepared.components
    })
    again = answerer.answer(session, prepared, PRECISION_FAST)
    assert (again.lower, again.upper) == (first.lower, first.upper)
    assert again.reused_components == again.components


def test_escalated_infeasible_component_raises(session, workload):
    encoded, objective = workload
    from repro.core.constraints import LinearConstraint

    variables = sorted(objective.coeffs)[:2]
    prepared = session.prepare(
        objective,
        extra_constraints=[
            LinearConstraint([(1, variables[0])], "==", 1),
            LinearConstraint([(1, variables[0])], "==", 0),
        ],
    )
    with pytest.raises(InfeasibleError):
        TieredAnswerer().answer(session, prepared, PRECISION_FAST)


def test_estimate_result_bounded_property():
    result = EstimateResult(
        sense="max", bound=None, status="unavailable",
        tier="t", validity="v", cost="cheap",
    )
    assert not result.bounded
