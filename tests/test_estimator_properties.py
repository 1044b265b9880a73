"""The estimator soundness contract, property-tested (hypothesis):

For a random small BIP, every tier's one-sided bound contains the
brute-force exact optimum in both senses — an upper bound on the true
maximum, a lower bound on the true minimum — and no tier ever declares a
feasible instance infeasible.  The tiered cascade's intersected interval
(including its agreement short-circuit) therefore always contains the
exact ``[min, max]`` range: the short-circuit can stop *wider* than
exact, never tighter.  And a verdict kept on the prepared problem
answers exactly as the cascade that computed it.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import LinearConstraint
from repro.core.database import LICMModel
from repro.core.linexpr import LinearExpr
from repro.engine.session import SolveSession
from repro.errors import InfeasibleError
from repro.estimator import (
    ESTIMATE_BOUNDED,
    ESTIMATE_INFEASIBLE,
    PRECISION_BALANCED,
    PRECISION_FAST,
    EntropyEstimator,
    LPRelaxationEstimator,
    StructuralEstimator,
    TieredAnswerer,
)
from repro.solver.model import BIPConstraint, BIPProblem
from repro.solver.result import SolverOptions

TIERS = (StructuralEstimator(), EntropyEstimator(), LPRelaxationEstimator())


@st.composite
def random_bip(draw):
    """A small random BIP: mixed-sign objective, unit and non-unit rows."""
    num_vars = draw(st.integers(min_value=1, max_value=6))
    objective = {
        i: draw(st.integers(min_value=-4, max_value=4)) for i in range(num_vars)
    }
    constant = draw(st.integers(min_value=-5, max_value=5))
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        scope = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_vars - 1),
                min_size=1,
                max_size=num_vars,
                unique=True,
            )
        )
        unit = draw(st.booleans())
        terms = tuple(
            (1 if unit else draw(st.integers(min_value=1, max_value=3)), idx)
            for idx in scope
        )
        op = draw(st.sampled_from(["<=", ">=", "=="]))
        rhs = draw(st.integers(min_value=-1, max_value=len(scope) + 2))
        constraints.append(BIPConstraint(terms, op, rhs))
    return BIPProblem(
        num_vars=num_vars,
        constraints=constraints,
        objective={i: c for i, c in objective.items() if c},
        objective_constant=constant,
    )


def brute_force(problem):
    values = [
        problem.objective_value(x)
        for x in itertools.product((0, 1), repeat=problem.num_vars)
        if problem.is_feasible(list(x))
    ]
    return (min(values), max(values)) if values else None


@given(random_bip())
@settings(max_examples=60, deadline=None)
def test_every_tier_bound_contains_exact_in_both_senses(problem):
    exact = brute_force(problem)
    for estimator in TIERS:
        low = estimator.estimate(problem, "min")
        high = estimator.estimate(problem, "max")
        if exact is None:
            continue  # any claim is vacuously sound on an empty instance
        # A feasible instance must never be declared infeasible.
        assert ESTIMATE_INFEASIBLE not in (low.status, high.status), estimator.name
        if low.status == ESTIMATE_BOUNDED:
            assert low.bound <= exact[0] + 1e-9, (estimator.name, low)
        if high.status == ESTIMATE_BOUNDED:
            assert high.bound >= exact[1] - 1e-9, (estimator.name, high)


@given(random_bip(), st.sampled_from([1e-6, 0.5, 2.0]))
@settings(max_examples=60, deadline=None)
def test_cascade_interval_contains_exact_even_when_short_circuiting(
    problem, tolerance
):
    exact = brute_force(problem)
    interval = TieredAnswerer(tolerance=tolerance).estimate_interval(problem)
    if exact is None:
        return
    assert not interval.infeasible
    assert interval.bounded
    # The agreement short-circuit may stop wider than exact, never tighter.
    assert interval.lower <= exact[0] + 1e-9
    assert interval.upper >= exact[1] - 1e-9


def _answer_or_infeasible(answerer, session, objective, precision):
    try:
        answer = answerer.answer(session, session.prepare(objective, key="q"), precision)
    except InfeasibleError:
        return "infeasible"
    return (answer.lower, answer.upper, answer.tier, answer.gap, answer.escalations)


@given(
    random_bip(),
    st.sampled_from([PRECISION_FAST, PRECISION_BALANCED]),
    st.sampled_from([-1.0, 1e-6, 0.5, 2.0]),
)
@settings(max_examples=40, deadline=None)
def test_answering_twice_reuses_an_identical_verdict(problem, precision, tolerance):
    model = LICMModel()
    variables = model.new_vars(problem.num_vars)
    for row in problem.constraints:
        model.add(
            LinearConstraint(
                [(coef, variables[i].index) for coef, i in row.terms], row.op, row.rhs
            )
        )
    objective = LinearExpr(
        {variables[i].index: c for i, c in problem.objective.items()},
        problem.objective_constant,
    )
    answerer = TieredAnswerer(tolerance=tolerance)
    with SolveSession(model, options=SolverOptions(backend="bb")) as session:
        first = _answer_or_infeasible(answerer, session, objective, precision)
        again = _answer_or_infeasible(answerer, session, objective, precision)
        assert session.prepare(objective, key="q").verdicts  # the second one reused
    assert again == first
