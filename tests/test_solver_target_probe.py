"""The SciPy backend's target-fixing probe and its cancellation polls.

Before each HiGHS optimisation the backend asks for any feasible point with
every objective variable pinned at its best value; such a point attains the
trivial bound and is optimal.  These tests check the probe against brute
force, the fall-through when it is refuted, its time accounting, its
counters, and that an already-cancelled solve never reaches HiGHS.
"""

from __future__ import annotations

import time
from itertools import product as iter_product

import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import counter_totals, delta
from repro.obs.tracer import Tracer, activate
from repro.solver.interface import solve
from repro.solver.model import BIPConstraint, BIPProblem
from repro.solver.result import SolverOptions
from repro.solver.scipy_backend import PROBE_NODE_LIMIT

SCIPY = SolverOptions(backend="scipy")


def _problem(constraints, num_vars, objective, constant=0):
    return BIPProblem(
        num_vars=num_vars,
        constraints=[BIPConstraint(tuple(t), op, rhs) for t, op, rhs in constraints],
        objective=objective,
        objective_constant=constant,
    )


def _brute_force(problem, sense):
    """The optimum over every 0/1 point, or ``None`` if none is feasible."""
    values = [
        problem.objective_value(bits)
        for bits in iter_product((0, 1), repeat=problem.num_vars)
        if problem.is_feasible(list(bits))
    ]
    if not values:
        return None
    return max(values) if sense == "max" else min(values)


@pytest.fixture
def milp_calls(monkeypatch):
    """Every ``scipy.optimize.milp`` call's ``options``, in call order."""
    calls = []
    real = scipy.optimize.milp

    def recording(*args, **kwargs):
        calls.append(dict(kwargs.get("options") or {}))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", recording)
    return calls


@st.composite
def small_bip(draw):
    """At most 10 variables, mixed-sign objectives (possibly empty) with a
    constant, and ``<=``/``>=``/``==`` rows that may admit no point."""
    num_vars = draw(st.integers(1, 10))
    constraints = []
    for _ in range(draw(st.integers(0, 6))):
        arity = draw(st.integers(1, min(4, num_vars)))
        indices = draw(
            st.lists(st.integers(0, num_vars - 1), min_size=arity, max_size=arity, unique=True)
        )
        coefs = draw(st.lists(st.integers(-3, 3), min_size=arity, max_size=arity))
        op = draw(st.sampled_from(["<=", ">=", "=="]))
        constraints.append((list(zip(coefs, indices)), op, draw(st.integers(-2, 4))))
    objective = {
        i: draw(st.integers(-5, 5)) for i in range(num_vars) if draw(st.booleans())
    }
    return _problem(constraints, num_vars, objective, draw(st.integers(-10, 10)))


TRIVIAL = _problem([([(1, 0), (1, 1)], ">=", 1)], 3, {0: 2, 1: 3, 2: -1}, constant=5)
REFUTED = _problem([([(1, 0), (1, 1)], "<=", 1)], 2, {0: 1, 1: 1})
INFEASIBLE = _problem([([(1, 0)], ">=", 2)], 1, {0: 1})
EMPTY_OBJECTIVE = _problem([([(1, 0), (1, 1)], "==", 1)], 2, {}, constant=3)


@given(small_bip(), st.sampled_from(["max", "min"]))
@example(TRIVIAL, "max")
@example(TRIVIAL, "min")
@example(REFUTED, "max")
@example(INFEASIBLE, "min")
@example(EMPTY_OBJECTIVE, "max")
@settings(max_examples=120, deadline=None)
def test_scipy_matches_brute_force(problem, sense):
    expected = _brute_force(problem, sense)
    solution = solve(problem, sense, SCIPY)
    if expected is None:
        assert solution.status == "infeasible"
        assert solution.x is None
        return
    assert solution.status == "optimal"
    assert solution.objective == expected
    assert solution.bound == float(expected)
    assert problem.is_feasible(solution.x)
    assert problem.objective_value(solution.x) == expected


def test_trivial_optimum_is_proved_by_the_probe(milp_calls):
    before = counter_totals()
    solution = solve(TRIVIAL, "max", SCIPY)
    assert solution.status == "optimal"
    assert solution.objective == 5 + 2 + 3
    assert TRIVIAL.is_feasible(solution.x)
    assert len(milp_calls) == 1 and milp_calls[0]["node_limit"] == PROBE_NODE_LIMIT
    moved = delta(before, counter_totals())
    assert moved.get("target_probe_proved") == 1
    assert "target_probe_refuted" not in moved


def test_refuted_probe_falls_through_to_the_solve(milp_calls):
    before = counter_totals()
    solution = solve(REFUTED, "max", SCIPY)
    assert solution.status == "optimal"
    assert solution.objective == 1  # not the trivial bound 2
    assert REFUTED.is_feasible(solution.x)
    assert len(milp_calls) == 2
    assert "node_limit" not in milp_calls[1]
    assert delta(before, counter_totals()).get("target_probe_refuted") == 1


def test_infeasible_problem_stays_infeasible():
    assert solve(INFEASIBLE, "max", SCIPY).status == "infeasible"
    assert solve(INFEASIBLE, "min", SCIPY).status == "infeasible"


def test_empty_objective_makes_one_milp_call(milp_calls):
    solution = solve(EMPTY_OBJECTIVE, "min", SCIPY)
    assert solution.status == "optimal" and solution.objective == 3
    assert len(milp_calls) == 1
    assert "node_limit" not in milp_calls[0]


def test_fallback_gets_the_time_the_probe_left(monkeypatch):
    calls = []
    real = scipy.optimize.milp

    def slow_probe(*args, **kwargs):
        calls.append(dict(kwargs["options"]))
        if len(calls) == 1:
            time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", slow_probe)
    solution = solve(REFUTED, "max", SolverOptions(backend="scipy", time_limit=5.0))
    assert solution.objective == 1
    assert calls[0]["time_limit"] == 5.0
    assert calls[1]["time_limit"] <= 5.0 - 0.2


def test_probe_outcome_is_a_solver_span_attribute():
    tracer = Tracer()
    with activate(tracer):
        solve(TRIVIAL, "max", SCIPY)
        solve(REFUTED, "max", SCIPY)
    spans = [span for span in tracer.spans if span.name == "solver.solve"]
    assert [span.attributes.get("probe") for span in spans] == ["proved", "refuted"]


@pytest.mark.parametrize(
    "options",
    [
        SolverOptions(backend="scipy", stop_check=lambda: True),
        SolverOptions(backend="scipy", deadline_at=time.monotonic() - 1.0),
    ],
    ids=["stop_check", "expired_deadline"],
)
def test_cancelled_solve_never_reaches_highs(monkeypatch, options):
    def refuse(*args, **kwargs):
        raise AssertionError("milp called on a cancelled solve")

    monkeypatch.setattr(scipy.optimize, "milp", refuse)
    solution = solve(TRIVIAL, "min", options)
    assert solution.status == "limit"
    assert solution.nodes == 0 and solution.x is None and solution.objective is None


def test_cancellation_between_probe_and_solve():
    polls = iter([False, True])
    options = SolverOptions(backend="scipy", stop_check=lambda: next(polls))
    solution = solve(REFUTED, "max", options)
    assert solution.status == "limit" and solution.x is None
