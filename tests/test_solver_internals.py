"""Deeper coverage of solver internals: heuristics, relaxation engines,
scipy edge cases, Solution/SolverOptions behavior."""

import pytest

from repro.errors import SolverError
from repro.solver.heuristics import round_and_repair
from repro.solver.interface import maximize, minimize, solve
from repro.solver.model import BIPConstraint, BIPProblem
from repro.solver.propagation import FREE, ONE, ZERO
from repro.solver.relaxation import solve_relaxation
from repro.solver.result import Solution, SolverOptions
from repro.solver.scipy_backend import solve_bip_scipy


def _problem(constraints, num_vars, objective, constant=0):
    return BIPProblem(
        num_vars=num_vars,
        constraints=[BIPConstraint(tuple(t), op, rhs) for t, op, rhs in constraints],
        objective=objective,
        objective_constant=constant,
    )


# --- heuristics -------------------------------------------------------------


def test_repair_fixes_violated_ge():
    problem = _problem([(((1, 0), (1, 1)), ">=", 1)], 2, {0: 1})
    x = round_and_repair(problem, [0.2, 0.3], [FREE, FREE])
    assert x is not None
    assert problem.is_feasible(x)


def test_repair_fixes_violated_le():
    problem = _problem([(((1, 0), (1, 1), (1, 2)), "<=", 1)], 3, {0: 1})
    x = round_and_repair(problem, [0.9, 0.9, 0.9], [FREE, FREE, FREE])
    assert x is not None
    assert problem.is_feasible(x)


def test_repair_respects_fixed_domains():
    problem = _problem([(((1, 0), (1, 1)), "<=", 1)], 2, {0: 1})
    x = round_and_repair(problem, [0.9, 0.9], [ONE, FREE])
    assert x is not None
    assert x[0] == 1 and x[1] == 0


def test_repair_gives_up_when_fixed_vars_conflict():
    problem = _problem([(((1, 0), (1, 1)), "<=", 1)], 2, {})
    x = round_and_repair(problem, [0.9, 0.9], [ONE, ONE])
    assert x is None


def test_repair_feasible_point_returned_unchanged():
    problem = _problem([(((1, 0),), "<=", 1)], 1, {0: 1})
    assert round_and_repair(problem, [0.9], [FREE]) == [1]


# --- relaxation --------------------------------------------------------------


def test_relaxation_optimum_includes_constant():
    problem = _problem(
        [(((2, 0), (3, 1)), "<=", 4), (((1, 0), (1, 1)), ">=", 1)],
        2,
        {0: 3, 1: 5},
        constant=2,
    )
    status, value, x = solve_relaxation(problem, [FREE, FREE])
    assert status == "optimal"
    # LP optimum: x1 = 1, x0 = 1/2 -> 3*0.5 + 5 + 2 = 8.5
    assert value == pytest.approx(8.5)


def test_relaxation_respects_domains():
    problem = _problem([], 2, {0: 1, 1: 1})
    status, value, x = solve_relaxation(problem, [ZERO, ONE])
    assert status == "optimal"
    assert value == pytest.approx(1.0)
    assert x[0] == pytest.approx(0.0)
    assert x[1] == pytest.approx(1.0)


def test_relaxation_infeasible():
    problem = _problem([(((1, 0),), ">=", 1)], 1, {0: 1})
    status, _, _ = solve_relaxation(problem, [ZERO])
    assert status == "infeasible"


# --- scipy backend edge cases -------------------------------------------------


def test_scipy_empty_problem():
    problem = _problem([], 0, {}, constant=3)
    solution = solve_bip_scipy(problem, "max")
    assert solution.status == "optimal"
    assert solution.objective == 3


def test_scipy_unconstrained():
    problem = _problem([], 3, {0: 2, 1: -1, 2: 0})
    solution = solve_bip_scipy(problem, "max")
    assert solution.objective == 2
    solution = solve_bip_scipy(problem, "min")
    assert solution.objective == -1


def test_scipy_reports_infeasible():
    problem = _problem([(((1, 0),), ">=", 1), (((1, 0),), "<=", 0)], 1, {0: 1})
    assert solve_bip_scipy(problem, "max").status == "infeasible"


# --- facade / result -----------------------------------------------------------


def test_interface_rejects_bad_sense():
    problem = _problem([], 1, {0: 1})
    with pytest.raises(SolverError):
        solve(problem, "maximize")


def test_interface_rejects_bad_backend():
    problem = _problem([], 1, {0: 1})
    with pytest.raises(SolverError):
        solve(problem, "max", SolverOptions(backend="gurobi"))


def test_maximize_minimize_shorthands():
    problem = _problem([(((1, 0), (1, 1)), "==", 1)], 2, {0: 5, 1: 2})
    assert maximize(problem).objective == 5
    assert minimize(problem).objective == 2


def test_solution_gap():
    assert Solution(status="optimal", objective=5, bound=5.0).gap == 0.0
    assert Solution(status="limit", objective=3, bound=7.0).gap == 4.0
    assert Solution(status="limit", objective=None, bound=7.0).gap is None


def test_auto_backend_resolves_to_scipy():
    from repro.solver.interface import _resolve_backend

    assert _resolve_backend("auto") == "scipy"
    assert _resolve_backend("bb") == "bb"
    assert _resolve_backend("scipy") == "scipy"
