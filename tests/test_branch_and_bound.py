"""The from-scratch branch-and-bound: unit tests plus hypothesis
cross-checks against brute force and the SciPy HiGHS backend."""

from itertools import product as iter_product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.solver.interface import solve
from repro.solver.model import BIPConstraint, BIPProblem
from repro.solver.result import SolverOptions
from repro.solver.scipy_backend import solve_bip_scipy


def _problem(constraints, num_vars, objective, constant=0):
    return BIPProblem(
        num_vars=num_vars,
        constraints=[BIPConstraint(tuple(t), op, rhs) for t, op, rhs in constraints],
        objective=objective,
        objective_constant=constant,
    )


def _brute_force(problem, sense):
    best = None
    for bits in iter_product((0, 1), repeat=problem.num_vars):
        if problem.is_feasible(list(bits)):
            value = problem.objective_value(list(bits))
            if best is None:
                best = value
            elif sense == "max":
                best = max(best, value)
            else:
                best = min(best, value)
    return best


BB = SolverOptions(backend="bb")


def test_simple_knapsack():
    problem = _problem(
        [(((3, 0), (4, 1), (5, 2)), "<=", 7)], 3, {0: 3, 1: 4, 2: 5}
    )
    solution = solve(problem, "max", BB)
    assert solution.status == "optimal"
    assert solution.objective == 7
    assert problem.is_feasible(solution.x)


def test_minimization():
    problem = _problem(
        [(((1, 0), (1, 1)), ">=", 1)], 2, {0: 2, 1: 3}
    )
    solution = solve(problem, "min", BB)
    assert solution.objective == 2
    assert solution.x[0] == 1


def test_infeasible():
    problem = _problem([(((1, 0),), ">=", 2)], 1, {0: 1})
    assert solve(problem, "max", BB).status == "infeasible"


def test_infeasible_equality_proven_by_cuts():
    # 3(x0 - x1 - x2) == -1 has a feasible LP relaxation but no binary
    # solution; cover cuts tighten the root LP until it goes empty, which
    # must surface as "infeasible" rather than a crash on a missing LP point.
    problem = _problem([(((3, 0), (-3, 1), (-3, 2)), "==", -1)], 3, {})
    assert solve(problem, "max", BB).status == "infeasible"


def test_scipy_retries_highs_presolve_error():
    # scipy 1.17 HiGHS presolve reports "Solve error" on this tiny
    # infeasible equality; the backend retries without presolve.
    problem = _problem([(((3, 0), (-2, 1), (-3, 2)), "==", -1)], 3, {})
    assert solve_bip_scipy(problem, "max").status == "infeasible"


def test_objective_constant_carried():
    problem = _problem([], 1, {0: 1}, constant=10)
    assert solve(problem, "max", BB).objective == 11
    assert solve(problem, "min", BB).objective == 10


def test_empty_problem():
    problem = _problem([], 0, {}, constant=4)
    solution = solve(problem, "max", BB)
    assert solution.status == "optimal"
    assert solution.objective == 4


def test_without_presolve_and_heuristics():
    options = SolverOptions(backend="bb", use_presolve=False, use_heuristics=False)
    problem = _problem(
        [(((1, 0), (1, 1), (1, 2)), "==", 2)], 3, {0: 1, 1: 2, 2: 3}
    )
    solution = solve(problem, "max", options)
    assert solution.objective == 5


@pytest.mark.parametrize("branching", ["most_fractional", "pseudocost", "first"])
def test_branching_rules_agree(branching):
    problem = _problem(
        [
            (((2, 0), (3, 1), (4, 2), (5, 3)), "<=", 8),
            (((1, 0), (1, 2)), ">=", 1),
        ],
        4,
        {0: 5, 1: 6, 2: 7, 3: 8},
    )
    options = SolverOptions(backend="bb", branching=branching)
    assert solve(problem, "max", options).objective == _brute_force(problem, "max")


@pytest.mark.parametrize("selection", ["best_bound", "dfs"])
def test_node_selection_rules_agree(selection):
    problem = _problem(
        [(((1, 0), (1, 1), (1, 2), (1, 3)), "==", 2)],
        4,
        {0: 1, 1: -2, 2: 3, 3: -4},
    )
    options = SolverOptions(backend="bb", node_selection=selection)
    assert solve(problem, "max", options).objective == _brute_force(problem, "max")


def test_node_limit_reports_limit_status():
    # A problem with enough symmetry to need > 1 node, with node_limit=0.
    # Node-0 seeding is disabled: it would prove this instance optimal
    # before the search (and its node limit) is ever consulted.
    problem = _problem(
        [(((2, 0), (2, 1), (2, 2)), "<=", 3)], 3, {0: 1, 1: 1, 2: 1}
    )
    options = SolverOptions(
        backend="bb", node_limit=0, use_presolve=False, seed_incumbent=False
    )
    solution = solve(problem, "max", options)
    assert solution.status == "limit"
    assert solution.bound is not None


@st.composite
def random_bip(draw):
    num_vars = draw(st.integers(1, 7))
    num_constraints = draw(st.integers(0, 6))
    constraints = []
    for _ in range(num_constraints):
        arity = draw(st.integers(1, min(3, num_vars)))
        indices = draw(
            st.lists(
                st.integers(0, num_vars - 1), min_size=arity, max_size=arity, unique=True
            )
        )
        coefs = draw(st.lists(st.integers(-3, 3), min_size=arity, max_size=arity))
        op = draw(st.sampled_from(["<=", ">=", "=="]))
        rhs = draw(st.integers(-2, 4))
        constraints.append((list(zip(coefs, indices)), op, rhs))
    objective = {
        i: draw(st.integers(-5, 5)) for i in range(num_vars) if draw(st.booleans())
    }
    return _problem(constraints, num_vars, objective)


@given(random_bip(), st.sampled_from(["max", "min"]))
@settings(max_examples=80, deadline=None)
def test_bb_matches_brute_force(problem, sense):
    expected = _brute_force(problem, sense)
    solution = solve(problem, sense, BB)
    if expected is None:
        assert solution.status == "infeasible"
    else:
        assert solution.status == "optimal"
        assert solution.objective == expected
        assert problem.is_feasible(solution.x)


KNAPSACK = _problem([([(3, 0), (4, 1), (5, 2)], "<=", 7)], 3, {0: 3, 1: 4, 2: 5})
INFEASIBLE = _problem([([(1, 0)], ">=", 2)], 1, {0: 1})


@given(random_bip(), st.sampled_from(["max", "min"]))
@example(KNAPSACK, "max")
@example(KNAPSACK, "min")
@example(INFEASIBLE, "max")
@settings(max_examples=50, deadline=None)
def test_bb_matches_scipy(problem, sense):
    ours = solve(problem, sense, BB)
    theirs = solve_bip_scipy(problem, sense)
    assert (ours.status == "infeasible") == (theirs.status == "infeasible")
    if ours.status == "optimal":
        assert ours.objective == theirs.objective
