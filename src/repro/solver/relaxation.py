"""LP relaxation of a BIP under branch fixings.

One engine: SciPy's HiGHS ``linprog`` over a sparse constraint matrix.  It
maximizes; the branch-and-bound negates for minimization.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError
from repro.solver.model import BIPProblem
from repro.solver.propagation import FREE, ONE, ZERO


def _bounds_from_domains(domains: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    lower = np.zeros(len(domains))
    upper = np.ones(len(domains))
    for idx, state in enumerate(domains):
        if state == ZERO:
            upper[idx] = 0.0
        elif state == ONE:
            lower[idx] = 1.0
    return lower, upper


def solve_relaxation(
    problem: BIPProblem,
    domains: Sequence[int],
) -> Tuple[str, float, Optional[np.ndarray]]:
    """Maximize the LP relaxation with variables boxed by branch domains.

    Returns ``(status, objective_value, x)`` — objective value *includes*
    the problem's objective constant.
    """
    lower, upper = _bounds_from_domains(domains)
    return _solve_highs(problem, lower, upper)


def relaxation_bound(problem: BIPProblem, sense: str = "max") -> Tuple[str, float]:
    """A valid one-sided bound on the 0/1 optimum from the pure relaxation.

    All variables are left free in ``[0, 1]`` (no branch fixings, no
    integrality), so the LP optimum dominates the integer optimum in the
    requested direction: an upper bound for ``sense="max"``, a lower
    bound for ``sense="min"`` (via the negated objective).  Because the
    BIP objective and constant are integral, the fractional value is
    rounded inward — still sound, often exact.  Returns
    ``(status, bound)``; the bound is meaningful only when ``status`` is
    ``"optimal"``.
    """
    if problem.num_vars == 0:
        return "optimal", float(problem.objective_constant)
    domains = [FREE] * problem.num_vars
    if sense == "max":
        status, value, _ = solve_relaxation(problem, domains)
        if status != "optimal":
            return status, 0.0
        return status, float(np.floor(value + 1e-9))
    negated = BIPProblem(
        num_vars=problem.num_vars,
        constraints=list(problem.constraints),
        objective={idx: -coef for idx, coef in problem.objective.items()},
        objective_constant=-problem.objective_constant,
        names=list(problem.names),
    )
    status, value, _ = solve_relaxation(negated, domains)
    if status != "optimal":
        return status, 0.0
    return status, float(np.ceil(-value - 1e-9))


def _objective_vector(problem: BIPProblem) -> np.ndarray:
    c = np.zeros(problem.num_vars)
    for idx, coef in problem.objective.items():
        c[idx] = coef
    return c


def _solve_highs(problem, lower, upper):
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n = problem.num_vars
    ub_rows, ub_cols, ub_data, ub_rhs = [], [], [], []
    eq_rows, eq_cols, eq_data, eq_rhs = [], [], [], []
    for constraint in problem.constraints:
        if constraint.op == "==":
            row_idx = len(eq_rhs)
            for coef, idx in constraint.terms:
                eq_rows.append(row_idx)
                eq_cols.append(idx)
                eq_data.append(float(coef))
            eq_rhs.append(float(constraint.rhs))
        else:
            sign = 1.0 if constraint.op == "<=" else -1.0
            row_idx = len(ub_rhs)
            for coef, idx in constraint.terms:
                ub_rows.append(row_idx)
                ub_cols.append(idx)
                ub_data.append(sign * float(coef))
            ub_rhs.append(sign * float(constraint.rhs))

    kwargs = {}
    if ub_rhs:
        kwargs["A_ub"] = csr_matrix((ub_data, (ub_rows, ub_cols)), shape=(len(ub_rhs), n))
        kwargs["b_ub"] = np.array(ub_rhs)
    if eq_rhs:
        kwargs["A_eq"] = csr_matrix((eq_data, (eq_rows, eq_cols)), shape=(len(eq_rhs), n))
        kwargs["b_eq"] = np.array(eq_rhs)

    result = linprog(
        -_objective_vector(problem),  # linprog minimizes
        bounds=np.column_stack([lower, upper]),
        method="highs",
        **kwargs,
    )
    if result.status == 2:
        return "infeasible", 0.0, None
    if not result.success:
        raise SolverError(f"HiGHS LP failed: {result.message}")
    return "optimal", -result.fun + problem.objective_constant, result.x
