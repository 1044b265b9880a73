"""SciPy (HiGHS) MILP backend.

The paper uses IBM CPLEX as its off-the-shelf solver; SciPy's bundled HiGHS
is this reproduction's off-the-shelf equivalent.  The from-scratch
branch-and-bound (``backend='bb'``) cross-checks it in tests and serves as
the ablation point.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SolverError
from repro.obs.tracer import Stopwatch
from repro.solver.model import BIPProblem
from repro.solver.result import Solution, SolverOptions


def solve_bip_scipy(
    problem: BIPProblem, sense: str = "max", options: Optional[SolverOptions] = None
) -> Solution:
    """Optimize a binary program with ``scipy.optimize.milp``."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    options = options or SolverOptions()
    clock = Stopwatch()
    n = problem.num_vars
    sign = -1.0 if sense == "max" else 1.0  # milp minimizes

    c = np.zeros(n)
    for idx, coef in problem.objective.items():
        c[idx] = sign * coef

    if n == 0:
        return Solution(
            status="optimal",
            objective=problem.objective_constant,
            x=[],
            bound=float(problem.objective_constant),
            solve_time=clock.elapsed,
            backend="scipy",
        )

    rows, cols, data, lower, upper = [], [], [], [], []
    for constraint in problem.constraints:
        row_idx = len(lower)
        for coef, idx in constraint.terms:
            rows.append(row_idx)
            cols.append(idx)
            data.append(float(coef))
        if constraint.op == "<=":
            lower.append(-np.inf)
            upper.append(float(constraint.rhs))
        elif constraint.op == ">=":
            lower.append(float(constraint.rhs))
            upper.append(np.inf)
        else:
            lower.append(float(constraint.rhs))
            upper.append(float(constraint.rhs))

    kwargs = {}
    if lower:
        matrix = csr_matrix((data, (rows, cols)), shape=(len(lower), n))
        kwargs["constraints"] = LinearConstraint(matrix, lower, upper)

    result = milp(
        c,
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"time_limit": options.time_limit},
        **kwargs,
    )
    if result.status == 4:
        # HiGHS presolve occasionally reports "Solve error" on tiny
        # infeasible equality systems; retrying without presolve yields a
        # definitive verdict.
        result = milp(
            c,
            integrality=np.ones(n),
            bounds=Bounds(0, 1),
            options={"time_limit": options.time_limit, "presolve": False},
            **kwargs,
        )
    elapsed = clock.stop()

    if result.status == 2:  # infeasible
        return Solution(status="infeasible", solve_time=elapsed, backend="scipy")
    if result.status == 1:  # iteration/time limit
        objective = None
        x = None
        if result.x is not None:
            x = [int(round(v)) for v in result.x]
            objective = problem.objective_value(x)
        bound = None
        if result.mip_dual_bound is not None:
            bound = sign * result.mip_dual_bound + problem.objective_constant
        return Solution(
            status="limit",
            objective=objective,
            x=x,
            bound=bound,
            solve_time=elapsed,
            backend="scipy",
        )
    if not result.success:
        raise SolverError(f"scipy.milp failed: {result.message}")

    x = [int(round(v)) for v in result.x]
    objective = problem.objective_value(x)
    return Solution(
        status="optimal",
        objective=objective,
        x=x,
        bound=float(objective),
        nodes=int(getattr(result, "mip_node_count", 0) or 0),
        solve_time=elapsed,
        backend="scipy",
    )
