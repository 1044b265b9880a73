"""SciPy (HiGHS) MILP backend.

The paper uses IBM CPLEX as its off-the-shelf solver; SciPy's bundled HiGHS
is this reproduction's off-the-shelf equivalent.  The from-scratch
branch-and-bound (``backend='bb'``) cross-checks it in tests and serves as
the ablation point.

Every solve first runs a *target-fixing probe*: a feasibility problem with
each objective variable pinned at its best value.  A feasible point there
attains the trivial bound (``c0 + Σ max(c, 0)`` for max, ``c0 + Σ min(c, 0)``
for min), which no point can beat, so it is optimal.  The k-anonymity and
k^m Query 3 optima are exactly that bound, and HiGHS finds a point with the
objective fixed far faster than it closes the optimisation.  Any other
probe outcome falls through to the plain solve.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SolverError
from repro.obs.export import count
from repro.obs.tracer import Stopwatch, current_tracer
from repro.solver.model import BIPProblem
from repro.solver.result import Solution, SolverOptions

#: HiGHS node cap of the target-fixing probe.  The probes that attain the
#: trivial bound on the Query 3 workloads close at the root node, so a
#: refuted or hard probe costs at most a root solve before the plain solve
#: takes over.
PROBE_NODE_LIMIT = 1


def solve_bip_scipy(
    problem: BIPProblem, sense: str = "max", options: Optional[SolverOptions] = None
) -> Solution:
    """Optimize a binary program with ``scipy.optimize.milp``.

    HiGHS cannot poll :meth:`SolverOptions.should_stop` mid-solve, so the
    cancellation sources are polled before each HiGHS call instead; a
    fired poll returns ``'limit'`` with no point.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    options = options or SolverOptions()
    clock = Stopwatch()
    if options.should_stop():
        return _cancelled(clock)
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

    kwargs = {}
    constraints = problem.constraints
    if constraints:
        terms = np.array([t for c in constraints for t in c.terms], dtype=float).reshape(-1, 2)
        rows = np.repeat(np.arange(len(constraints)), [len(c.terms) for c in constraints])
        rhs = np.array([c.rhs for c in constraints], dtype=float)
        ops = np.array([c.op for c in constraints])
        matrix = csr_matrix(
            (terms[:, 0], (rows, terms[:, 1].astype(int))), shape=(len(constraints), n)
        )
        kwargs["constraints"] = LinearConstraint(
            matrix, np.where(ops == "<=", -np.inf, rhs), np.where(ops == ">=", np.inf, rhs)
        )

    time_limit = options.time_limit
    if any(problem.objective.values()):
        proved = _target_probe(problem, sense, options.time_limit, kwargs)
        if proved is not None:
            proved.solve_time = clock.stop()
            return proved
        if options.should_stop():
            return _cancelled(clock)
        time_limit = max(options.time_limit - clock.elapsed, 1e-3)

    result = milp(
        c,
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"time_limit": time_limit},
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
            options={"time_limit": time_limit, "presolve": False},
            **kwargs,
        )
    elapsed = clock.stop()

    if result.status == 2:  # infeasible
        return Solution(status="infeasible", solve_time=elapsed, backend="scipy")
    if result.status == 1:  # iteration/time limit
        objective = None
        x = None
        if result.x is not None:
            x = np.rint(result.x).astype(int).tolist()
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

    x = np.rint(result.x).astype(int).tolist()
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


def _cancelled(clock: Stopwatch) -> Solution:
    """An already-cancelled solve: no HiGHS call, no point, no proof."""
    return Solution(status="limit", nodes=0, solve_time=clock.stop(), backend="scipy")


def _target_probe(
    problem: BIPProblem, sense: str, time_limit: float, kwargs: dict
) -> Optional[Solution]:
    """The optimal solution at the trivial bound, or ``None`` if not proved.

    Asks HiGHS for any feasible point with every objective variable pinned
    at its best value (1 for a coefficient that helps the sense, 0 for one
    that hurts).  Such a point attains the trivial bound, so a validated
    one is optimal.  An infeasible or unfinished probe proves nothing about
    the unpinned problem.  ``kwargs`` carries the solve's constraint rows.
    Counts ``target_probe_proved`` or ``target_probe_refuted`` and sets
    ``probe`` on the enclosing ``solver.solve`` span.
    """
    from scipy.optimize import Bounds, milp

    n = problem.num_vars
    lb, ub = np.zeros(n), np.ones(n)
    trivial = problem.objective_constant
    for idx, coef in problem.objective.items():
        if coef == 0:
            continue
        best = 1 if (coef > 0) == (sense == "max") else 0
        lb[idx] = ub[idx] = best
        trivial += coef * best
    result = milp(
        np.zeros(n),
        integrality=np.ones(n),
        bounds=Bounds(lb, ub),
        options={"time_limit": time_limit, "node_limit": PROBE_NODE_LIMIT},
        **kwargs,
    )
    solution = None
    if result.status == 0 and result.x is not None:
        x = np.rint(result.x).astype(int).tolist()
        if problem.is_feasible(x) and problem.objective_value(x) == trivial:
            solution = Solution(
                status="optimal",
                objective=trivial,
                x=x,
                bound=float(trivial),
                nodes=int(getattr(result, "mip_node_count", 0) or 0),
                backend="scipy",
            )
    outcome = "proved" if solution is not None else "refuted"
    count(f"target_probe_{outcome}")
    span = current_tracer().current()
    if span is not None and span.name == "solver.solve":
        span.set("probe", outcome)
    return solution
