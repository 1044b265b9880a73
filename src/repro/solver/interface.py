"""The solver facade: one entry point over all backends.

    from repro.solver import solve, SolverOptions
    solution = solve(problem, sense="max", options=SolverOptions(backend="bb"))
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SolverError
from repro.solver.model import BIPProblem
from repro.solver.result import Solution, SolverOptions


# 'auto' routes problems at or under this size to the own branch-and-bound:
# with the vectorized kernels and node-0 seeding, small components (the
# decomposed k-anonymity workload) close at the root faster than a SciPy
# MILP round-trip — and without even paying the scipy import on the cold
# path.  Larger, genuinely coupled programs go to HiGHS.
AUTO_BB_MAX_VARS = 160
AUTO_BB_MAX_CONSTRAINTS = 96


def _resolve_backend(name: str, problem: Optional[BIPProblem] = None) -> str:
    """Resolve ``'auto'`` to a concrete backend.

    Size-aware when a ``problem`` is given: small instances go to the
    kernel-accelerated B&B, everything else to SciPy's HiGHS MILP.
    """
    if name != "auto":
        return name
    if (
        problem is not None
        and problem.num_vars <= AUTO_BB_MAX_VARS
        and problem.num_constraints <= AUTO_BB_MAX_CONSTRAINTS
    ):
        return "bb"
    return "scipy"


def solve(
    problem: BIPProblem,
    sense: str = "max",
    options: Optional[SolverOptions] = None,
) -> Solution:
    """Optimize a binary program.

    :param sense: ``'max'`` or ``'min'``.
    :param options: backend and limits; see :class:`SolverOptions`.
    """
    if sense not in ("max", "min"):
        raise SolverError(f"sense must be 'max' or 'min', got {sense!r}")
    options = options or SolverOptions()
    backend = _resolve_backend(options.backend, problem)
    if options.deadline_at is not None:
        # SciPy cannot poll should_stop() mid-solve, and the B&B checks
        # its wall budget anyway: fold the absolute deadline into the
        # time limit here so every backend honours it.
        import dataclasses

        options = dataclasses.replace(
            options, time_limit=options.remaining_time_limit()
        )
    from repro.obs.tracer import current_tracer

    with current_tracer().span(
        "solver.solve",
        backend=backend,
        sense=sense,
        vars=problem.num_vars,
        constraints=problem.num_constraints,
    ) as span:
        if backend == "bb":
            from repro.solver.branch_and_bound import solve_bip

            solution = solve_bip(problem, sense, options)
        elif backend == "scipy":
            from repro.solver.scipy_backend import solve_bip_scipy

            solution = solve_bip_scipy(problem, sense, options)
        else:
            raise SolverError(f"unknown backend {backend!r}")
        span.set("status", solution.status).set("nodes", solution.nodes)
        span.set("objective", solution.objective)
        return solution


def maximize(problem: BIPProblem, options: Optional[SolverOptions] = None) -> Solution:
    """Shorthand for ``solve(problem, 'max', options)``."""
    return solve(problem, "max", options)


def minimize(problem: BIPProblem, options: Optional[SolverOptions] = None) -> Solution:
    """Shorthand for ``solve(problem, 'min', options)``."""
    return solve(problem, "min", options)
