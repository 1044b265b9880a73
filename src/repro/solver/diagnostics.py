"""Infeasibility diagnostics: minimal conflicting constraint sets.

When an LICM database admits no possible world — a modeling bug, or
inconsistent side information — the useful answer is *which constraints
conflict*.  This implements the classical deletion filter: repeatedly try
dropping each constraint; if the rest stays infeasible the constraint is
redundant to the conflict and is removed, otherwise it is pinned.  The
result is an irreducible infeasible subsystem (IIS): every constraint in
it is necessary for the infeasibility.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.solver.model import BIPConstraint, BIPProblem
from repro.solver.propagation import FREE, CompiledConstraints, propagate


def _feasible(
    constraints: List[BIPConstraint],
    num_vars: int,
    deadline_at: Optional[float] = None,
) -> bool:
    """Cheap feasibility: propagation, then exhaustive search on small
    residues, else LP + a few branchings via the solve facade."""
    problem = BIPProblem(num_vars=num_vars, constraints=list(constraints), objective={})
    domains = propagate(CompiledConstraints(problem), [FREE] * num_vars)
    if domains is None:
        return False
    from repro.solver.interface import solve
    from repro.solver.result import SolverOptions

    options = SolverOptions(backend="bb", cut_rounds=0)
    if deadline_at is not None:
        remaining = max(deadline_at - time.monotonic(), 0.05)
        import dataclasses

        options = dataclasses.replace(options, time_limit=remaining)
    solution = solve(problem, "max", options)
    return solution.status != "infeasible"


def find_iis(
    problem: BIPProblem, time_budget: Optional[float] = None
) -> Optional[List[BIPConstraint]]:
    """An irreducible infeasible subsystem, or ``None`` if feasible.

    Deletion filter: O(m) feasibility checks.  Binary variables' implicit
    bounds are always part of the system (never reported).

    ``time_budget`` (seconds) bounds the filter: on expiry the current
    kept set is returned.  That set is still *infeasible* (every removal
    so far preserved infeasibility) but may not be irreducible — a sound,
    best-effort conflict set rather than a minimal one.
    """
    deadline_at = None if time_budget is None else time.monotonic() + time_budget
    constraints = list(problem.constraints)
    if _feasible(constraints, problem.num_vars, deadline_at):
        return None
    kept = list(constraints)
    index = 0
    while index < len(kept):
        if deadline_at is not None and time.monotonic() >= deadline_at:
            break
        trial = kept[:index] + kept[index + 1 :]
        if not _feasible(trial, problem.num_vars, deadline_at):
            kept = trial  # still infeasible without it: not needed
        else:
            index += 1  # necessary for the conflict: pin it
    return kept


def render_constraints(
    constraints: List[BIPConstraint], names: List[str]
) -> List[str]:
    """Render constraints as human-readable strings using variable names."""
    rendered = []
    for constraint in constraints:
        label = " + ".join(f"{coef}*{names[idx]}" for coef, idx in constraint.terms)
        op = "=" if constraint.op == "==" else constraint.op
        rendered.append(f"{label} {op} {constraint.rhs}")
    return rendered


def diagnose_infeasibility(problem: BIPProblem, time_budget: float) -> Optional[dict]:
    """A time-budgeted IIS over ``problem``, rendered with its variable
    names — EXPLAIN's ``infeasibility`` block, or ``None`` if feasible."""
    started = time.monotonic()
    iis = find_iis(problem, time_budget=time_budget)
    took = time.monotonic() - started
    if iis is None:
        return None
    return {
        "iis": render_constraints(iis, problem.names),
        "constraints": len(iis),
        "seconds": took,
        "budget_exhausted": took >= time_budget,
    }


def explain_infeasibility(
    model, names: bool = True, time_budget: Optional[float] = None
) -> Optional[List[str]]:
    """IIS over an LICM model's constraint store, rendered as strings.

    Returns ``None`` when the model has at least one possible world.
    """
    from repro.solver.model import from_licm
    from repro.core.linexpr import LinearExpr

    problem, _dense = from_licm(LinearExpr({}, 0), list(model.constraints))
    iis = find_iis(problem, time_budget=time_budget)
    if iis is None:
        return None
    return render_constraints(iis, problem.names)
