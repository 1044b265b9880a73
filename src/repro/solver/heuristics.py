"""Primal heuristics: turn fractional LP solutions into feasible incumbents.

A good early incumbent lets branch-and-bound prune aggressively.  The
rounding-and-repair heuristic here exploits the structure of LICM
constraints (short rows, mostly 0/±1 coefficients): round the LP point,
then greedily flip free variables to mend violated rows.

Input/output invariants (the contract branch-and-bound relies on):

* ``domains`` uses the :mod:`repro.solver.propagation` encoding
  (``FREE=-1, ZERO=0, ONE=1``).  Variables fixed by propagation are
  **never** flipped — a repaired point always agrees with ``domains``.
* Callers pass problems in whatever objective space they search
  (branch-and-bound hands over the negated-max form for minimization);
  the heuristics only read constraints, so the space does not matter.
* A non-``None`` return is validated against **all** rows via
  ``problem.is_feasible`` before being handed back — a repaired point is
  never a silently-infeasible (dead-on-arrival) incumbent.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.solver.model import BIPProblem
from repro.solver.propagation import FREE, ONE, ZERO


def _accept(
    problem: BIPProblem, x: list[int], domains: Sequence[int]
) -> Optional[list[int]]:
    """Final acceptance gate: full-row feasibility + domain agreement.

    The repair loop only flips FREE variables and only returns early when
    no row is violated, so this *should* be redundant — it exists so a
    future repair tweak can never hand branch-and-bound an infeasible or
    domain-contradicting incumbent (which would silently corrupt the
    reported optimum).
    """
    if not problem.is_feasible(x):
        return None
    for state, value in zip(domains, x):
        if state != FREE and state != value:
            return None
    return x


def round_and_repair(
    problem: BIPProblem,
    x_lp: Sequence[float],
    domains: Sequence[int],
    max_passes: int = 5,
) -> Optional[list[int]]:
    """Round an LP point and repair violated constraints by flipping bits.

    Fixed variables (per ``domains``) are never flipped.  Returns a feasible
    0/1 vector or ``None`` if repair fails within ``max_passes`` sweeps.
    """
    x = [
        1 if state == ONE else 0 if state == ZERO else int(value >= 0.5)
        for state, value in zip(domains, x_lp)
    ]
    for _ in range(max_passes):
        violated = [c for c in problem.constraints if not c.satisfied_by(x)]
        if not violated:
            return _accept(problem, x, domains)
        progress = False
        for constraint in violated:
            lhs = sum(coef * x[idx] for coef, idx in constraint.terms)
            need_lower = constraint.op == "<=" or (
                constraint.op == "==" and lhs > constraint.rhs
            )
            need_higher = constraint.op == ">=" or (
                constraint.op == "==" and lhs < constraint.rhs
            )
            # Flip the single bit that moves the activity most in the
            # needed direction; ties broken by LP fractionality.
            best = None
            for coef, idx in constraint.terms:
                if domains[idx] != FREE:
                    continue
                if need_lower and lhs > constraint.rhs:
                    delta = -coef if x[idx] == 1 else coef
                    if delta < 0:
                        score = (delta, abs(x_lp[idx] - (1 - x[idx])))
                        if best is None or score < best[0:2]:
                            best = (delta, score[1], idx)
                elif need_higher and lhs < constraint.rhs:
                    delta = -coef if x[idx] == 1 else coef
                    if delta > 0:
                        score = (-delta, abs(x_lp[idx] - (1 - x[idx])))
                        if best is None or score < best[0:2]:
                            best = (-delta, score[1], idx)
            if best is not None:
                idx = best[2]
                x[idx] = 1 - x[idx]
                progress = True
        if not progress:
            return None
    return _accept(problem, x, domains)

