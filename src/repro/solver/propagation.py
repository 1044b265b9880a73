"""Bound propagation for binary programs.

Given 0/1 domains (possibly partially fixed), repeatedly tighten: for each
constraint, compute the minimum and maximum achievable activity under the
current domains; detect infeasibility; and fix any variable whose two values
are not both compatible with the constraint.  This is the workhorse of
presolve, and :mod:`repro.solver.kernels` runs the same closure at every
branch-and-bound node — LICM constraints are short
("each constraint contains only a very small number of variables", as the
paper notes), so propagation is cheap and strong.

Input/output invariants (the contract the vectorized kernels hold parity
with, see :mod:`repro.solver.kernels`):

* Domains are encoded ``FREE=-1, ZERO=0, ONE=1``, one ``int`` per
  variable.  ``propagate`` never *un*-fixes: every non-``FREE`` entry of
  the input survives unchanged in the output (or the whole call returns
  ``None`` for proven infeasibility).  The input list itself is never
  mutated.
* The result is the **closure of a monotone forcing operator**: a
  variable is fixed exactly when one of its two values is incompatible
  with some row's min/max achievable activity under the current domains.
  Monotone closures are confluent, so the fixpoint is independent of
  worklist order — this is why the scalar worklist here and the
  full-sweep vectorized ``CompiledProblem.propagate`` agree bit-for-bit.
* Propagation reads only constraints, never the objective, so it is
  valid in any objective space (branch-and-bound runs it in the
  negated-max space used for minimization).
* ``None`` is returned **only** on proven infeasibility: some row cannot
  be satisfied by any completion of the current domains.  All arithmetic
  is exact integer arithmetic; there is no tolerance.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.solver.model import BIPProblem

FREE, ZERO, ONE = -1, 0, 1  # domain states


class CompiledConstraints:
    """Per-variable adjacency over a problem's constraints, built once."""

    def __init__(self, problem: BIPProblem):
        self.problem = problem
        self.by_var: list[list[int]] = [[] for _ in range(problem.num_vars)]
        for pos, constraint in enumerate(problem.constraints):
            for _, idx in constraint.terms:
                self.by_var[idx].append(pos)


def propagate(
    compiled: CompiledConstraints,
    domains: Sequence[int],
    dirty: Optional[Sequence[int]] = None,
) -> Optional[list[int]]:
    """Run bound propagation to fixpoint.

    :param domains: per-variable state, one of ``FREE``/``ZERO``/``ONE``.
    :param dirty: constraint positions to start from (default: all).
    :return: the tightened domain list, or ``None`` on conflict.
    """
    problem = compiled.problem
    state = list(domains)
    queue = deque(range(len(problem.constraints)) if dirty is None else dirty)
    queued = set(queue)

    def enqueue_var(idx: int) -> None:
        for pos in compiled.by_var[idx]:
            if pos not in queued:
                queued.add(pos)
                queue.append(pos)

    while queue:
        pos = queue.popleft()
        queued.discard(pos)
        constraint = problem.constraints[pos]
        lo = hi = 0
        for coef, idx in constraint.terms:
            value = state[idx]
            if value == FREE:
                if coef > 0:
                    hi += coef
                else:
                    lo += coef
            else:
                lo += coef * value
                hi += coef * value

        check_le = constraint.op in ("<=", "==")
        check_ge = constraint.op in (">=", "==")
        if check_le and lo > constraint.rhs:
            return None
        if check_ge and hi < constraint.rhs:
            return None

        for coef, idx in constraint.terms:
            if state[idx] != FREE:
                continue
            # Activity bounds if this variable took each value.
            lo0 = lo - min(coef, 0)
            hi0 = hi - max(coef, 0)
            lo1 = lo0 + coef
            hi1 = hi0 + coef
            zero_ok = not (check_le and lo0 > constraint.rhs) and not (
                check_ge and hi0 < constraint.rhs
            )
            one_ok = not (check_le and lo1 > constraint.rhs) and not (
                check_ge and hi1 < constraint.rhs
            )
            if not zero_ok and not one_ok:
                return None
            if zero_ok == one_ok:
                continue
            forced = ONE if one_ok else ZERO
            state[idx] = forced
            if coef > 0:
                if forced == ONE:
                    lo += coef
                else:
                    hi -= coef
            else:
                if forced == ONE:
                    hi += coef
                else:
                    lo -= coef
            enqueue_var(idx)
    return state
