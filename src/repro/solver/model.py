"""Binary integer program normal form.

The solver stack works on a :class:`BIPProblem`: dense variable indices
``0..n-1``, a list of integer linear constraints, and an integer linear
objective.  :func:`from_licm` converts a pruned LICM result (objective
expression + constraint store) into this form, remapping sparse model
variable indices to dense problem indices in the engine's one canonical
column order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Tuple

from repro.core.constraints import LinearConstraint
from repro.core.linexpr import LinearExpr
from repro.errors import SolverError

Term = Tuple[int, int]  # (coefficient, dense variable index)


@dataclass
class BIPConstraint:
    """One constraint in dense-index form."""

    terms: Tuple[Term, ...]
    op: str  # '<=', '>=', '=='
    rhs: int

    def satisfied_by(self, x: Sequence[int]) -> bool:
        lhs = sum(coef * x[idx] for coef, idx in self.terms)
        if self.op == "<=":
            return lhs <= self.rhs
        if self.op == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass
class BIPProblem:
    """``optimize c.x + c0  subject to  A x θ b,  x ∈ {0,1}^n``."""

    num_vars: int
    constraints: list[BIPConstraint]
    objective: dict[int, int]
    objective_constant: int = 0
    names: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.names:
            self.names = [f"x{i}" for i in range(self.num_vars)]
        for idx in self.objective:
            if not 0 <= idx < self.num_vars:
                raise SolverError(f"objective references unknown variable {idx}")
        for constraint in self.constraints:
            for _, idx in constraint.terms:
                if not 0 <= idx < self.num_vars:
                    raise SolverError(f"constraint references unknown variable {idx}")

    # -- evaluation --------------------------------------------------------
    def objective_value(self, x: Sequence[int]) -> int:
        return self.objective_constant + sum(c * x[i] for i, c in self.objective.items())

    def is_feasible(self, x: Sequence[int]) -> bool:
        if len(x) != self.num_vars or any(v not in (0, 1) for v in x):
            return False
        return all(constraint.satisfied_by(x) for constraint in self.constraints)

    # -- size --------------------------------------------------------------
    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_nonzeros(self) -> int:
        return sum(len(c.terms) for c in self.constraints)

    def __repr__(self) -> str:
        return (
            f"BIPProblem({self.num_vars} vars, {self.num_constraints} constraints, "
            f"{self.num_nonzeros} nonzeros)"
        )


def from_licm(
    objective: LinearExpr,
    constraints: Iterable[LinearConstraint],
    variable_names: Mapping[int, str] | None = None,
) -> tuple[BIPProblem, dict[int, int]]:
    """Convert an LICM objective + constraints into a dense BIP.

    Returns the problem and the mapping ``model_var_index -> dense_index``
    used to translate solver solutions back into possible-world assignments.

    Columns are numbered by first appearance: the objective's variables in
    ascending model index, then each constraint's (index-sorted) variables
    in the order the constraints are given.  Two problems that differ only
    by a renaming of model indices preserving that order build equal
    problems, so the engine fingerprints, caches and solves every block in
    this one index space (:mod:`repro.engine.canonical`).
    """
    constraints = list(constraints)
    dense: dict[int, int] = {}
    for idx in sorted(objective.coeffs):
        dense[idx] = len(dense)
    for c in constraints:
        for _, idx in c.terms:
            if idx not in dense:
                dense[idx] = len(dense)
    bip_constraints = [
        BIPConstraint(tuple([(coef, dense[idx]) for coef, idx in c.terms]), c.op, c.rhs)
        for c in constraints
    ]
    names = [
        variable_names[idx] if variable_names and idx in variable_names else f"b[{idx}]"
        for idx in dense
    ]
    problem = BIPProblem(
        num_vars=len(dense),
        constraints=bip_constraints,
        objective={dense[idx]: coef for idx, coef in objective.coeffs.items()},
        objective_constant=objective.constant,
        names=names,
    )
    return problem, dense
