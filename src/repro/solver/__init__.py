"""Binary integer programming solver stack (the CPLEX substitute)."""

from repro.solver.decompose import Block, split_blocks
from repro.solver.interface import maximize, minimize, solve
from repro.solver.lpformat import read_lp, write_lp
from repro.solver.model import BIPConstraint, BIPProblem, from_licm
from repro.solver.presolve import PresolveResult, presolve
from repro.solver.result import Solution, SolverOptions

__all__ = [
    "BIPConstraint",
    "BIPProblem",
    "Block",
    "PresolveResult",
    "Solution",
    "SolverOptions",
    "from_licm",
    "maximize",
    "minimize",
    "presolve",
    "read_lp",
    "solve",
    "split_blocks",
    "write_lp",
]
