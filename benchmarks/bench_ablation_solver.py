"""Ablation: solver backends and B&B ingredients on the same query BIP.

The paper delegates to CPLEX; this reproduction offers SciPy HiGHS
(the off-the-shelf substitute) and a from-scratch branch-and-bound over
HiGHS LP relaxations.  These benchmarks time each backend on an identical
pruned BIP from Query 1 and assert they agree.  Run with::

    pytest benchmarks/bench_ablation_solver.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.core.pruning import prune
from repro.queries.licm_eval import evaluate_licm
from repro.solver.interface import solve
from repro.solver.model import from_licm
from repro.solver.result import SolverOptions

BACKENDS = {
    "scipy-highs": SolverOptions(backend="scipy"),
    "bb-highs-lp": SolverOptions(backend="bb"),
    "bb-no-presolve": SolverOptions(backend="bb", use_presolve=False),
    "bb-no-heuristics": SolverOptions(backend="bb", use_heuristics=False),
}


@pytest.fixture(scope="module")
def q1_problem(context):
    record = context.encoding("k-anonymity", 4)
    plan = context.plan("Q1", record.encoded)
    objective = evaluate_licm(plan, record.encoded.relations)
    model = record.encoded.model
    pruned = prune(model.constraints, objective.coeffs.keys(), "lineage", model=model)
    problem, _ = from_licm(objective, pruned.constraints)
    reference = solve(problem, "max", SolverOptions(backend="scipy"))
    return problem, reference.objective


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_backend_maximize(benchmark, q1_problem, backend):
    problem, reference = q1_problem
    solution = benchmark.pedantic(
        lambda: solve(problem, "max", BACKENDS[backend]), rounds=2, iterations=1
    )
    assert solution.status == "optimal"
    assert solution.objective == reference
    benchmark.extra_info["objective"] = solution.objective
    benchmark.extra_info["nodes"] = solution.nodes


@pytest.mark.parametrize("branching", ("most_fractional", "pseudocost", "first"))
def test_bb_branching_rules(benchmark, q1_problem, branching):
    problem, reference = q1_problem
    options = SolverOptions(backend="bb", branching=branching)
    solution = benchmark.pedantic(
        lambda: solve(problem, "max", options), rounds=2, iterations=1
    )
    assert solution.objective == reference
    benchmark.extra_info["nodes"] = solution.nodes


@pytest.mark.parametrize("cut_rounds", (0, 3))
def test_bb_cut_rounds(benchmark, q1_problem, cut_rounds):
    """Branch-and-cut ablation: root cover cuts on vs off."""
    problem, reference = q1_problem
    options = SolverOptions(backend="bb", cut_rounds=cut_rounds)
    solution = benchmark.pedantic(
        lambda: solve(problem, "max", options), rounds=2, iterations=1
    )
    assert solution.objective == reference
    benchmark.extra_info["nodes"] = solution.nodes
