"""Hypothesis suite for the root pass's enumeration proof.

:func:`repro.solver.kernels.close_roots` settles a block that propagation,
the greedy seed and the kernel bound leave open by listing every
completion of its propagated domains, when at most
:data:`~repro.solver.kernels.ENUMERATE_MAX_FREE` variables are free.  The
contracts:

* every block of at most that many variables gets a closed verdict;
* an enumerated verdict is exact: infeasible exactly when no 0/1 point
  satisfies the block, else its objective equals brute-force enumeration
  and the branch-and-bound optimum, in either sense;
* its witness satisfies the block and attains that objective;
* a block with one free variable more stays open.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import kernels
from repro.solver.branch_and_bound import solve_bip
from repro.solver.model import BIPConstraint, BIPProblem
from repro.solver.result import SolverOptions

from tests.test_root_batch import _brute_max, _signed

CAP = kernels.ENUMERATE_MAX_FREE


@st.composite
def general_block(draw, max_vars: int = CAP):
    """Up to ``max_vars`` variables under ``<=``/``>=``/``==`` rows with
    coefficients of both signs, plus cardinality rows, and an objective
    with a constant: rows a greedy point often cannot satisfy, and
    right-hand sides that may leave no feasible point at all."""
    n = draw(st.integers(1, max_vars))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        scope = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        if draw(st.booleans()):
            coefs = draw(
                st.lists(
                    st.integers(-4, 4).filter(bool), min_size=len(scope), max_size=len(scope)
                )
            )
            rhs = draw(st.integers(-3, 6))
        else:
            coefs = [1] * len(scope)
            rhs = draw(st.integers(0, len(scope) + 1))
        op = draw(st.sampled_from(["<=", ">=", "=="]))
        rows.append(BIPConstraint(tuple(zip(coefs, scope)), op, rhs))
    objective = {i: draw(st.integers(-6, 9)) for i in range(n) if draw(st.booleans())}
    return BIPProblem(
        num_vars=n,
        constraints=rows,
        objective=objective,
        objective_constant=draw(st.integers(-4, 4)),
    )


blocks = st.lists(
    st.tuples(general_block(), st.sampled_from([1, -1])), min_size=1, max_size=4
)


@settings(max_examples=120, deadline=None)
@given(blocks)
def test_small_blocks_close_exactly_with_a_witness(batch):
    verdicts = kernels.close_roots(
        [(kernels.compile_problem(problem), sign) for problem, sign in batch]
    )
    for (problem, sign), verdict in zip(batch, verdicts):
        assert verdict.closed
        signed = _signed(problem, sign)
        optimum = _brute_max(signed)
        reference = solve_bip(signed, "max", SolverOptions(backend="bb"))
        if optimum is None:
            assert not verdict.feasible
            assert reference.status == "infeasible"
            continue
        assert verdict.feasible
        assert verdict.objective == optimum == reference.objective
        assert signed.is_feasible(verdict.x)
        assert signed.objective_value(verdict.x) == verdict.objective


@settings(max_examples=60, deadline=None)
@given(general_block(), st.sampled_from([1, -1]))
def test_best_completion_of_the_root_domains_is_the_optimum(problem, sign):
    compiled = kernels.compile_problem(problem)
    signed = _signed(problem, sign)
    domains = compiled.propagate(compiled.root_domains())
    optimum = _brute_max(signed)
    if domains is None:
        assert optimum is None
        return
    best = kernels.best_completion(compiled, sign, domains)
    if optimum is None:
        assert best is None
        return
    x, value = best
    assert value == optimum == signed.objective_value(x)
    assert signed.is_feasible(x)


def _capped_block(n: int) -> BIPProblem:
    """``max sum x`` with ``sum x <= 5`` and ``x0 + x1 <= 1``: propagation
    fixes nothing and the greedy point stops at 4, one below the kernel
    bound, so only enumeration (or a search) closes the max."""
    return BIPProblem(
        num_vars=n,
        constraints=[
            BIPConstraint(tuple((1, i) for i in range(n)), "<=", 5),
            BIPConstraint(((1, 0), (1, 1)), "<=", 1),
        ],
        objective={i: 1 for i in range(n)},
    )


def test_one_free_variable_past_the_cap_stays_open():
    at_cap, past_cap = _capped_block(CAP), _capped_block(CAP + 1)
    closed, still_open = kernels.close_roots(
        [(kernels.compile_problem(at_cap), 1), (kernels.compile_problem(past_cap), 1)]
    )
    assert closed.enumerated and closed.closed and closed.objective == 5
    assert at_cap.is_feasible(closed.x)
    assert not still_open.enumerated and not still_open.closed
    assert still_open.objective == 4 and still_open.bound == 5


def test_a_block_only_enumeration_refutes_is_infeasible():
    """``x0 + x1 == 1`` and ``x0 - x1 == 0``: propagation fixes neither
    variable, no point satisfies both rows."""
    problem = BIPProblem(
        num_vars=2,
        constraints=[
            BIPConstraint(((1, 0), (1, 1)), "==", 1),
            BIPConstraint(((1, 0), (-1, 1)), "==", 0),
        ],
        objective={0: 1},
    )
    (verdict,) = kernels.close_roots([(kernels.compile_problem(problem), 1)])
    assert verdict.enumerated and verdict.closed and not verdict.feasible
    assert _brute_max(problem) is None
