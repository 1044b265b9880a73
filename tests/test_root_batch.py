"""Hypothesis parity suite for the batched root kernel.

:func:`repro.solver.kernels.close_roots` stacks many independent blocks
into one :class:`~repro.solver.kernels.RootBatch`.  The contracts:

* a closed block's verdict is exact: an infeasible verdict means no 0/1
  point satisfies the block, and an optimal one equals brute-force
  enumeration and SciPy's HiGHS MILP;
* every witness satisfies its block and attains the reported objective;
* stacking changes nothing: each block gets the verdict it gets alone,
  so a block left open in a batch is left open on its own;
* the stacked propagation and upper bound equal each block's own
  :meth:`CompiledProblem.propagate` and :meth:`CompiledProblem.upper_bound`.
"""

from itertools import product as iter_product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import kernels
from repro.solver.interface import solve
from repro.solver.model import BIPConstraint, BIPProblem
from repro.solver.result import SolverOptions


def _pairs(draw, n: int):
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1).filter(lambda v: v != i))
    return i, j


@st.composite
def structured_block(draw, max_vars: int = 9):
    """A block shaped like an LICM component: cardinality rows over
    subsets, mutual exclusions, implications — or no rows at all.  Weighted
    knapsack rows are where a greedy point falls short of the optimum, so
    a claim must rest on the bound, not on the point."""
    n = draw(st.integers(1, max_vars))
    rows = []
    if draw(st.integers(0, 5)):  # one block in six is constraint-free
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(
                st.sampled_from(["card", "card", "exclusive", "implies", "knapsack", "general"])
            )
            if kind == "card" or n == 1:
                scope = draw(
                    st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
                )
                op = draw(st.sampled_from(["<=", ">=", "=="]))
                rhs = draw(st.integers(0, len(scope) + 1))  # len+1 may be infeasible
                rows.append(BIPConstraint(tuple((1, v) for v in scope), op, rhs))
            elif kind == "exclusive":
                i, j = _pairs(draw, n)
                rows.append(BIPConstraint(((1, i), (1, j)), "<=", 1))
            elif kind == "implies":
                i, j = _pairs(draw, n)
                rows.append(BIPConstraint(((1, i), (-1, j)), "<=", 0))
            elif kind == "knapsack":
                scope = draw(
                    st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
                )
                weights = draw(
                    st.lists(st.integers(1, 4), min_size=len(scope), max_size=len(scope))
                )
                capacity = draw(st.integers(1, sum(weights) - 1))
                rows.append(BIPConstraint(tuple(zip(weights, scope)), "<=", capacity))
            else:
                arity = draw(st.integers(1, min(3, n)))
                scope = draw(
                    st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity, unique=True)
                )
                coefs = draw(st.lists(st.integers(-3, 3), min_size=arity, max_size=arity))
                rows.append(
                    BIPConstraint(
                        tuple(zip(coefs, scope)),
                        draw(st.sampled_from(["<=", ">=", "=="])),
                        draw(st.integers(-2, 4)),
                    )
                )
    objective = {i: draw(st.integers(-5, 9)) for i in range(n) if draw(st.booleans())}
    return BIPProblem(
        num_vars=n,
        constraints=rows,
        objective=objective,
        objective_constant=draw(st.integers(-3, 3)),
    )


blocks_strategy = st.lists(
    st.tuples(structured_block(), st.sampled_from([1, -1])), min_size=1, max_size=6
)


def _signed(problem: BIPProblem, sign: int) -> BIPProblem:
    """The block as the batch sees it: objective times ``sign``."""
    return BIPProblem(
        num_vars=problem.num_vars,
        constraints=problem.constraints,
        objective={i: sign * c for i, c in problem.objective.items()},
        objective_constant=sign * problem.objective_constant,
    )


def _brute_max(problem: BIPProblem):
    """``None`` when infeasible, else the maximum objective."""
    best = None
    for bits in iter_product((0, 1), repeat=problem.num_vars):
        if problem.is_feasible(bits):
            value = problem.objective_value(bits)
            best = value if best is None else max(best, value)
    return best


def _verdicts(blocks):
    return kernels.close_roots(
        [(kernels.compile_problem(problem), sign) for problem, sign in blocks]
    )


@settings(max_examples=150, deadline=None)
@given(blocks_strategy)
def test_closed_blocks_are_exact_and_witnessed(blocks):
    for (problem, sign), verdict in zip(blocks, _verdicts(blocks)):
        signed = _signed(problem, sign)
        optimum = _brute_max(signed)
        highs = solve(signed, "max", SolverOptions(backend="scipy"))
        if not verdict.feasible:
            assert verdict.closed
            assert optimum is None
            assert highs.status == "infeasible"
            continue
        if verdict.x is not None:
            assert signed.is_feasible(verdict.x)
            assert signed.objective_value(verdict.x) == verdict.objective
        if optimum is None:
            # Infeasible, but not by propagation alone: no point, no claim.
            assert verdict.x is None and not verdict.closed
            continue
        assert verdict.bound >= optimum  # the kernel bound is sound
        if verdict.closed:
            assert verdict.objective == optimum == highs.objective


@settings(max_examples=100, deadline=None)
@given(blocks_strategy)
def test_stacking_does_not_change_any_verdict(blocks):
    together = _verdicts(blocks)
    alone = [_verdicts([block])[0] for block in blocks]
    assert together == alone
    assert [v.closed for v in together] == [v.closed for v in alone]


@settings(max_examples=100, deadline=None)
@given(blocks_strategy)
def test_stacked_propagation_and_bound_match_each_block(blocks):
    batch = kernels.RootBatch(
        [(kernels.compile_problem(problem), sign) for problem, sign in blocks]
    )
    domains, feasible = batch.propagate()
    bounds = batch.upper_bound(domains)
    for b, (problem, sign) in enumerate(blocks):
        own = kernels.compile_problem(_signed(problem, sign))
        expected = own.propagate(own.root_domains())
        assert feasible[b] == (expected is not None)
        if expected is None:
            continue
        lo, hi = batch.var_ptr[b], batch.var_ptr[b + 1]
        assert domains[lo:hi].tolist() == expected.tolist()
        assert bounds[b] == own.upper_bound(expected)


def test_constraint_free_and_infeasible_blocks_in_one_batch():
    free = BIPProblem(num_vars=3, constraints=[], objective={0: 2, 1: -1, 2: 4})
    infeasible = BIPProblem(
        num_vars=2,
        constraints=[BIPConstraint(((1, 0), (1, 1)), ">=", 3)],
        objective={0: 1},
    )
    card = BIPProblem(
        num_vars=4,
        constraints=[BIPConstraint(tuple((1, i) for i in range(4)), "<=", 2)],
        objective={0: 3, 1: 1, 2: 2, 3: 5},
    )
    verdicts = _verdicts([(free, 1), (infeasible, 1), (card, 1), (card, -1)])
    assert [v.closed for v in verdicts] == [True, True, True, True]
    assert verdicts[0].objective == 6 and verdicts[0].x == [1, 0, 1]
    assert not verdicts[1].feasible
    assert verdicts[2].objective == 8  # x3 + x0
    assert verdicts[3].objective == 0  # min 0, negated
