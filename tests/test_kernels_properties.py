"""Hypothesis parity suites: vectorized kernels vs their scalar oracles.

The contracts under test (see docs/solver.md):

* vectorized and scalar bound propagation compute the *same* fixpoint and
  the *same* infeasibility verdicts — both are closures of one monotone
  forcing operator, so sweep order cannot matter;
* seeded and unseeded branch-and-bound find identical optima, and seeding
  never increases the node count (an extra incumbent can only prune);
* the surrogate ``upper_bound`` is sound: never below the true optimum
  over the domain-restricted feasible set;
* ``round_and_repair`` returns ``None`` or a point that is feasible on
  every row and agrees with every fixed domain (the dead-on-arrival
  incumbent guard).
"""

from itertools import product as iter_product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import kernels
from repro.solver.heuristics import round_and_repair
from repro.solver.interface import solve
from repro.solver.model import BIPConstraint, BIPProblem
from repro.solver.propagation import FREE, CompiledConstraints, propagate
from repro.solver.result import SolverOptions


@st.composite
def random_bip(draw, max_vars=7):
    num_vars = draw(st.integers(1, max_vars))
    num_constraints = draw(st.integers(0, 6))
    constraints = []
    for _ in range(num_constraints):
        arity = draw(st.integers(1, min(3, num_vars)))
        indices = draw(
            st.lists(
                st.integers(0, num_vars - 1), min_size=arity, max_size=arity, unique=True
            )
        )
        coefs = draw(st.lists(st.integers(-3, 3), min_size=arity, max_size=arity))
        op = draw(st.sampled_from(["<=", ">=", "=="]))
        rhs = draw(st.integers(-2, 4))
        constraints.append(
            BIPConstraint(tuple(zip(coefs, indices)), op, rhs)
        )
    objective = {
        i: draw(st.integers(-5, 5)) for i in range(num_vars) if draw(st.booleans())
    }
    return BIPProblem(
        num_vars=num_vars, constraints=constraints, objective=objective
    )


@st.composite
def bip_with_domains(draw):
    problem = draw(random_bip())
    domains = [
        draw(st.sampled_from([FREE, FREE, 0, 1])) for _ in range(problem.num_vars)
    ]
    return problem, domains


def _brute_max(problem, domains):
    best = None
    for bits in iter_product((0, 1), repeat=problem.num_vars):
        if any(d != FREE and d != b for d, b in zip(domains, bits)):
            continue
        if problem.is_feasible(list(bits)):
            value = problem.objective_value(list(bits))
            best = value if best is None else max(best, value)
    return best


@given(bip_with_domains())
@settings(max_examples=150, deadline=None)
def test_propagation_parity_vec_vs_scalar(case):
    problem, domains = case
    scalar = propagate(CompiledConstraints(problem), domains)
    vec = kernels.compile_problem(problem).propagate(domains)
    if scalar is None:
        assert vec is None
    else:
        assert vec is not None
        assert list(map(int, vec)) == scalar


@given(bip_with_domains())
@settings(max_examples=100, deadline=None)
def test_upper_bound_is_sound(case):
    problem, domains = case
    compiled = kernels.compile_problem(problem)
    tightened = compiled.propagate(domains)
    if tightened is None:
        return  # upper_bound's contract starts after propagate succeeds
    expected = _brute_max(problem, list(map(int, tightened)))
    if expected is None:
        return
    assert compiled.upper_bound(tightened) >= expected


@given(bip_with_domains())
@settings(max_examples=100, deadline=None)
def test_greedy_seed_none_or_valid(case):
    problem, domains = case
    compiled = kernels.compile_problem(problem)
    tightened = compiled.propagate(domains)
    if tightened is None:
        return
    seed = compiled.greedy_seed(tightened)
    if seed is None:
        return
    assert problem.is_feasible(seed)
    for state, value in zip(tightened, seed):
        assert state == FREE or int(state) == value


@given(random_bip(), st.sampled_from(["max", "min"]))
@settings(max_examples=60, deadline=None)
def test_seeded_matches_unseeded(problem, sense):
    seeded = solve(
        problem, sense, SolverOptions(backend="bb", seed_incumbent=True)
    )
    unseeded = solve(
        problem, sense, SolverOptions(backend="bb", seed_incumbent=False)
    )
    assert seeded.status == unseeded.status
    if seeded.status == "optimal":
        assert seeded.objective == unseeded.objective
        assert problem.is_feasible(seeded.x)
    # An extra incumbent can only prune: seeding never costs nodes.
    assert seeded.nodes <= unseeded.nodes


@given(
    bip_with_domains(),
    st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
)
@settings(max_examples=100, deadline=None)
def test_round_and_repair_none_or_valid(case, lp_values):
    problem, domains = case
    x_lp = lp_values[: problem.num_vars]
    repaired = round_and_repair(problem, x_lp, domains)
    if repaired is None:
        return
    assert problem.is_feasible(repaired)
    for state, value in zip(domains, repaired):
        assert state == FREE or state == value
