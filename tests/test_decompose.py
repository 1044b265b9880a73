"""Block-separable decomposition: unit tests plus hypothesis cross-checks.

The solver-level half covers the union-find pass (``split_blocks``) and
the closed form of free blocks; the engine-level half checks how
``SolveSession`` splits every prepared problem into components, solves
and caches them one at a time and recombines them additively, against a
brute-force oracle on random block-diagonal models (see docs/engine.md).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import LinearConstraint
from repro.core.database import LICMModel
from repro.core.linexpr import LinearExpr
from repro.core.pruning import prune
import repro.engine.session as session_module
from repro.engine.session import SolveSession
from repro.errors import InfeasibleError
from repro.solver.decompose import closed_form, split_blocks
from repro.solver.interface import solve
from repro.solver.model import BIPConstraint, BIPProblem, from_licm
from repro.solver.result import SolverOptions
from tests.helpers import all_valid_assignments, brute_force_objective_range

BB = SolverOptions(backend="bb")
SENSES = ("min", "max")


# -- split_blocks ----------------------------------------------------------


def test_split_blocks_components_and_free_block():
    blocks = split_blocks([(0, 1), (1, 2), (4, 5)], variables=range(7))
    assert [b.variables for b in blocks] == [(0, 1, 2), (4, 5), (3, 6)]
    assert [b.constraint_ids for b in blocks] == [(0, 1), (2,), ()]
    assert [b.is_free for b in blocks] == [False, False, True]


def test_split_blocks_empty_scope_raises():
    with pytest.raises(ValueError):
        split_blocks([(0,), ()], variables=range(2))


def test_split_blocks_generic_keys():
    # The engine calls this with sparse model variable indices (any
    # hashable key); ordering is by smallest member.
    blocks = split_blocks([("b", "c"), ("a",)], variables=["z"])
    assert [b.variables for b in blocks] == [("a",), ("b", "c"), ("z",)]


# -- closed_form -----------------------------------------------------------


def test_closed_form_free_block():
    problem = BIPProblem(num_vars=3, constraints=[], objective={0: 3, 1: -2}, names=[])
    high = closed_form(problem, "max")
    low = closed_form(problem, "min")
    assert (high.objective, high.x) == (3, [1, 0, 0])
    assert (low.objective, low.x) == (-2, [0, 1, 0])
    assert high.backend == "closed-form" and high.nodes == 0
    constrained = BIPProblem(
        num_vars=1, constraints=[BIPConstraint(((1, 0),), "<=", 1)], objective={0: 1}
    )
    assert closed_form(constrained, "max") is None


# -- engine decomposition: SolveSession.prepare / solve_prepared -----------


def _whole_bip(model, objective, do_prune=True):
    """The whole BIP, pruned as the session prunes it: the reference the
    recombined components must match.  Returns ``(problem, dense)``."""
    constraints = list(model.constraints)
    if do_prune:
        seeds = set(objective.coeffs)
        constraints = prune(model.constraints, seeds, "lineage", model=model).constraints
    names = {i: model.pool.get(i).name for i in range(len(model.pool))}
    return from_licm(objective, constraints, names)


def _two_block_model():
    """Two constrained blocks, one free variable and objective constant 7."""
    model = LICMModel()
    v = model.new_vars(5)
    model.add((v[0] + v[1]) >= 1)
    model.add((v[2] + v[3]) <= 1)
    weights = (2, -1, 3, 1, -4)
    coeffs = {var.index: weight for var, weight in zip(v, weights)}
    return model, v, LinearExpr(coeffs, 7)


def test_decompose_two_blocks_plus_free():
    model, v, objective = _two_block_model()
    with SolveSession(model) as session:
        prepared = session.prepare(objective)
    blocks = [tuple(sorted(c.dense)) for c in prepared.components]
    assert blocks == [
        (v[0].index, v[1].index),
        (v[2].index, v[3].index),
        (v[4].index,),
    ]
    assert [c.problem.num_constraints for c in prepared.components] == [1, 1, 0]
    # The parent constant is not distributed; recombination adds it once.
    assert all(c.problem.objective_constant == 0 for c in prepared.components)
    assert prepared.objective_offset == 7


def _count_normalizations(monkeypatch) -> list:
    """Record the first argument of every ``from_licm``/``canonicalize``
    call the session makes — the objective it builds, the problem it
    fingerprints — as ``(function, argument)`` pairs."""
    calls = []
    for name in ("from_licm", "canonicalize"):
        real = getattr(session_module, name)

        def counted(first, *args, _name=name, _real=real):
            calls.append((_name, first))
            return _real(first, *args)

        monkeypatch.setattr(session_module, name, counted)
    return calls


def test_prepare_normalizes_each_block_once_and_never_the_whole(monkeypatch):
    model, _, objective = _two_block_model()
    calls = _count_normalizations(monkeypatch)
    with SolveSession(model) as session:
        prepared = session.prepare(objective)
    assert len(prepared.components) == 3
    objectives = [seen for called, seen in calls if called == "from_licm"]
    assert len(objectives) == len(prepared.components)
    assert all(seen is not objective for seen in objectives)
    problems = [seen for called, seen in calls if called == "canonicalize"]
    assert problems == [part.problem for part in prepared.components]
    # A problem that does not split is normalized once, as its component.
    coupled = LICMModel()
    v = coupled.new_vars(3)
    coupled.add((v[0] + v[1] + v[2]) <= 2)
    whole = LinearExpr({var.index: 1 for var in v}, 0)
    calls.clear()
    with SolveSession(coupled) as session:
        (component,) = session.prepare(whole).components
    assert calls == [("from_licm", whole), ("canonicalize", component.problem)]


def test_decompose_coupled_is_single_component():
    model = LICMModel()
    v = model.new_vars(4)
    model.add((v[0] + v[1] + v[2] + v[3]) <= 2)
    objective = LinearExpr({var.index: i + 1 for i, var in enumerate(v)}, 3)
    with SolveSession(model) as session:
        prepared = session.prepare(objective)
    (component,) = prepared.components
    # The one component is the whole problem, constant included.
    whole, dense = _whole_bip(model, objective)
    assert component.problem == whole and component.dense == dense
    assert component.problem.objective_constant == 3
    assert component.fingerprint == prepared.fingerprint
    assert prepared.objective_offset == 0


def test_decompose_empty_scope_keeps_one_component():
    # A constraint with no variables belongs to no block; the problem is
    # left whole for the backends to adjudicate.
    model = LICMModel()
    a, b = model.new_vars(2)
    model.add(LinearConstraint([], "<=", 1))
    model.add(LinearConstraint([(1, a.index)], "<=", 1))
    objective = LinearExpr({a.index: 1, b.index: 1}, 0)
    with SolveSession(model, options=BB) as session:
        prepared = session.prepare(objective, do_prune=False)
        assert len(prepared.components) == 1
        whole, _ = _whole_bip(model, objective, do_prune=False)
        assert prepared.components[0].problem == whole
        answer = session.solve_prepared(prepared)
    assert (answer.lower, answer.upper) == brute_force_objective_range(model, objective)


def test_session_matches_whole_bip_and_adds_constant_once():
    model, _, objective = _two_block_model()
    with SolveSession(model, options=BB) as session:
        prepared = session.prepare(objective)
        answer = session.solve_prepared(prepared)
    assert answer.stats["components"] == 3
    assert answer.exact
    oracle = brute_force_objective_range(model, objective)
    assert (answer.lower, answer.upper) == oracle
    # The whole BIP through the solver facade carries the constant itself.
    problem, _ = _whole_bip(model, objective)
    whole = tuple(solve(problem, sense, BB).objective for sense in SENSES)
    assert whole == oracle
    assert objective.value(answer.lower_witness) == answer.lower
    assert objective.value(answer.upper_witness) == answer.upper


def test_recombine_limit_status_and_bound_sum():
    # A per-call node_limit=0 solve (seeding off, so no root shortcut)
    # truncates both constrained blocks; the free block is closed form.
    model = LICMModel()
    a, b = model.new_vars(3), model.new_vars(3)
    free = model.new_var("free")
    model.add(LinearConstraint([(2, var.index) for var in a], "<=", 3))
    model.add(LinearConstraint([(2, var.index) for var in b], ">=", 3))
    coeffs = {var.index: 1 for var in a}
    coeffs.update({var.index: 2 for var in b})
    coeffs[free.index] = -4
    objective = LinearExpr(coeffs, 7)
    truncated = SolverOptions(backend="bb", node_limit=0, seed_incumbent=False)
    with SolveSession(model, options=BB) as session:
        prepared = session.prepare(objective)
        answer = session.solve_prepared(prepared, options=truncated)
        tasks = [
            (c, sense, i) for i, c in enumerate(prepared.components) for sense in SENSES
        ]
        entries = session.solve_units(tasks, truncated)
    assert answer.stats["components"] == 3
    statuses = [entry.status for entry, _, _, _ in entries]
    assert statuses == ["limit"] * 4 + ["optimal"] * 2
    assert not answer.exact  # any truncated component => not exact
    low_bounds = [entry.bound for entry, _, _, _ in entries[0::2]]
    high_bounds = [entry.bound for entry, _, _, _ in entries[1::2]]
    assert answer.lower_bound_proven == sum(low_bounds) + 7
    assert answer.upper_bound_proven == sum(high_bounds) + 7
    lower, upper = brute_force_objective_range(model, objective)
    assert answer.lower_bound_proven <= lower <= upper <= answer.upper_bound_proven


def test_infeasible_component_propagates():
    model = LICMModel()
    a, b, c = model.new_vars(3)
    model.add(LinearConstraint([(1, a.index)], ">=", 2))  # infeasible over {0,1}
    model.add((b + c) >= 1)
    objective = LinearExpr({a.index: 1, b.index: 1, c.index: 1}, 0)
    with SolveSession(model, options=BB) as session:
        prepared = session.prepare(objective)
        assert len(prepared.components) == 2
        with pytest.raises(InfeasibleError):
            session.solve_prepared(prepared)


# -- hypothesis: random block-diagonal models vs brute force ---------------

nonzero = st.integers(-3, 3).filter(lambda c: c != 0)


@st.composite
def block_diagonal_models(draw):
    """An LICM model of 1–4 independent blocks (plus possible free vars)
    and an objective over them with a constant."""
    model = LICMModel()
    coeffs = {}
    for _ in range(draw(st.integers(1, 4))):
        members = [var.index for var in model.new_vars(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(0, 2))):
            scope = draw(
                st.lists(
                    st.sampled_from(members),
                    min_size=1,
                    max_size=len(members),
                    unique=True,
                )
            )
            terms = [(draw(nonzero), idx) for idx in scope]
            op = draw(st.sampled_from(("<=", ">=", "==")))
            model.add(LinearConstraint(terms, op, draw(st.integers(-3, 4))))
        for idx in members:
            coef = draw(st.integers(-4, 4))
            if coef:
                coeffs[idx] = coef
    return model, LinearExpr(coeffs, draw(st.integers(-5, 5)))


def _oracle(model, objective):
    """Brute-force ``(min, max)``, or ``None`` when no world is valid."""
    if not all_valid_assignments(model):
        return None
    return brute_force_objective_range(model, objective)


def _check_against_oracle(model, objective):
    """Prepare and solve ``objective`` through a session; compare with the
    oracle.  No pruning: a constraint on objective-free variables can
    still make the model infeasible.  Returns the prepared problem."""
    oracle = _oracle(model, objective)
    with SolveSession(model, options=BB) as session:
        prepared = session.prepare(objective, do_prune=False)
        if oracle is None:
            with pytest.raises(InfeasibleError):
                session.solve_prepared(prepared)
            return prepared
        answer = session.solve_prepared(prepared)
    assert answer.exact
    assert (answer.lower, answer.upper) == oracle
    for witness, value in (
        (answer.lower_witness, answer.lower),
        (answer.upper_witness, answer.upper),
    ):
        assert all(constraint.satisfied_by(witness) for constraint in model.constraints)
        assert objective.value(witness) == value
    return prepared


@settings(max_examples=60, deadline=None)
@given(case=block_diagonal_models())
def test_decomposed_equals_brute_force(case):
    model, objective = case
    prepared = _check_against_oracle(model, objective)
    # The components partition the problem's variables and constraints.
    whole, dense = _whole_bip(model, objective, do_prune=False)
    seen = sorted(idx for c in prepared.components for idx in c.dense)
    assert seen == sorted(dense)
    assert (
        sum(c.problem.num_constraints for c in prepared.components)
        == whole.num_constraints
    )


@settings(max_examples=30, deadline=None)
@given(case=block_diagonal_models(), data=st.data())
def test_coupling_constraint_collapses_to_one_component(case, data):
    model, objective = case
    variables = sorted(set(objective.coeffs) | set(model.constraints.variables))
    if len(variables) < 2:
        return
    rhs = data.draw(st.integers(0, len(variables)))
    model.add(LinearConstraint([(1, idx) for idx in variables], "<=", rhs))
    prepared = _check_against_oracle(model, objective)
    assert len(prepared.components) == 1
    assert prepared.components[0].fingerprint == prepared.fingerprint


# -- engine: per-component caching in SolveSession -------------------------


def _three_group_model():
    """Three independent ≥1 groups — the anonymization-group shape."""
    model = LICMModel()
    groups = [model.new_vars(2) for _ in range(3)]
    for pair in groups:
        model.add((pair[0] + pair[1]) >= 1)
    flat = [var.index for pair in groups for var in pair]
    objective = LinearExpr({idx: i + 1 for i, idx in enumerate(flat)}, 5)
    return model, flat, objective


def test_session_decomposes_and_matches_oracle():
    model, flat, objective = _three_group_model()
    session = SolveSession(model)
    answer = session.bounds(objective)
    assert answer.stats["components"] == 3
    assert answer.exact
    assert (answer.lower, answer.upper) == brute_force_objective_range(model, objective)
    # Witnesses cover every variable and attain the reported bounds.
    assert objective.value(answer.lower_witness) == answer.lower
    assert objective.value(answer.upper_witness) == answer.upper


def test_session_warm_requery_hits_every_component():
    model, flat, objective = _three_group_model()
    session = SolveSession(model)
    session.bounds(objective)
    warm = session.bounds(objective)
    assert warm.stats["cache_hits"] == 2  # normalized: both directions cached
    assert warm.stats["component_cache_hits"] == 2 * warm.stats["components"]


def test_session_perturbation_resolves_only_touched_component():
    model, flat, objective = _three_group_model()
    session = SolveSession(model)
    cold = session.bounds(objective)
    # A trivially-true cardinality constraint on one group changes only
    # that component's fingerprint: 2 of 6 component entries miss.
    perturbed = session.bounds(
        objective, extra_constraints=[LinearConstraint([(1, flat[0])], "<=", 1)]
    )
    assert (perturbed.lower, perturbed.upper) == (cold.lower, cold.upper)
    assert perturbed.stats["components"] == 3
    assert perturbed.stats["component_cache_hits"] == 2 * 3 - 2
    assert perturbed.stats["cache_hits"] == 0  # not *all* components hit


def test_session_identical_blocks_share_cache_within_one_solve():
    # Three structurally identical groups with identical coefficients
    # canonicalize to one fingerprint: the cold solve itself hits for the
    # 2nd and 3rd copies, in both directions.
    model = LICMModel()
    groups = [model.new_vars(2) for _ in range(3)]
    for pair in groups:
        model.add((pair[0] + pair[1]) >= 1)
    objective = LinearExpr(
        {var.index: 1 for pair in groups for var in pair}, 0
    )
    session = SolveSession(model)
    cold = session.bounds(objective)
    assert cold.stats["components"] == 3
    assert cold.stats["component_cache_hits"] == 4
    assert (cold.lower, cold.upper) == brute_force_objective_range(model, objective)


def test_session_infeasible_component_raises():
    model = LICMModel()
    a, b, c = model.new_vars(3)
    model.add((a + b) >= 3)  # infeasible over binaries
    model.add((c + 0) >= 0)
    objective = LinearExpr({a.index: 1, b.index: 1, c.index: 1}, 0)
    session = SolveSession(model)
    with pytest.raises(InfeasibleError):
        session.bounds(objective)


def test_session_non_separating_problem_is_one_component():
    model = LICMModel()
    v = model.new_vars(4)
    model.add((v[0] + v[1] + v[2] + v[3]) <= 2)
    model.add((v[0] + v[3]) >= 1)
    objective = LinearExpr({var.index: i - 1 for i, var in enumerate(v)}, 5)
    with SolveSession(model) as session:
        prepared = session.prepare(objective)
        answer = session.solve_prepared(prepared)
    assert answer.stats["components"] == 1
    (component,) = prepared.components
    assert component.fingerprint == prepared.fingerprint
    # The whole-BIP solver facade is the reference: same bounds, the
    # objective constant counted once.
    whole, _ = _whole_bip(model, objective)
    assert answer.lower == solve(whole, "min").objective
    assert answer.upper == solve(whole, "max").objective


def test_session_parallel_component_dispatch():
    model, flat, objective = _three_group_model()
    with SolveSession(model, max_workers=2) as session:
        answer = session.bounds(objective)
        assert answer.stats["components"] == 3
        assert (answer.lower, answer.upper) == brute_force_objective_range(
            model, objective
        )


def test_session_free_variables_solved_closed_form():
    # Objective-only variables (no constraint mentions them) form the
    # free block and never touch a backend.
    model = LICMModel()
    a, b = model.new_vars(2)
    model.add((a + b) >= 1)
    free = model.new_var("free")
    objective = LinearExpr({a.index: 1, b.index: 1, free.index: 10}, 0)
    session = SolveSession(model)
    answer = session.bounds(objective)
    assert answer.stats["components"] == 2
    assert (answer.lower, answer.upper) == (1, 12)
    assert answer.upper_witness[free.index] == 1
    assert answer.lower_witness[free.index] == 0
