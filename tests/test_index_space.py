"""One index space per block: the columns ``from_licm`` numbers are the
ones the solver's vector, the L1/L2 entries and the fingerprint all use.

The fingerprints of three fixed blocks are pinned to the digests the
engine produced before the column order and the fingerprint were unified
(so kept answers and L2 files written then still hit); a property test
checks that a shared fingerprint means an equal problem, whose cached
vector is an optimal witness; an L2 file written through one session
serves a fresh session on a re-encoded model; and the lineage Q1-Q3
write on every scheme, with the component fingerprints it prepares
into, is pinned to digests taken before the operators built their
output in bulk.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.fabric as fabric_module
from repro.core.bounds import prepare_minmax
from repro.core.database import LICMModel
from repro.core.linexpr import LinearExpr, linear_sum
from repro.engine.fabric import InlineFabric
from repro.engine.session import SolveSession
from repro.errors import InfeasibleError


def _fingerprints(prepared):
    return [part.fingerprint for part in prepared.components], prepared.fingerprint


# -- pinned digests -----------------------------------------------------------
def test_split_count_block_fingerprints_are_pinned():
    model = LICMModel()
    model.new_vars(3)
    v = model.new_vars(5)
    model.add(linear_sum([v[0], v[1], v[2]]) >= 1)
    model.add((v[0] + v[1]) <= 1)
    model.add((v[3] + v[4]).eq(1))
    prepared = SolveSession(model).prepare(linear_sum([1, *v]))
    assert _fingerprints(prepared) == (
        ["f5bbcbffdce6af7f8e047da17e46597b", "64da05653e1197b42aa328640c7419e4"],
        "2943bde811ee242e5a742034af9b0de2",
    )


def test_whole_problem_with_constant_fingerprint_is_pinned():
    model = LICMModel()
    v = model.new_vars(4)
    model.add((v[0] + v[1] + v[2] + v[3]) <= 2)
    model.add((v[0] - v[3]) >= 0)
    objective = LinearExpr({var.index: i + 1 for i, var in enumerate(v)}, 3)
    prepared = SolveSession(model).prepare(objective)
    digest = "c34773f10a22c5f869588bc42f439728"
    assert _fingerprints(prepared) == ([digest], digest)


def test_minmax_problem_fingerprint_is_pinned():
    model = LICMModel()
    v = model.new_vars(4)
    relation = model.relation("R", ["V"])
    for value, var in ((3, None), (5, v[0]), (7, v[1]), (9, v[2]), (9, v[3])):
        relation.insert((value,), ext=1 if var is None else var)
    model.add(linear_sum(v) <= 2)
    model.add((v[1] + v[2]) >= 1)
    prepared = prepare_minmax(SolveSession(model), relation, "V", "max")
    digest = "12eafde72fc4609c350ef6b3c8bae4ec"
    assert _fingerprints(prepared) == ([digest], digest)


# -- a shared fingerprint is a shared problem --------------------------------
_CONSTRAINT = st.tuples(
    st.lists(st.tuples(st.integers(0, 4), st.sampled_from((-1, 1, 2))), min_size=1,
             max_size=4),
    st.sampled_from(("<=", ">=", "==")),
    st.integers(-1, 2),
)


def _build(constraints, weights, burn, spacing):
    """One encoding of a 5-variable problem: ``burn`` indices first and
    ``spacing[i]`` unrelated variables before variable ``i``, so model
    indices differ between encodings while their relative order holds."""
    model = LICMModel()
    model.new_vars(burn)
    v = []
    for gap in spacing:
        model.new_vars(gap)
        v.append(model.new_var())
    for terms, op, rhs in constraints:
        expr = linear_sum(coef * v[i] for i, coef in terms)
        if expr.coeffs:
            model.add({"<=": expr.__le__, ">=": expr.__ge__, "==": expr.eq}[op](rhs))
    objective = LinearExpr({v[i].index: w for i, w in enumerate(weights) if w}, 1)
    return model, objective


def _optimum(problem, sense):
    values = [
        problem.objective_value(x)
        for x in itertools.product((0, 1), repeat=problem.num_vars)
        if problem.is_feasible(list(x))
    ]
    if not values:
        return None
    return max(values) if sense == "max" else min(values)


def _constraint_multiset(problem):
    return sorted((c.terms, c.op, c.rhs) for c in problem.constraints)


@settings(max_examples=60, deadline=None)
@given(
    constraints=st.lists(_CONSTRAINT, min_size=1, max_size=5),
    weights=st.lists(st.integers(-2, 3), min_size=5, max_size=5),
    encodings=st.lists(
        st.tuples(st.integers(0, 6), st.lists(st.integers(0, 3), min_size=5, max_size=5)),
        min_size=2,
        max_size=2,
    ),
)
def test_shared_fingerprint_means_equal_problem_and_shared_witness(
    constraints, weights, encodings
):
    built = [_build(constraints, weights, burn, spacing) for burn, spacing in encodings]
    sessions = [SolveSession(model, cache_size=64) for model, _ in built]
    prepared = [s.prepare(objective) for s, (_, objective) in zip(sessions, built)]
    first, second = prepared
    # An order-preserving re-encoding builds the same blocks.
    assert [p.fingerprint for p in first.components] == [
        p.fingerprint for p in second.components
    ]
    try:
        sessions[0].solve_prepared(first)
    except InfeasibleError:  # nothing cached to share
        return
    for one, other in zip(first.components, second.components):
        assert one.fingerprint == other.fingerprint
        a, b = one.problem, other.problem
        assert (a.num_vars, a.objective, a.objective_constant) == (
            b.num_vars, b.objective, b.objective_constant,
        )
        assert _constraint_multiset(a) == _constraint_multiset(b)
        for sense in ("min", "max"):
            x = sessions[0].cache.get((one.fingerprint, sense)).x_canonical
            assert b.is_feasible(list(x))
            assert b.objective_value(x) == _optimum(b, sense)
            # ... and it reads as a valid world of the other encoding.
            witness = {index: x[column] for index, column in other.dense.items()}
            model = built[1][0]
            scoped = [c for c in model.constraints if set(c.variables) <= set(witness)]
            assert all(c.satisfied_by(witness) for c in scoped)


# -- L2 across encodings ------------------------------------------------------
def _blocks(burn: int):
    """Three coupled blocks and a free variable, after ``burn`` indices."""
    model = LICMModel()
    model.new_vars(burn)
    v = model.new_vars(7)
    model.add(linear_sum(v[0:3]) <= 2)
    model.add((v[0] - v[1]) >= 0)
    model.add((v[3] + v[4]).eq(1))
    model.add((2 * v[5]) <= 1)
    weights = (3, 1, -2, 2, 1, 4, -1)
    return model, LinearExpr({var.index: w for var, w in zip(v, weights)}, 5)


def test_l2_file_serves_a_fresh_session_on_a_reencoded_model(tmp_path, monkeypatch):
    path = str(tmp_path / "l2.sqlite")
    model, objective = _blocks(0)
    with SolveSession(model, fabric=InlineFabric(), l2_path=path) as first:
        cold = first.bounds(objective)
    assert cold.exact and cold.stats["components"] > 1

    def no_solver(problem, sense, options):
        raise AssertionError("a re-encoded repeat must answer from L2")

    monkeypatch.setattr(fabric_module, "portfolio_solve", no_solver)
    fabric_module._L2_HANDLES.clear()  # the fresh process reopens the file
    model, objective = _blocks(11)
    with SolveSession(model, fabric=InlineFabric(), l2_path=path) as second:
        warm = second.bounds(objective)
    assert warm.stats["l2_hits"] == 2 * warm.stats["components"]
    assert (warm.lower, warm.upper) == (cold.lower, cold.upper)
    for bound, witness in ((warm.lower, warm.lower_witness), (warm.upper, warm.upper_witness)):
        assert objective.value({**{i: 0 for i in objective.coeffs}, **witness}) == bound
        assert all(c.satisfied_by(witness) for c in model.constraints)


# -- the served lineage is pinned ---------------------------------------------
def _served_lineage_digests():
    """Evaluate Q1-Q3 on every scheme (one scope each) at a small fixture
    and digest (a) the store, the pool size and the lineage registry as
    each evaluation leaves them, (b) each prepared problem's sorted
    component fingerprints."""
    import hashlib

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import ExperimentContext
    from repro.queries.licm_eval import evaluate_licm

    store_digest = hashlib.blake2b(digest_size=16)
    fingerprint_digest = hashlib.blake2b(digest_size=16)
    context = ExperimentContext(
        ExperimentConfig(num_transactions=60, num_items=24, k_values=(2,), seed=7)
    )
    try:
        for scheme in ("k-anonymity", "km", "bipartite"):
            encoded = context.encoding(scheme, 2).encoded
            session, model = context.session(scheme, 2), encoded.model
            for query in ("Q1", "Q2", "Q3"):
                plan = context.plan(query, encoded)
                with model.scoped():
                    objective = evaluate_licm(plan, encoded.relations)
                    store = model.constraints
                    state = (
                        len(model.pool),
                        [(c.terms, c.op, c.rhs) for c in store],
                        list(model.lineage_parents.items()),
                        [(v, [store.position(c) for c in cs])
                         for v, cs in model.lineage_constraints.items()],
                        sorted(objective.coeffs.items()),
                    )
                    store_digest.update(repr(state).encode())
                    prepared = session.prepare(objective)
                    fingerprints = sorted(c.fingerprint for c in prepared.components)
                    fingerprint_digest.update(repr(fingerprints).encode())
    finally:
        context.close()
    return store_digest.hexdigest(), fingerprint_digest.hexdigest()


def test_served_lineage_and_component_fingerprints_are_pinned():
    """The operators' lineage and the blocks it prepares into are what
    L2 keys are made of: the digests were taken before the operators
    built their output in bulk, and must not move."""
    assert _served_lineage_digests() == (
        "e4e8ffadbb26b69942c3940f69845405",
        "a98d97d852241dc8a9f74f9c46fd4b10",
    )
