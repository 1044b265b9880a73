"""Query-scoped lineage: ``LICMModel.scoped`` rolls one query back off
the shared model.

* After many scoped evaluations the pool, the store's indexes and the
  lineage registry equal their pre-scope contents, and the store
  generation has not moved.
* A later base ``model.add`` is kept by ``prune_lineage``: no stale
  ``id()`` of a rolled-back lineage constraint misclassifies it.
* Leaving by exception rolls back too; a nested scope raises.
* Served through one ``QueryScheduler``, a stream of distinct Q1-Q3
  parameterisations leaves ``model.stats()`` exactly flat, and a plan
  served again after others prepares byte-identically.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.core.linexpr import linear_sum
from repro.core.pruning import prune_lineage
from repro.engine import SolveSession
from repro.errors import ConstraintError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.queries.licm_eval import evaluate_licm
from repro.queries.workload import QUERY_BUILDERS
from repro.service.api import STATUS_OK, QueryRequest
from repro.service.scheduler import QueryScheduler, _adhoc_plan

SCHEME = "k-anonymity"

#: Distinct Q1-Q3 parameterisations, as the sweep workload draws them.
PARAMS = (
    ("Q1", {"pa_selectivity": 0.12, "pb_selectivity": 0.2}),
    ("Q3", {"q3_selectivity": 0.07}),
    ("Q2", {"pa_selectivity": 0.2, "pb_selectivity": 0.4}),
    ("Q1", {"pa_selectivity": 0.25, "pb_selectivity": 0.1}),
    ("Q3", {"q3_selectivity": 0.13}),
    ("Q2", {"pa_selectivity": 0.1, "pb_selectivity": 0.3}),
)


def small_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        num_transactions=60, num_items=24, k_values=(2,), mc_samples=4, seed=7,
        solver_backend="bb",
    )
    return ExperimentConfig(**{**defaults, **overrides})


@pytest.fixture()
def context():
    context = ExperimentContext(small_config())
    yield context
    context.close()


def snapshot(model) -> tuple:
    """Everything a scope must restore, by value and by object identity."""
    store = model.constraints
    return (
        [(var.index, var.name) for var in model.pool],
        [id(constraint) for constraint in store],
        {index: list(positions) for index, positions in store._by_var.items()},
        dict(store._position_of),
        store.generation,
        {index: list(parents) for index, parents in model.lineage_parents.items()},
        {index: [id(c) for c in cs] for index, cs in model.lineage_constraints.items()},
        set(model._lineage_constraint_ids),
        model._anon_counter,
    )


def plans(context, encoded):
    """Q1-Q3 at several parameterisations plus the ad-hoc COUNT and SUM."""
    for query, params in PARAMS:
        yield QUERY_BUILDERS[query](
            encoded, dataclasses.replace(context.config.params, **params)
        )
    for aggregate in ("count", "sum"):
        yield _adhoc_plan(encoded, aggregate)


def test_scoped_evaluations_roll_back_exactly(context):
    encoded = context.encoding(SCHEME, 2).encoded
    model = encoded.model
    q1, q3, q2 = list(plans(context, encoded))[:3]
    # Lineage evaluated outside any scope stays, and must survive scopes.
    evaluate_licm(q2, encoded.relations)
    before = snapshot(model)
    session = SolveSession(model)
    grown = []
    for _ in range(2):
        for plan in plans(context, encoded):
            with model.scoped():
                objective = evaluate_licm(plan, encoded.relations)
                grown.append(len(model.constraints) - len(before[1]))
                session.bounds(objective)
            assert snapshot(model) == before
    assert max(grown) > 0


def test_base_append_after_scopes_is_kept_by_lineage_pruning(context):
    encoded = context.encoding(SCHEME, 2).encoded
    model = encoded.model
    reached = set()
    for plan in plans(context, encoded):
        with model.scoped():
            objective = evaluate_licm(plan, encoded.relations)
            reached |= prune_lineage(model, objective.coeffs).variables
    base_vars = sorted(v for v in reached if v < len(model.pool))
    # Fresh constraints reuse the memory of the rolled-back ones.
    added = [model.add(linear_sum([model.pool.get(v)]) <= 1) for v in base_vars]
    assert not any(model.is_lineage_constraint(c) for c in added)
    with model.scoped():
        objective = evaluate_licm(next(plans(context, encoded)), encoded.relations)
        kept = prune_lineage(model, objective.coeffs)
    kept_ids = {id(c) for c in kept.constraints}
    mine = [c for c, v in zip(added, base_vars) if v in kept.variables]
    assert mine and all(id(c) in kept_ids for c in mine)


def test_exception_rolls_back_and_scopes_do_not_nest(context):
    encoded = context.encoding(SCHEME, 2).encoded
    model = encoded.model
    q1, q3, q2 = list(plans(context, encoded))[:3]
    before = snapshot(model)
    with pytest.raises(RuntimeError):
        with model.scoped():
            evaluate_licm(q3, encoded.relations)
            raise RuntimeError("mid-query failure")
    assert snapshot(model) == before

    with model.scoped():
        evaluate_licm(q1, encoded.relations)
        with pytest.raises(ConstraintError):
            with model.scoped():
                pass  # pragma: no cover
        evaluate_licm(q2, encoded.relations)
    assert snapshot(model) == before


def test_reappended_base_constraint_keeps_its_position(context):
    model = context.encoding(SCHEME, 2).encoded.model
    store = model.constraints
    first = store[0]
    before = snapshot(model)
    with model.scoped():
        model.add(first)
        model.add(first)
        assert store.position(first) == 0  # a re-append in scope keeps it
        assert store.generation == before[4]
    assert store.position(first) == 0
    assert snapshot(model) == before


# -- served through one scheduler -------------------------------------------
def _request(query, params) -> QueryRequest:
    return QueryRequest(query=query, scheme=SCHEME, k=2, params=params)


def test_distinct_parameterisations_leave_the_model_flat(context):
    model = context.encoding(SCHEME, 2).encoded.model
    with QueryScheduler(context, workers=2) as scheduler:
        scheduler.warm([(SCHEME, 2)])
        base = model.stats()
        for query, params in PARAMS * 2:
            response = scheduler.execute(_request(query, params))
            assert response.status == STATUS_OK, response.error
            assert model.stats() == base, (query, params)
        for aggregate in ("count", "sum", "min", "max"):
            response = scheduler.execute(QueryRequest(aggregate=aggregate, scheme=SCHEME))
            assert response.status == STATUS_OK, response.error
            assert model.stats() == base, aggregate


def test_same_plan_prepares_identically_before_and_after_others(context):
    session = context.session(SCHEME, 2)
    with QueryScheduler(context, workers=1) as scheduler:
        scheduler.warm([(SCHEME, 2)])
        query, params = PARAMS[1]
        key = _request(query, params).plan_key()
        first = scheduler.execute(_request(query, params))
        prepared = session.memoized(key)
        for other, other_params in PARAMS[2:]:
            scheduler.execute(_request(other, other_params))
        session._prepared.clear()  # re-evaluate in a fresh scope
        session.cache.clear()  # and re-solve
        again = scheduler.execute(_request(query, params))
        reprepared = session.memoized(key)
    assert again.fingerprint == first.fingerprint is not None
    assert (again.lower, again.upper, again.exact) == (first.lower, first.upper, first.exact)
    assert (
        reprepared.fingerprint, reprepared.objective_offset,
        reprepared.prune_stats, reprepared.components,
    ) == (
        prepared.fingerprint, prepared.objective_offset,
        prepared.prune_stats, prepared.components,
    )


def test_concurrent_requests_scope_one_at_a_time():
    """More workers than cores and a short switch interval: scopes of
    concurrent COUNT/SUM and MIN/MAX requests on one encoding serialize on
    the model lock, so every answer equals its sequential reference and
    the model ends exactly as it began."""
    requests = [_request(q, p) for q, p in PARAMS] + [
        QueryRequest(aggregate=a, scheme=SCHEME) for a in ("count", "sum", "min", "max")
    ]
    answers = {}
    for workers, label in ((1, "sequential"), (6, "concurrent")):
        context = ExperimentContext(small_config())
        interval = sys.getswitchinterval()
        try:
            model = context.encoding(SCHEME, 2).encoded.model
            with QueryScheduler(context, workers=workers) as scheduler:
                scheduler.warm([(SCHEME, 2)])
                base = model.stats()
                sys.setswitchinterval(1e-5)
                pending = [scheduler.submit(request) for request in requests]
                responses = [p.wait(timeout=120) for p in pending]
            assert all(p.done for p in pending)
            assert model.stats() == base
        finally:
            sys.setswitchinterval(interval)
            context.close()
        assert all(r.status == STATUS_OK for r in responses), [r.error for r in responses]
        answers[label] = [(r.lower, r.upper, r.exact, r.fingerprint) for r in responses]
    assert answers["concurrent"] == answers["sequential"]
