"""The prepared-problem memo inside ``SolveSession.prepare``.

A structurally repeated ``prepare`` must skip prune/normalize/canonicalize/
decompose and hand back a problem identical to a fresh preparation —
never a stale one:

* under lineage pruning the memo survives lineage-only appends (answering
  other queries) and is cleared by any other append;
* under ``fixpoint``/``single_pass`` pruning and ``do_prune=False`` every
  append can change the problem, so no memoized problem outlives one;
* ``cache_size=0`` disables it;
* nothing downstream (exact solves, the tier cascade) mutates a memoized
  problem, and the service serves the same bounds as a memo-less session.
"""

from __future__ import annotations

import copy

import pytest

import repro.engine.session as session_module
from helpers import fig2c_model
from repro.core.aggregates import count_objective
from repro.core.operators import licm_project, licm_select
from repro.engine import SolveSession
from repro.estimator import PRECISION_BALANCED, PRECISION_FAST, PRECISION_TIGHT
from repro.estimator.tiered import TieredAnswerer
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.queries.licm_eval import evaluate_licm
from repro.relational.predicates import Compare
from repro.service.api import STATUS_OK, QueryRequest
from repro.service.scheduler import QueryScheduler


def count_where(trans, op, item):
    """COUNT over a selection (no new lineage: the rows keep their ext)."""
    return count_objective(licm_select(trans, Compare("ItemName", op, item)))


def count_tids_where(trans, op, item):
    """COUNT(DISTINCT TID) over a selection — each call appends fresh OR
    lineage over the selected rows' base variables."""
    selected = licm_select(trans, Compare("ItemName", op, item))
    return count_objective(licm_project(selected, ["TID"]))


def preparation(prepared, with_before=True):
    """Every field of a PreparedProblem except its wall time."""
    stats = dict(prepared.prune_stats)
    if not with_before:
        stats = {k: v for k, v in stats.items() if not k.endswith("_before")}
    return (
        prepared.problem,
        prepared.dense,
        prepared.canonical,
        stats,
        prepared.components,
    )


@pytest.fixture()
def prune_calls(monkeypatch):
    """Count the session's calls into the pruning pass."""
    calls = []
    real = session_module.prune

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(session_module, "prune", counted)
    return calls


def test_repeated_prepare_skips_prune_and_keeps_bounds(prune_calls):
    model, trans, _ = fig2c_model()
    session = SolveSession(model)
    objective = count_where(trans, "!=", "Shampoo")

    first = session.prepare(objective)
    cold = session.solve_prepared(first)
    second = session.prepare(objective)
    warm = session.solve_prepared(second)

    assert len(prune_calls) == 1
    assert session.telemetry.counters["prepare_memo_hits"] == 1
    assert second.fingerprint == first.fingerprint
    assert preparation(second) == preparation(first)
    assert (warm.lower, warm.upper) == (cold.lower, cold.upper) == (1, 3)
    assert warm.lower_witness == cold.lower_witness
    assert warm.upper_witness == cold.upper_witness


def test_memo_key_is_content_not_identity(prune_calls):
    """An equal objective built anew (same variables) hits the memo."""
    model, trans, (b1, b2, b3) = fig2c_model()
    session = SolveSession(model)
    session.prepare(b1 + b2 + b3)
    session.prepare(b3 + b2 + b1)
    assert len(prune_calls) == 1
    session.prepare(b1 + b2 + b3 + 1)  # the constant is part of the key
    session.prepare(b1 + b2 + b3, do_prune=False)  # and so is do_prune
    session.prepare(b1 + b2 + b3, extra_constraints=[(b1 + 0) >= 1])
    assert session.telemetry.counters["prepare_memo_hits"] == 1

    lonely = model.new_var()  # in no constraint: pruning drops everything
    fixpoint = SolveSession(model, prune_method="fixpoint")
    pruned = fixpoint.prepare(lonely + 0)
    whole = fixpoint.prepare(lonely + 0, do_prune=False)
    assert pruned.prune_stats["constraints_after"] == 0
    assert whole.prune_stats["constraints_after"] == 1


def test_lineage_only_appends_keep_the_memo(prune_calls):
    model, trans, _ = fig2c_model()
    session = SolveSession(model)
    objective = count_where(trans, "!=", "Shampoo")
    first = session.prepare(objective)
    before = len(model.constraints)

    other = count_tids_where(trans, "<", "Shampoo")  # a sibling query's lineage
    session.bounds(other)
    assert len(model.constraints) > before
    calls = len(prune_calls)

    again = session.prepare(objective)
    assert len(prune_calls) == calls  # served from the memo
    assert preparation(again) == preparation(first)
    # ... and it is exactly what a fresh, memo-less session prepares now,
    # apart from the documented *_before counts of the first prepare.
    fresh = SolveSession(model, cache_size=0).prepare(objective)
    assert preparation(again, with_before=False) == preparation(
        fresh, with_before=False
    )
    assert again.prune_stats["constraints_before"] == before
    assert fresh.prune_stats["constraints_before"] == len(model.constraints)


def test_non_lineage_append_clears_the_memo(prune_calls):
    model, trans, (b1, b2, _b3) = fig2c_model()
    session = SolveSession(model)
    objective = count_where(trans, "!=", "Shampoo")
    session.prepare(objective)
    session.prepare(objective)
    assert len(prune_calls) == 1

    model.add((b1 + b2) <= 1)  # a user constraint
    after = session.prepare(objective)
    assert len(prune_calls) == 2
    assert after.prune_stats["constraints_after"] == 2  # both base constraints
    bounds = session.solve_prepared(after)
    assert (bounds.lower, bounds.upper) == (1, 2)  # the new constraint holds


@pytest.mark.parametrize(
    "prune_method, do_prune",
    [("fixpoint", True), ("single_pass", True), ("lineage", False)],
)
def test_store_dependent_preparations_are_never_stale(prune_method, do_prune):
    model, trans, (b1, b2, _b3) = fig2c_model()
    session = SolveSession(model, prune_method=prune_method)
    objective = count_where(trans, "!=", "Shampoo")

    def check():
        got = session.prepare(objective, do_prune=do_prune)
        fresh = SolveSession(model, prune_method=prune_method, cache_size=0)
        want = fresh.prepare(objective, do_prune=do_prune)
        assert preparation(got) == preparation(want)
        return got

    first = check()
    assert check().fingerprint == first.fingerprint  # no append: a hit
    hits = session.telemetry.counters["prepare_memo_hits"]
    assert hits == 1

    count_tids_where(trans, "<", "Shampoo")  # lineage that mentions b1
    grown = check()
    assert grown.fingerprint != first.fingerprint  # the append mattered
    model.add((b1 + b2) <= 1)
    check()
    count_tids_where(trans, "!=", "Shampoo")
    check()
    # every post-append prepare re-prepared; only the first repeat hit
    assert session.telemetry.counters["prepare_memo_hits"] == hits


def test_zero_cache_size_disables_the_memo(prune_calls):
    model, trans, _ = fig2c_model()
    session = SolveSession(model, cache_size=0)
    objective = count_where(trans, "!=", "Shampoo")
    session.prepare(objective)
    session.prepare(objective)
    assert len(prune_calls) == 2
    assert "prepare_memo_hits" not in session.telemetry.counters
    assert len(session._prepared) == 0


def test_memo_is_lru_bounded_by_cache_size():
    model, _, variables = fig2c_model()
    session = SolveSession(model, cache_size=32)  # room for 2 problems
    for var in variables:
        session.prepare(var + 0)
    assert len(session._prepared) == 2
    assert session._prepared.stats["evictions"] == 1
    assert SolveSession(model, cache_size=1)._prepared.maxsize == 1


# -- nothing downstream mutates a shared preparation -------------------------
@pytest.fixture(scope="module")
def workload():
    config = ExperimentConfig(
        num_transactions=80, num_items=32, k_values=(2,), mc_samples=4, seed=5
    )
    context = ExperimentContext(config)
    encoded = context.encoding("km", 2).encoded
    objective = evaluate_licm(context.plan("Q1", encoded), encoded.relations)
    yield encoded, objective
    context.close()


def test_solves_and_tiers_leave_a_memoized_problem_unchanged(workload):
    encoded, objective = workload
    with SolveSession(encoded.model) as session:
        prepared = session.prepare(objective)
        assert prepared.decomposed  # the per-component paths are exercised
        snapshot = copy.deepcopy(prepared)

        exact = session.solve_prepared(prepared)
        for precision in (PRECISION_FAST, PRECISION_BALANCED, PRECISION_TIGHT):
            TieredAnswerer().answer(session, prepared, precision, memo={})
        # tolerance -1 escalates every component through solve_units
        TieredAnswerer(tolerance=-1.0).answer(
            session, prepared, PRECISION_BALANCED, memo={}
        )
        session.cache.clear()  # re-solve from scratch on the memoized problem
        again = session.prepare(objective)
        resolved = session.solve_prepared(again)

    assert session.telemetry.counters["prepare_memo_hits"] == 1
    assert preparation(prepared) == preparation(snapshot)
    assert preparation(again) == preparation(snapshot)
    assert (resolved.lower, resolved.upper) == (exact.lower, exact.upper)


# -- the service path ----------------------------------------------------------
def test_served_tight_answers_match_a_memo_less_session():
    config = ExperimentConfig(
        num_transactions=60, num_items=24, k_values=(2,), mc_samples=4,
        seed=7, solver_backend="bb",
    )
    context = ExperimentContext(config)
    try:
        encoded = context.encoding("km", 2).encoded
        session = context.session("km", 2)
        keys = ["Q1", "Q2", "Q1", "Q1", "Q2"]
        with QueryScheduler(context, workers=2, max_queue=16) as scheduler:
            scheduler.warm([("km", 2)])
            for query in keys:
                response = scheduler.execute(
                    QueryRequest(query=query, precision=PRECISION_TIGHT)
                )
                assert response.status == STATUS_OK, response.error
                objective = evaluate_licm(
                    context.plan(query, encoded), encoded.relations
                )
                reference = SolveSession(
                    encoded.model, options=context.solver_options(), cache_size=0
                ).bounds(objective)
                assert (response.lower, response.upper) == (
                    reference.lower,
                    reference.upper,
                ), query
        # every repeat of a key was prepared from the memo
        assert session.telemetry.counters["prepare_memo_hits"] >= 3
    finally:
        context.close()
