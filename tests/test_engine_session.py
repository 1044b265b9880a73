"""SolveSession: cache correctness, invalidation, parallel == serial.

The engine-level guarantees (ISSUE 1 acceptance):

* same fingerprint => identical bounds (a warm hit returns exactly what a
  cold solve would);
* mutating the constraint store (non-lineage adds) invalidates the cache;
  lineage-only appends (answering more queries) keep it warm;
* a session on a two-worker process fabric and a serial one produce
  identical ``AggregateBounds`` on hypothesis-generated small models, and
  both agree with the brute-force world-enumeration oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    all_valid_assignments,
    brute_force_objective_range,
    counter_totals,
    delta,
    fig2c_model,
    phase_totals,
)
from repro.core.aggregates import count_objective
from repro.core.bounds import count_bounds, group_count_bounds, objective_bounds
from repro.core.database import LICMModel
from repro.core.linexpr import linear_sum
from repro.core.operators import licm_select
from repro.engine import SolveSession
from repro.relational.predicates import Compare


def select_not_shampoo(trans):
    return licm_select(trans, Compare("ItemName", "!=", "Shampoo"))


def bounds_fields(bounds):
    """Everything except the timing entries of stats."""
    stats = {k: v for k, v in bounds.stats.items() if k not in ("prep_time", "solve_time")}
    return (
        bounds.lower,
        bounds.upper,
        bounds.lower_witness,
        bounds.upper_witness,
        bounds.exact,
        bounds.lower_bound_proven,
        bounds.upper_bound_proven,
        stats,
    )


# -- cache behaviour ---------------------------------------------------------


def test_warm_hit_returns_identical_bounds():
    model, trans, _ = fig2c_model()
    session = SolveSession(model)
    objective = count_objective(select_not_shampoo(trans))

    cold = session.bounds(objective)
    warm = session.bounds(objective)

    assert cold.stats["cache_hits"] == 0
    assert warm.stats["cache_hits"] == 2
    assert cold.stats["fingerprint"] == warm.stats["fingerprint"]
    assert bounds_fields(cold)[:7] == bounds_fields(warm)[:7]
    assert (cold.lower, cold.upper) == (1, 3)
    assert session.cache.stats["hits"] == 2


def test_repeated_query_evaluation_hits_cache():
    """Re-running the same query allocates fresh lineage variables but
    canonicalizes to the same fingerprint — the Figure-5 sweep pattern."""
    model, trans, _ = fig2c_model()
    session = SolveSession(model)

    first = session.bounds(count_objective(select_not_shampoo(trans)))
    second = session.bounds(count_objective(select_not_shampoo(trans)))

    assert first.stats["fingerprint"] == second.stats["fingerprint"]
    assert second.stats["cache_hits"] == 2
    assert (first.lower, first.upper) == (second.lower, second.upper)
    # the lineage-only append did NOT clear the cache
    assert session.cache.stats["invalidations"] == 0


def test_non_lineage_mutation_invalidates_cache():
    model, trans, (b1, b2, _b3) = fig2c_model()
    session = SolveSession(model)
    session.bounds(count_objective(select_not_shampoo(trans)))
    assert len(session.cache) == 2

    model.add((b1 + b2) <= 1)  # user constraint -> generation bump
    after = session.bounds(count_objective(select_not_shampoo(trans)))

    assert session.cache.stats["invalidations"] == 1
    assert after.stats["cache_hits"] == 0
    # and the new constraint is honoured
    assert (after.lower, after.upper) == (1, 2)


def test_cache_disabled_by_zero_size():
    model, trans, _ = fig2c_model()
    session = SolveSession(model, cache_size=0)
    objective = count_objective(select_not_shampoo(trans))
    session.bounds(objective)
    again = session.bounds(objective)
    assert again.stats["cache_hits"] == 0
    assert len(session.cache) == 0


def test_lru_eviction_is_bounded():
    model = LICMModel()
    variables = model.new_vars(6)
    model.add(linear_sum(variables) >= 1)
    session = SolveSession(model, cache_size=4)
    for var in variables:
        session.bounds(var + 0)
    assert len(session.cache) <= 4
    assert session.cache.stats["evictions"] > 0


# -- facade equivalence ------------------------------------------------------


def test_facade_and_session_agree():
    model, trans, _ = fig2c_model()
    relation = select_not_shampoo(trans)
    objective = count_objective(relation)
    facade = objective_bounds(model, objective)
    with SolveSession(model) as session:
        engine = session.bounds(objective)
    assert (facade.lower, facade.upper) == (engine.lower, engine.upper)
    assert facade.exact and engine.exact
    legacy_keys = {
        "variables_before",
        "constraints_before",
        "variables_after",
        "constraints_after",
        "problem_variables",
        "problem_constraints",
        "prep_time",
        "solve_time",
        "nodes",
        "backend",
    }
    assert legacy_keys <= set(facade.stats)


def test_count_bounds_accepts_session_kwarg():
    model, trans, _ = fig2c_model()
    relation = select_not_shampoo(trans)
    session = SolveSession(model)
    first = count_bounds(relation, session=session)
    second = count_bounds(relation, session=session)
    assert (first.lower, first.upper) == (second.lower, second.upper) == (1, 3)
    assert session.cache.stats["hits"] == 2


def test_group_count_bounds_shares_one_session():
    model = LICMModel()
    rel = model.relation("R", ["Region", "Id"])
    b1, b2 = model.new_vars(2)
    rel.insert(("east", "1"), ext=b1)
    rel.insert(("east", "2"), ext=b2)
    rel.insert(("west", "3"))
    model.add((b1 + b2) >= 1)
    session = SolveSession(model)
    out = group_count_bounds(rel, ["Region"], session=session)
    assert (out[("east",)].lower, out[("east",)].upper) == (1, 2)
    assert (out[("west",)].lower, out[("west",)].upper) == (1, 1)


# -- counters and phase timings ----------------------------------------------


def test_session_emits_structured_events():
    model, trans, _ = fig2c_model()
    session = SolveSession(model)
    counters, phases = counter_totals(), phase_totals()
    cold = session.bounds(count_objective(select_not_shampoo(trans)))
    warm = session.bounds(count_objective(select_not_shampoo(trans)))

    timed = delta(phases, phase_totals())
    assert {"prune", "normalize", "solve_min", "solve_max"} <= set(timed)
    assert timed["solve_min"] > 0.0
    assert cold.stats["variables_after"] <= cold.stats["variables_before"]
    counted = delta(counters, counter_totals())
    # cold: both directions miss and solve; warm: both hit L1
    assert counted["cache_misses"] == 2 and counted["cache_hits"] == 2
    assert counted.get("prepare_memo_hits", 0) == 0  # bounds() names no memo key
    assert counted.get("solver_nodes", 0) == cold.stats["nodes"]
    assert warm.stats["cache_hits"] == 2 and cold.stats["cache_hits"] == 0


# -- parallel == serial on random small models -------------------------------


@st.composite
def small_model(draw):
    """A tiny LICM model with random cardinality constraints + objective."""
    model = LICMModel()
    n = draw(st.integers(2, 5))
    variables = model.new_vars(n)
    num_constraints = draw(st.integers(1, 3))
    for _ in range(num_constraints):
        size = draw(st.integers(1, n))
        members = draw(
            st.lists(
                st.sampled_from(variables), min_size=size, max_size=size, unique=True
            )
        )
        lo = draw(st.integers(0, len(members)))
        hi = draw(st.integers(lo, len(members)))
        expr = linear_sum(members)
        model.add(expr >= lo)
        model.add(expr <= hi)
    coeffs = [draw(st.integers(-3, 3)) for _ in range(n)]
    objective = linear_sum(
        [c * v for c, v in zip(coeffs, variables)] or [variables[0] * 0]
    )
    return model, objective


@given(model_and_objective=small_model())
@settings(max_examples=25, deadline=None)
def test_parallel_serial_and_oracle_agree(process_fabric, model_and_objective):
    model, objective = model_and_objective
    assume(all_valid_assignments(model))  # overlapping ranges can conflict
    serial = SolveSession(model)
    with SolveSession(model, fabric=process_fabric) as parallel:
        s = serial.bounds(objective)
        p = parallel.bounds(objective)
        warm = parallel.bounds(objective)
    assert bounds_fields(s)[:7] == bounds_fields(p)[:7]
    assert bounds_fields(p)[:7] == bounds_fields(warm)[:7]
    assert warm.stats["cache_hits"] == 2
    lo, hi = brute_force_objective_range(model, objective)
    assert (s.lower, s.upper) == (lo, hi)


def test_infeasible_model_raises():
    from repro.errors import InfeasibleError

    model = LICMModel()
    (b,) = model.new_vars(1)
    model.add((b + 0) >= 1)
    model.add((b + 0) <= 0)
    session = SolveSession(model)
    with pytest.raises(InfeasibleError):
        session.bounds(b + 0)
