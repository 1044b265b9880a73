"""MIN/MAX bounds as bisected feasibility probes on one prepared problem.

:func:`repro.core.bounds.minmax_bounds` prepares a relation's lineage once
and bisects the cuts, each probe one or two dense rows on that problem.
These tests pin it to possible-world enumeration and to the per-tuple
linear scan it replaced (kept here as the reference), check that an
undecided probe only widens the interval, and bound the probe count.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.fabric as fabric_module
from helpers import all_valid_assignments
from repro.core.bounds import minmax_bounds, prepare_minmax
from repro.core.database import LICMModel
from repro.core.linexpr import LinearExpr, linear_sum
from repro.core.operators import or_ext
from repro.engine.session import SolveSession
from repro.errors import InfeasibleError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.queries.licm_eval import evaluate_licm
from repro.service.scheduler import _adhoc_plan
from repro.solver.result import Solution, SolverOptions

REAL_SOLVE = fabric_module.portfolio_solve
SUITE = Path(__file__).resolve().parents[1] / "benchmarks" / "suite"


def enumerated(model, relation, agg):
    """``(lower, upper)`` of MIN/MAX(V) over every non-empty world."""
    pick = max if agg == "max" else min
    answers = set()
    for assignment in all_valid_assignments(model):
        present = [
            row.values[0]
            for row in relation.rows
            if row.certain or assignment[row.ext.index] == 1
        ]
        if present:
            answers.add(pick(present))
    return (min(answers), max(answers)) if answers else (None, None)


def linear_scan(relation, agg):
    """The per-tuple linear scan that bisection replaced: one pruned
    feasibility problem per tuple or cut, extremes first."""
    session = SolveSession(relation.model)
    rows = relation.rows
    values = sorted({row.values[0] for row in rows}, reverse=agg == "min")

    def feasible(extra) -> bool:
        try:
            session.bounds(LinearExpr({}, 0), extra_constraints=extra)
        except InfeasibleError:
            return False
        return True

    def at(ranks):
        return [row for row in rows if values.index(row.values[0]) in ranks]

    outer = inner = None
    for r in reversed(range(len(values))):
        group = at({r})
        if any(row.certain for row in group) or any(
            feasible([(row.ext + 0) >= 1]) for row in group
        ):
            outer = values[r]
            break
    for r in range(len(values)):
        beyond, cover = at(set(range(r + 1, len(values)))), at(set(range(r + 1)))
        if any(row.certain for row in beyond):
            continue
        extra = [(row.ext + 0) <= 0 for row in beyond]
        if not any(row.certain for row in cover):
            extra.append(linear_sum([row.ext for row in cover]) >= 1)
        if feasible(extra):
            inner = values[r]
            break
    return (inner, outer) if agg == "max" else (outer, inner)


def probe_budget(relation, attribute="V") -> int:
    """At most 2*ceil(log2 |values|) probes; one for a single value."""
    position = relation.position(attribute)
    m = len({row.values[position] for row in relation.rows})
    return max(1, 2 * math.ceil(math.log2(m))) if m else 0


def build(num_vars, rows, constraints, unpopulated=False):
    """A model over ``num_vars`` variables and one relation R(V).

    ``rows`` are ``(value, var)`` pairs, ``var`` None for a certain tuple;
    ``constraints`` are ``(variables, op, rhs)`` cardinality constraints.
    ``unpopulated`` forces every uncertain tuple absent."""
    model = LICMModel()
    variables = model.new_vars(num_vars)
    relation = model.relation("R", ["V"])
    for value, var in rows:
        relation.insert((value,), ext=1 if var is None else variables[var])
    for scope, op, rhs in constraints:
        expr = linear_sum(variables[i] for i in scope)
        model.add({"<=": expr.__le__, ">=": expr.__ge__, "==": expr.eq}[op](rhs))
    if unpopulated:
        for row in relation.maybe_rows:
            model.add((row.ext + 0) <= 0)
    return model, relation


def counted_solve(calls):
    def solve(problem, sense, options):
        calls.append(problem)
        return REAL_SOLVE(problem, sense, options)

    return solve


def check(model, relation, agg, monkeypatch):
    """Bisection == enumeration == the linear scan, within the budget."""
    calls = []
    monkeypatch.setattr(fabric_module, "portfolio_solve", counted_solve(calls))
    bounds = minmax_bounds(relation, "V", agg)
    monkeypatch.undo()
    assert bounds.exact
    assert (bounds.lower, bounds.upper) == enumerated(model, relation, agg)
    assert (bounds.lower, bounds.upper) == linear_scan(relation, agg)
    assert len(calls) == bounds.stats["probes"] <= probe_budget(relation)
    return bounds


rows_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.none() | st.integers(0, 7)), max_size=12
)
constraints_strategy = st.lists(
    st.tuples(
        st.sets(st.integers(0, 7), min_size=1, max_size=6),
        st.sampled_from(["<=", ">=", ">=", "=="]),
        st.integers(0, 4),
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(
    rows=rows_strategy,
    constraints=constraints_strategy,
    agg=st.sampled_from(["max", "min"]),
    unpopulated=st.booleans(),
)
def test_bisection_matches_enumeration_and_the_linear_scan(
    rows, constraints, agg, unpopulated
):
    model, relation = build(8, rows, constraints, unpopulated)
    if not all_valid_assignments(model):
        return  # no world at all: MIN/MAX has nothing to bound
    with pytest.MonkeyPatch.context() as monkeypatch:
        check(model, relation, agg, monkeypatch)


@pytest.mark.parametrize("agg", ["max", "min"])
@pytest.mark.parametrize(
    "rows, constraints, unpopulated, expected",
    [
        # certain tuples clip the range; a duplicate value on a second tuple
        ([(5, None), (9, 0), (9, 1), (2, 2), (7, None)], [({0, 1}, "<=", 1)], False,
         {"max": (7, 9), "min": (2, 5)}),
        # duplicate values, one variable shared by two tuples
        ([(3, 0), (3, 1), (6, 0), (8, 2)], [({0, 1, 2}, "==", 1)], False,
         {"max": (3, 8), "min": (3, 8)}),
        # the empty relation
        ([], [], False, {"max": (None, None), "min": (None, None)}),
        # a relation no world populates
        ([(4, 0), (6, 1)], [], True, {"max": (None, None), "min": (None, None)}),
        # only certain tuples: no probe at all
        ([(4, None), (6, None)], [], False, {"max": (6, 6), "min": (4, 4)}),
        # every world holds a value of at least 5: both bisections go deep
        ([(v, v) for v in range(8)], [({5, 6, 7}, ">=", 1)], False,
         {"max": (5, 7), "min": (0, 7)}),
    ],
)
def test_named_cases(rows, constraints, unpopulated, expected, agg, monkeypatch):
    model, relation = build(8, rows, constraints, unpopulated)
    bounds = check(model, relation, agg, monkeypatch)
    assert (bounds.lower, bounds.upper) == expected[agg]
    if all(var is None for _, var in rows):
        assert bounds.stats["probes"] == 0


@settings(max_examples=60, deadline=None)
@given(
    rows=rows_strategy,
    constraints=constraints_strategy,
    agg=st.sampled_from(["max", "min"]),
    undecided=st.integers(0, 2**12 - 1),
)
def test_undecided_probes_only_widen_the_interval(rows, constraints, agg, undecided):
    """A probe stopped with no world is answered feasible: the interval
    contains the exact one, and ``exact`` is False iff a probe was."""
    model, relation = build(8, rows, constraints)
    if not all_valid_assignments(model):
        return
    exact = enumerated(model, relation, agg)
    calls = []

    def solve(problem, sense, options):
        calls.append(problem)
        if undecided >> (len(calls) - 1) & 1:
            return Solution(status="limit", backend="bb")
        return REAL_SOLVE(problem, sense, options)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(fabric_module, "portfolio_solve", solve)
        bounds = minmax_bounds(relation, "V", agg)
    stopped = any(undecided >> i & 1 for i in range(len(calls)))
    assert bounds.exact is not stopped
    if exact != (None, None):
        assert bounds.lower <= exact[0] <= exact[1] <= bounds.upper


@pytest.mark.parametrize("agg", ["max", "min"])
def test_node_limited_probes_are_inexact_and_contain_the_exact_interval(
    agg, monkeypatch
):
    """A real B&B stopped at node 0 with no seed decides nothing."""
    rows = [(value, value % 6) for value in range(10)]
    model, relation = build(6, rows, [({0, 1, 2}, "==", 1), ({3, 4, 5}, "<=", 1)])
    statuses = []

    def solve(problem, sense, options):
        solution = REAL_SOLVE(problem, sense, options)
        statuses.append((solution.status, solution.x is not None))
        return solution

    monkeypatch.setattr(fabric_module, "portfolio_solve", solve)
    starved = SolverOptions(node_limit=0, backend="bb", seed_incumbent=False)
    bounds = minmax_bounds(relation, "V", agg, options=starved)
    monkeypatch.undo()
    assert ("limit", False) in statuses
    assert bounds.exact is False
    low, high = enumerated(model, relation, agg)
    assert bounds.lower <= low <= high <= bounds.upper


def test_a_prepared_problem_is_probed_without_the_model():
    """The scheduler's split: prepare inside a lineage scope, probe after
    the scope rolled the lineage back."""
    model, relation = build(3, [(1, 0), (5, 1), (3, 2)], [({0, 1, 2}, "==", 1)])
    base = [row.ext for row in relation.rows]
    session = SolveSession(model)
    with model.scoped():
        # tuple i exists iff b_i or b_(i+1): the worlds hold {1, 3}, {1, 5}, {3, 5}
        derived = model.derived(["V"])
        for i, row in enumerate(relation.rows):
            derived.insert(row.values, or_ext(model, [base[i], base[(i + 1) % 3]]))
        prepared = prepare_minmax(session, derived, "V", "max")
    assert len(model.pool) == 3  # the lineage is gone
    bounds = minmax_bounds(prepared, "V", "max", session=session)
    assert (bounds.lower, bounds.upper, bounds.exact) == (3, 5, True)


# -- probe counts on the benchmark database ----------------------------------
@pytest.fixture(scope="module")
def benchmark_context():
    """The service benchmark's database (600 transactions, 128 items)."""
    ctx = ExperimentContext(ExperimentConfig(num_transactions=600, num_items=128, seed=3))
    yield ctx
    ctx.close()


def _probes(context, scheme, agg, monkeypatch):
    encoded = context.encoding(scheme, 2).encoded
    plan = _adhoc_plan(encoded, agg)
    calls = []
    monkeypatch.setattr(fabric_module, "portfolio_solve", counted_solve(calls))
    with encoded.model.scoped():
        relation = evaluate_licm(plan.child, encoded.relations)
        bounds = minmax_bounds(relation, plan.attribute, agg, session=context.session(scheme, 2))
    monkeypatch.undo()
    assert bounds.exact and len(calls) == bounds.stats["probes"]
    return (bounds.lower, bounds.upper), len(calls), probe_budget(relation, plan.attribute)


def test_dashboard_minmax_keys_need_at_most_one_probe(benchmark_context, monkeypatch):
    """The dashboard's two MIN/MAX keys: the linear scan needed one probe
    each; the certain tuples settle both bounds."""
    sys.path.insert(0, str(SUITE))
    try:
        import workloads
    finally:
        sys.path.remove(str(SUITE))
    keys = [key for key in workloads.HOT_KEYS if "aggregate" in key]
    assert [(k["aggregate"], k["scheme"]) for k in keys] == [
        ("max", "k-anonymity"), ("min", "bipartite"),
    ]
    for key in keys:
        _, probes, _ = _probes(benchmark_context, key["scheme"], key["aggregate"], monkeypatch)
        assert probes <= 1


@pytest.mark.parametrize("agg, exact", [("max", (22, 39)), ("min", (0, 19))])
def test_km_adhoc_minmax_stays_within_the_bisection_budget(
    benchmark_context, agg, exact, monkeypatch
):
    """The linear scan needed 23 (max) and 22 (min) probes here."""
    bounds, probes, budget = _probes(benchmark_context, "km", agg, monkeypatch)
    assert bounds == exact
    assert 0 < probes <= budget == 12  # 40 distinct prices
