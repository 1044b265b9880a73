"""The engine's batched root pass, end to end.

``SolveSession._solve_tasks`` closes every root-closable component of a
request in one kernel pass before any unit reaches the fabric.  These
tests check what that pass must not change: exact bounds through the
scheduler (blocks settled by enumeration included), the L1/L2
bookkeeping a unit would have done (including an L2 file outliving its
session), and a deadline that has already passed.  They also check that
an L2 row is an answer only when its vector attains its objective on its
block, on the root pass's read and on a unit's.
"""

from __future__ import annotations

import dataclasses
import sqlite3
import time

import pytest

import repro.engine.fabric as fabric_module
from repro.core.database import LICMModel
from repro.core.linexpr import LinearExpr, linear_sum
from repro.engine import SolveSession
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.obs.export import global_registry
from repro.queries import QUERY_BUILDERS, answer_licm
from repro.service.api import STATUS_OK, QueryRequest
from repro.service.scheduler import QueryScheduler
from repro.solver import kernels
from repro.solver.result import SolverOptions

#: parameterisations the fixture never answers anywhere else
FRESH = (
    ("Q1", {"pa_selectivity": 0.137, "pb_selectivity": 0.325}),
    ("Q2", {"pa_selectivity": 0.211, "pb_selectivity": 0.175}),
)


@pytest.fixture(scope="module")
def context():
    config = ExperimentConfig(
        num_transactions=60, num_items=24, k_values=(2,), mc_samples=4, seed=7
    )
    ctx = ExperimentContext(config)
    yield ctx
    ctx.close()


def _closed_counter(monkeypatch) -> list:
    """Record how many blocks each root pass closed."""
    closed = []
    real = kernels.close_roots

    def counting(blocks, *args):
        verdicts = real(blocks, *args)
        closed.append(sum(verdict.closed for verdict in verdicts))
        return verdicts

    monkeypatch.setattr(kernels, "close_roots", counting)
    return closed


@pytest.mark.parametrize("scheme", ["km", "k-anonymity", "bipartite"])
def test_tight_answers_match_the_scalar_solver(context, scheme, monkeypatch):
    """The reference answers come from SciPy's HiGHS MILP: the root pass
    claims only blocks routed to the branch-and-bound, so it stays out."""
    closed = _closed_counter(monkeypatch)
    encoded = context.encoding(scheme, 2).encoded
    with QueryScheduler(context, workers=2, max_queue=8) as scheduler:
        scheduler.warm([(scheme, 2)])
        for query, params in FRESH:
            response = scheduler.execute(
                QueryRequest(query=query, scheme=scheme, params=params, precision="tight")
            )
            assert response.status == STATUS_OK, response.error
            assert response.exact
            plan = QUERY_BUILDERS[query](
                encoded, dataclasses.replace(context.config.params, **params)
            )
            with SolveSession(
                encoded.model, cache_size=0, options=SolverOptions(backend="scipy")
            ) as oracle:
                reference = answer_licm(encoded, plan, session=oracle)
            assert (response.lower, response.upper) == (reference.lower, reference.upper)
    assert sum(closed) > 0  # the pass really answered blocks here


def _blocks_model():
    """Six cardinality-limited blocks of different shapes (weights make
    each block's fingerprint distinct) — all closable at the root."""
    model = LICMModel()
    coeffs = {}
    for size in range(2, 8):
        block = model.new_vars(size)
        model.add(linear_sum(block) <= size // 2)
        for position, var in enumerate(block):
            coeffs[var.index] = position + size
    return model, LinearExpr(coeffs, 0)


def _no_unit_solve(problem, sense, options):
    raise AssertionError("every block here closes in the root pass")


def test_claimed_blocks_carry_what_their_unit_returns(monkeypatch):
    """Status, objective, nodes and backend of every claimed block equal a
    unit solve of the same component — including the block presolve
    would settle with zero nodes and the closed-form free variables."""
    model, objective = _blocks_model()
    forced = model.new_vars(2)
    model.add(linear_sum(forced) >= 2)  # propagation fixes both
    free = model.new_vars(2)  # objective-only: closed form
    coeffs = dict(objective.coeffs)
    coeffs.update({forced[0].index: 3, forced[1].index: -1, free[0].index: 2, free[1].index: -4})
    objective = LinearExpr(coeffs, 0)
    with SolveSession(model) as session:
        prepared = session.prepare(objective)
        with monkeypatch.context() as patch:
            patch.setattr(fabric_module, "portfolio_solve", _no_unit_solve)
            session.solve_prepared(prepared)
        assert prepared.components[-1].problem.constraints == []  # the free block
        for component in prepared.components:
            for sense in ("min", "max"):
                claimed = session.cache.get((component.fingerprint, sense))
                unit = fabric_module.run_unit(session._unit(component, sense, 0, None))
                assert (claimed.status, claimed.objective, claimed.nodes, claimed.backend) == (
                    unit.status,
                    unit.objective,
                    unit.nodes,
                    unit.backend,
                )
    assert {e.nodes for e in session.cache._data.values()} == {0, 1}


def test_closed_blocks_reach_l1_and_l2_and_outlive_the_session(tmp_path, monkeypatch):
    monkeypatch.setattr(fabric_module, "portfolio_solve", _no_unit_solve)
    path = str(tmp_path / "l2.sqlite")
    model, objective = _blocks_model()
    with SolveSession(model, l2_path=path) as first:
        prepared = first.prepare(objective)
        cold = first.solve_prepared(prepared)
        assert cold.exact and cold.stats["components"] == 6
        for bound, witness in ((cold.lower, cold.lower_witness), (cold.upper, cold.upper_witness)):
            assert objective.value(witness) == bound
            assert all(constraint.satisfied_by(witness) for constraint in model.constraints)
        for component in prepared.components:
            for sense in ("min", "max"):
                key = (component.fingerprint, sense)
                assert key in first.cache
                assert fabric_module.l2_handle(path).get(*key) is not None
        warm = first.solve_prepared(prepared)
        assert warm.stats["component_cache_hits"] == 12

    fabric_module._L2_HANDLES.clear()  # the restarted process reopens the file
    model, objective = _blocks_model()
    with SolveSession(model, l2_path=path) as second:
        restarted = second.bounds(objective)
    assert restarted.stats["l2_hits"] > 0
    assert (restarted.lower, restarted.upper) == (cold.lower, cold.upper)
    assert restarted.exact


def test_expired_deadline_claims_nothing():
    model, objective = _blocks_model()
    expired = SolverOptions(deadline_at=time.monotonic() - 1.0)
    with SolveSession(model) as session:
        bounds = session.bounds(objective, options=expired)
        # Every unit stopped before root work, and a truncated solve
        # under per-call options is never cached.
        assert not bounds.exact
        assert bounds.stats["nodes"] == 0
        assert len(session.cache) == 0


def _total(name: str) -> float:
    """A process-wide counter family's total over all its label sets."""
    counter = global_registry().counter(name)
    with counter._lock:
        return sum(counter.series.values())


@pytest.mark.parametrize("scheme", ["km", "k-anonymity", "bipartite"])
def test_served_answers_equal_unit_solves(context, scheme):
    """Q1-Q3 served tight through the scheduler, whose root pass settles
    small blocks by enumeration, equal a session with
    ``seed_incumbent=False``, which skips the root pass and sends every
    block through a unit."""
    encoded = context.encoding(scheme, 2).encoded
    enumerated = _total("engine_root_enumerated_total")
    with QueryScheduler(context, workers=2, max_queue=8) as scheduler:
        scheduler.warm([(scheme, 2)])
        for query in ("Q1", "Q2", "Q3"):
            response = scheduler.execute(
                QueryRequest(query=query, scheme=scheme, precision="tight")
            )
            assert response.status == STATUS_OK, response.error
            assert response.exact
            plan = QUERY_BUILDERS[query](encoded, context.config.params)
            with SolveSession(
                encoded.model, cache_size=0, options=SolverOptions(seed_incumbent=False)
            ) as units:
                reference = answer_licm(encoded, plan, session=units)
            assert reference.bounds.exact
            assert (response.lower, response.upper) == (reference.lower, reference.upper)
    if scheme == "bipartite":
        assert _total("engine_root_enumerated_total") > enumerated


def _tamper(path: str, statement: str) -> int:
    """Run one UPDATE on the L2 file; the number of rows it changed."""
    with sqlite3.connect(path) as conn:
        changed = conn.execute(statement).rowcount
    conn.close()
    return changed


def _l2_interval(encoded, plan, path: str, options: SolverOptions):
    """A fresh process's answer over the L2 file at ``path``."""
    fabric_module._L2_HANDLES.clear()
    with SolveSession(encoded.model, cache_size=0, l2_path=path, options=options) as session:
        answer = answer_licm(encoded, plan, session=session)
    return answer.lower, answer.upper, answer.bounds.exact


@pytest.mark.parametrize(
    "options", [SolverOptions(), SolverOptions(seed_incumbent=False)], ids=["root", "units"]
)
@pytest.mark.parametrize(
    "statement",
    [
        "UPDATE solves SET objective = objective + 1 WHERE sense = 'max'",
        # Flip the first bit of every stored vector.
        "UPDATE solves SET x_canonical = '[' || (1 - CAST(substr(x_canonical, 2, 1) AS INT))"
        " || substr(x_canonical, 3) WHERE status = 'optimal' AND x_canonical != '[]'",
    ],
    ids=["objective", "vector"],
)
def test_a_wrong_l2_row_is_rejected_and_overwritten(context, tmp_path, options, statement):
    """A well-formed L2 row whose vector does not attain its objective is
    a miss: the fresh session re-solves, answers the true interval,
    counts the rejection and overwrites the row.  ``root`` reads L2 in
    the root pass, ``units`` (no root pass) in the fabric's units."""
    encoded = context.encoding("k-anonymity", 2).encoded
    plan = QUERY_BUILDERS["Q1"](encoded, context.config.params)
    path = str(tmp_path / "l2.sqlite")
    truth = _l2_interval(encoded, plan, path, options)
    assert truth[2]
    changed = _tamper(path, statement)
    assert changed > 0
    rejected = _total("cache_rejected_total")
    assert _l2_interval(encoded, plan, path, options) == truth
    assert _total("cache_rejected_total") - rejected == changed
    # The re-solves overwrote every tampered row: a third read rejects none.
    rejected = _total("cache_rejected_total")
    assert _l2_interval(encoded, plan, path, options) == truth
    assert _total("cache_rejected_total") == rejected
