"""The executor fabric: process-boundary correctness and fabric parity.

The guarantee of the fabric abstraction: ``inline`` and ``process`` are
*configurations* of one solve-unit path, so every test here runs on both
where the behavior must be identical — no fabric-specific forks.  The
process-only physics (pickling, cross-fork cancellation, the shared
SQLite L2) get targeted coverage.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import time

import pytest

from helpers import fig2c_model
from repro.core.aggregates import count_objective
from repro.core.database import LICMModel
from repro.core.linexpr import linear_sum
from repro.core.operators import licm_select
from repro.engine import L2SolveCache, SolveSession
from repro.engine.cache import CachedSolve
from repro.engine.fabric import (
    InlineFabric,
    ProcessFabric,
    SolveUnit,
    make_fabric,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.relational.predicates import Compare
from repro.service.api import STATUS_OK, QueryRequest
from repro.service.scheduler import QueryScheduler
from repro.solver.cancel import CancelToken
from repro.solver.result import SolverOptions

FABRICS = [("inline", 1), ("process", 2)]


def _objective():
    model, trans, _ = fig2c_model()
    relation = licm_select(trans, Compare("ItemName", "!=", "Shampoo"))
    return model, count_objective(relation)


# -- fabric parity: one code path, two schedulings ---------------------------
@pytest.mark.parametrize("kind,workers", FABRICS)
def test_every_fabric_agrees_with_serial(kind, workers, tmp_path):
    model, objective = _objective()
    serial = SolveSession(model)
    expected = serial.bounds(objective)
    fabric = make_fabric(kind, workers)
    with SolveSession(
        model, fabric=fabric, l2_path=str(tmp_path / "l2.sqlite")
    ) as session:
        cold = session.bounds(objective)
        warm = session.bounds(objective)
    fabric.close()
    assert (cold.lower, cold.upper) == (expected.lower, expected.upper) == (1, 3)
    assert (warm.lower, warm.upper) == (cold.lower, cold.upper)
    assert warm.stats["cache_hits"] == 2  # L1 serves the repeat on every fabric
    assert cold.exact and warm.exact


@pytest.mark.parametrize("kind,workers", FABRICS)
def test_scheduler_serves_on_every_fabric(kind, workers):
    config = ExperimentConfig(
        num_transactions=40,
        num_items=16,
        k_values=(2,),
        mc_samples=2,
        seed=7,
        solve_workers=workers,
        solve_fabric=kind,
    )
    context = ExperimentContext(config)
    try:
        with QueryScheduler(context, workers=2, max_queue=8) as scheduler:
            scheduler.warm([("km", 2)])
            response = scheduler.execute(QueryRequest(query="Q1"))
            assert response.status == STATUS_OK, response.error
            assert response.exact
            assert response.lower <= response.upper
    finally:
        context.close()


def _identical_blocks():
    """Three structurally identical cardinality blocks: one fingerprint."""
    model = LICMModel()
    variables = []
    for _ in range(3):
        block = model.new_vars(4)
        model.add(linear_sum(block) <= 2)
        variables.extend(block)
    return model, linear_sum(variables)


@pytest.mark.parametrize("backend", ["auto", "scipy"])
def test_duplicate_keys_solve_once_on_every_fabric(backend, process_fabric):
    """Identical ``(fingerprint, sense)`` misses in one request cost one
    solve per sense and count as L1 hits, on every fabric — the serial
    path's accounting.  ``backend='scipy'`` keeps every block out of the
    root pass, so the process fabric's in-flight dedup is what runs."""
    observed = {}
    for fabric in (InlineFabric(), process_fabric):
        model, objective = _identical_blocks()
        with SolveSession(
            model, options=SolverOptions(backend=backend), fabric=fabric
        ) as session:
            bounds = session.bounds(objective)
            observed[fabric.kind] = (
                bounds.lower,
                bounds.upper,
                bounds.stats["component_cache_hits"],
                session.cache.stats,
            )
    assert observed["inline"][:3] == (0, 6, 4)
    assert observed["inline"][3]["misses"] == 2  # one solve per sense
    assert observed["process"] == observed["inline"]


def test_make_fabric_builds_inline_or_process():
    assert make_fabric("inline", 4).kind == "inline"
    fabric = make_fabric("process", 3)
    assert isinstance(fabric, ProcessFabric) and fabric.workers == 3
    fabric.close()
    for kind in ("thread", "rocket"):
        with pytest.raises(ValueError, match="unknown fabric"):
            make_fabric(kind)


def test_process_fabric_forks_every_worker_in_its_constructor():
    """A child forked while other threads hold locks can inherit one held
    forever, so every worker exists before the first unit is submitted."""
    with ProcessFabric(workers=2) as fabric:
        pids = list(fabric._pool._processes)
        assert len(pids) == 2
        for pid in pids:
            os.kill(pid, 0)  # raises ProcessLookupError if it does not exist


def test_query_service_builds_its_fabric_before_the_scheduler(monkeypatch):
    from repro.service import server as server_module

    built = []
    real = server_module.QueryScheduler

    def scheduler(context, **kwargs):
        built.append(context.fabric_stats()["started"])
        return real(context, **kwargs)

    monkeypatch.setattr(server_module, "QueryScheduler", scheduler)
    config = ExperimentConfig(
        num_transactions=40, num_items=16, solve_fabric="process", solve_workers=1
    )
    service = server_module.QueryService(config, workers=1)
    try:
        assert built == [True]
    finally:
        service.close()


@pytest.mark.parametrize("kind", ["inline", "process"])
def test_fabric_stats_report_the_workers_that_run(kind):
    """``--solve-workers 4`` is reported as 4 only where a process pool
    runs them; the inline fabric runs one unit at a time."""
    config = ExperimentConfig(
        num_transactions=40, num_items=16, solve_fabric=kind, solve_workers=4
    )
    context = ExperimentContext(config)
    expected = 4 if kind == "process" else 1
    try:
        assert context.fabric_stats()["workers"] == expected  # before it is built
        assert context.fabric.workers == expected
        assert context.fabric_stats()["workers"] == expected
    finally:
        context.close()


# -- the process boundary ----------------------------------------------------
def test_prepared_problem_and_options_pickle_round_trip():
    model, objective = _objective()
    session = SolveSession(model)
    prepared = session.prepare(objective)
    (part,) = prepared.components
    thawed = pickle.loads(pickle.dumps(prepared))
    assert thawed.fingerprint == prepared.fingerprint
    assert len(thawed.components) == len(prepared.components)
    for original, copy in zip(prepared.components, thawed.components):
        assert copy.fingerprint == original.fingerprint
        assert copy.dense == original.dense

    options = SolverOptions(
        backend="bb",
        time_limit=1.5,
        deadline_at=time.monotonic() + 1.5,
        cancel=CancelToken("some-scope", 3),
    )
    thawed_options = pickle.loads(pickle.dumps(options))
    assert thawed_options.deadline_at == options.deadline_at
    assert thawed_options.cancel == options.cancel
    assert thawed_options.backend == "bb"

    unit = SolveUnit(
        problem=part.problem,
        sense="max",
        fingerprint=part.fingerprint,
        options=dataclasses.replace(options, cancel=None),
    )
    thawed_unit = pickle.loads(pickle.dumps(unit))
    assert thawed_unit.fingerprint == unit.fingerprint
    assert thawed_unit.sense == "max"


def test_stop_check_closure_is_stripped_at_the_process_boundary():
    model, objective = _objective()
    session = SolveSession(model)
    prepared = session.prepare(objective)
    (part,) = prepared.components
    options = SolverOptions(backend="bb", stop_check=lambda: False)
    unit = SolveUnit(
        problem=part.problem,
        sense="min",
        fingerprint=part.fingerprint,
        options=options,
    )
    with pytest.raises(Exception):  # closures cannot cross the boundary …
        pickle.dumps(unit)
    inline = InlineFabric().submit_unit(unit).result()
    assert inline.status == "optimal"
    assert inline.spans == []  # in process under the null tracer: no span record
    with ProcessFabric(workers=1) as fabric:
        result = fabric.submit_unit(unit).result(timeout=60.0)
    # … so ProcessFabric strips them, and the solve still completes.
    assert result.status == "optimal"
    assert result.worker_pid != os.getpid()


def test_cancellation_reaches_a_forked_worker_mid_search():
    """A cancel token set in the parent stops B&B inside the worker."""
    model, objective = _objective()
    session = SolveSession(model)
    prepared = session.prepare(objective)
    (part,) = prepared.components
    with ProcessFabric(workers=1) as fabric:
        token = fabric.new_token()
        token.set()  # the first should_stop() poll inside B&B sees this
        unit = SolveUnit(
            problem=part.problem,
            sense="max",
            fingerprint=part.fingerprint,
            options=SolverOptions(backend="bb", cancel=token),
        )
        result = fabric.submit_unit(unit).result(timeout=60.0)
    assert result.status != "optimal"  # truncated, not solved to proof
    assert result.worker_pid != os.getpid()


def test_expired_deadline_truncates_inside_a_forked_worker():
    model, objective = _objective()
    session = SolveSession(model)
    prepared = session.prepare(objective)
    (part,) = prepared.components
    with ProcessFabric(workers=1) as fabric:
        unit = SolveUnit(
            problem=part.problem,
            sense="max",
            fingerprint=part.fingerprint,
            options=SolverOptions(
                backend="bb", deadline_at=time.monotonic() - 1.0
            ),
        )
        start = time.monotonic()
        result = fabric.submit_unit(unit).result(timeout=60.0)
    assert result.status != "optimal"
    assert time.monotonic() - start < 30.0


# -- the shared L2 cache -----------------------------------------------------
def _entry(objective: int) -> CachedSolve:
    return CachedSolve(
        status="optimal",
        objective=objective,
        x_canonical=(1, 0),
        bound=float(objective),
        nodes=3,
        backend="bb",
    )


def _l2_hammer(path: str, fingerprint: str, rounds: int) -> None:
    cache = L2SolveCache(path)
    for i in range(rounds):
        cache.put(fingerprint, "max", _entry(7))
        cache.get(fingerprint, "max")
    cache.close()


def test_l2_concurrent_writers_race_same_fingerprint(tmp_path):
    """Two processes hammering one fingerprint: last write wins, no errors,
    the entry stays readable and well-formed throughout."""
    path = str(tmp_path / "l2.sqlite")
    ctx = multiprocessing.get_context("fork")
    writers = [
        ctx.Process(target=_l2_hammer, args=(path, "deadbeef", 50))
        for _ in range(2)
    ]
    for proc in writers:
        proc.start()
    for proc in writers:
        proc.join(timeout=60.0)
    assert all(proc.exitcode == 0 for proc in writers)
    cache = L2SolveCache(path)
    entry = cache.get("deadbeef", "max")
    assert entry is not None
    assert entry.objective == 7 and entry.status == "optimal"
    cache.close()


def test_l2_survives_scheduler_restart(tmp_path, monkeypatch):
    """A fresh session (fresh L1) answers from L2 even when the backend
    solver is gone — the restart-survival guarantee."""
    import repro.engine.fabric as fabric_module

    path = str(tmp_path / "l2.sqlite")
    model, objective = _objective()
    with SolveSession(model, fabric=InlineFabric(), l2_path=path) as first:
        before = first.bounds(objective)

    def no_solver(problem, sense, options):
        raise AssertionError("restart should answer from L2, not re-solve")

    monkeypatch.setattr(fabric_module, "portfolio_solve", no_solver)
    # drop the memoized handle so the "restarted" session reopens the file
    fabric_module._L2_HANDLES.clear()
    model2, objective2 = _objective()  # same model rebuilt from scratch
    with SolveSession(model2, fabric=InlineFabric(), l2_path=path) as second:
        after = second.bounds(objective2)
    assert (after.lower, after.upper) == (before.lower, before.upper)
    assert after.exact


def test_l2_poisoning_guard(tmp_path):
    cache = L2SolveCache(str(tmp_path / "l2.sqlite"))
    truncated = CachedSolve(
        status="limit", objective=5, x_canonical=None, bound=9.0, nodes=1, backend="bb"
    )
    assert not cache.put("feedface", "min", truncated)  # "limit" never stores
    infeasible = CachedSolve(
        status="infeasible",
        objective=None,
        x_canonical=None,
        bound=None,
        nodes=0,
        backend="bb",
    )
    # an infeasibility "proof" under a truncated budget is not one
    assert not cache.put("feedface", "min", infeasible, authoritative=False)
    assert cache.get("feedface", "min") is None
    # an optimal outcome is exact regardless of budget: storable
    assert cache.put("feedface", "min", _entry(4), authoritative=False)
    entry = cache.get("feedface", "min")
    assert entry is not None and entry.objective == 4
    assert cache.rejects == 2 and cache.writes == 1
    cache.close()
