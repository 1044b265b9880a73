"""Cross-process telemetry repatriation: delta snapshots and span records.

The contract under test: a forked solve worker's observability output —
histogram observations (exemplars included) and solver-internal spans —
lands in the *parent's* global registry and request trace, bit-for-bit
additive, never double-counted.  Covers the pure registry delta algebra
(:meth:`MetricsRegistry.snapshot_delta` / :meth:`merge_delta`), the
bounded :class:`RecordingTracer`, and the end-to-end process-fabric path
the acceptance criterion names.
"""

from __future__ import annotations

import pickle

import pytest

from helpers import fig2c_model
from repro.core.aggregates import count_objective
from repro.core.operators import licm_select
from repro.engine import SolveSession
from repro.engine.fabric import InlineFabric, ProcessFabric
from repro.obs.export import MetricsRegistry, global_registry
from repro.obs.tracer import RecordingTracer, Tracer, activate
from repro.relational.predicates import Compare
from repro.solver.result import SolverOptions


def _objective():
    model, trans, _ = fig2c_model()
    relation = licm_select(trans, Compare("ItemName", "!=", "Shampoo"))
    return model, count_objective(relation)


KEY = (("kind", "solve"),)


# -- counter / gauge deltas ---------------------------------------------------
def test_counter_delta_ships_only_new_increments_and_merges_additively():
    src, dst = MetricsRegistry(), MetricsRegistry()
    src.counter("units_total", "units").inc(3, labels={"kind": "solve"})
    src.snapshot_delta()  # baseline: pre-existing totals must not travel
    src.counter("units_total", "units").inc(2, labels={"kind": "solve"})

    delta = pickle.loads(pickle.dumps(src.snapshot_delta()))  # picklable
    assert delta["counters"]["repro_units_total"]["series"][KEY] == 2

    dst.counter("units_total", "units").inc(10, labels={"kind": "solve"})
    dst.merge_delta(delta)
    assert dst._instruments["repro_units_total"].series[KEY] == 12

    # quiescent source ⇒ empty delta (monotonic: nothing re-ships)
    assert src.snapshot_delta() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_gauge_delta_carries_last_value_not_a_sum():
    src, dst = MetricsRegistry(), MetricsRegistry()
    src.gauge("depth", "queue depth").set(5)
    delta = src.snapshot_delta()
    assert delta["gauges"]["repro_depth"]["series"][()] == 5.0
    dst.gauge("depth", "queue depth").set(2)
    dst.merge_delta(delta)
    assert dst._instruments["repro_depth"].series[()] == 5.0  # set, not 7
    # unchanged gauge does not re-ship
    assert src.snapshot_delta()["gauges"] == {}


# -- histogram deltas ---------------------------------------------------------
def test_histogram_delta_round_trip_keeps_bucket_alignment_and_exemplars():
    src, dst = MetricsRegistry(), MetricsRegistry()
    buckets = (1.0, 5.0, 10.0)
    dst.histogram("nodes", "h", buckets=buckets).observe(
        0.5, exemplar={"trace_id": "local"}
    )
    src.histogram("nodes", "h", buckets=buckets).observe(
        3.0, exemplar={"trace_id": "worker"}
    )

    delta = pickle.loads(pickle.dumps(src.snapshot_delta()))
    family = delta["histograms"]["repro_nodes"]
    assert tuple(family["buckets"]) == buckets
    assert family["series"][()]["counts"] == [0, 1, 1]  # cumulative layout

    dst.merge_delta(delta)
    data = dst._instruments["repro_nodes"]._data[()]
    assert data["counts"] == [1, 2, 2]
    assert data["count"] == 2
    assert data["sum"] == pytest.approx(3.5)
    # both exemplars survive in their own buckets
    assert data["exemplars"][0].labels == {"trace_id": "local"}
    assert data["exemplars"][1].labels == {"trace_id": "worker"}

    # second delta after one more observation ships only the increment
    src.histogram("nodes", "h", buckets=buckets).observe(7.0)
    second = src.snapshot_delta()["histograms"]["repro_nodes"]["series"][()]
    assert second["counts"] == [0, 0, 1] and second["count"] == 1
    assert second["exemplars"] == {}  # the old exemplar is not re-shipped


def test_histogram_merge_keeps_the_newest_exemplar_per_bucket():
    src, dst = MetricsRegistry(), MetricsRegistry()
    src.histogram("nodes", "h", buckets=(1.0,)).observe(
        0.5, exemplar={"trace_id": "older"}
    )
    delta = src.snapshot_delta()
    # the local observation happens *after* the worker's: it must win
    dst.histogram("nodes", "h", buckets=(1.0,)).observe(
        0.5, exemplar={"trace_id": "newer"}
    )
    dst.merge_delta(delta)
    assert dst._instruments["repro_nodes"]._data[()]["exemplars"][0].labels == {
        "trace_id": "newer"
    }


def test_histogram_bucket_mismatch_raises():
    src, dst = MetricsRegistry(), MetricsRegistry()
    src.histogram("nodes", "h", buckets=(1.0, 2.0)).observe(1.0)
    dst.histogram("nodes", "h", buckets=(1.0, 2.0, 3.0)).observe(1.0)
    with pytest.raises(ValueError, match="bucket mismatch"):
        dst.merge_delta(src.snapshot_delta())


def test_merge_survives_worker_restart():
    """Two successive 'worker lifetimes' (fresh registries, as after a pool
    restart) merge into one additive parent view."""
    parent = MetricsRegistry()
    for lifetime in range(2):
        worker = MetricsRegistry()
        worker.counter("solves_total", "solves").inc(4)  # inherited noise
        worker.snapshot_delta()  # _worker_init discards it
        worker.counter("solves_total", "solves").inc(1 + lifetime)
        parent.merge_delta(worker.snapshot_delta())
    assert parent._instruments["repro_solves_total"].series[()] == 3  # 1 + 2


# -- the recording tracer -----------------------------------------------------
def test_recording_tracer_orders_parents_first_and_bounds_memory():
    rec = RecordingTracer(trace_id="feedfacecafebeef", max_spans=2)
    assert rec.trace_id == "feedfacecafebeef"
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    with rec.span("overflow"):
        pass
    records, dropped = rec.drain()
    # 'inner' finishes before 'outer' but drain() restores creation order,
    # so ingest resolves parent_key before any child references it
    assert [r["name"] for r in records] == ["outer", "inner"]
    assert records[1]["parent_key"] == records[0]["key"]
    assert dropped == 1
    assert rec.drain() == ([], 0)  # drained means drained


# -- end to end through the process fabric ------------------------------------
def _bb_nodes_count() -> int:
    hist = global_registry().histogram("bb_nodes_per_solve")
    with hist._lock:
        return sum(data["count"] for data in hist._data.values())


def test_process_fabric_repatriates_spans_and_metrics():
    """The acceptance criterion: with ``--fabric process`` the parent's
    registry gains ``repro_bb_nodes_per_solve`` observations and the trace
    contains worker ``solver.solve`` spans under ``engine.solve.*``, each
    under the request span the units were dispatched from."""
    model, objective = _objective()
    before = _bb_nodes_count()
    tracer = Tracer(sample_every=4)
    # Seeding off: the root pass would otherwise close this small problem
    # in the parent, and no unit would reach a worker.
    options = SolverOptions(backend="bb", seed_incumbent=False)
    with ProcessFabric(workers=2) as fabric:
        with activate(tracer), tracer.span("service.request") as request:
            with SolveSession(model, options=options, fabric=fabric) as session:
                bounds = session.bounds(objective)
    assert (bounds.lower, bounds.upper) == (1, 3) and bounds.exact

    # worker histogram observations landed in the PARENT registry
    assert _bb_nodes_count() >= before + 2  # one per sense at least

    by_id = {span.span_id: span for span in tracer.spans}
    solver_spans = [span for span in tracer.spans if span.name == "solver.solve"]
    assert solver_spans, [span.name for span in tracer.spans]
    for span in solver_spans:
        assert span.trace_id == tracer.trace_id  # re-parented, not foreign
        unit_span = by_id[span.parent_id]
        assert unit_span.name.startswith("engine.solve.")
        assert unit_span.parent_id == request.span_id


def test_fabric_ping():
    inline = InlineFabric()
    assert inline.ping()
    inline.close()
    assert not inline.ping()
    with ProcessFabric(workers=1) as fabric:
        assert fabric.ping(timeout=30.0)
    assert not fabric.ping(timeout=5.0)  # closed pools are not healthy
