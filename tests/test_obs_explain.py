"""EXPLAIN: span mining, convergence-timeline reconstruction, and the
end-to-end explanation payload through the scheduler.

The contracts under test:

* prune-reason breakdowns mined from ``bb.search`` spans sum to the same
  totals the ``repro_bb_prunes_total{reason=...}`` counter accumulated
  during the same solves — one source of truth, two views;
* the convergence timeline is monotone in absolute time, and incumbent
  values are monotone in the solve sense (non-decreasing for max,
  non-increasing for min — min events are negated out of the solver's
  internal negated-max space);
* events repatriated from process-fabric workers land in the *same*
  timeline as inline ones (ingest preserves ``start_unix``);
* ``explain=true`` on a request attaches the structured payload without
  perturbing bounds or cache state, and an infeasible database yields a
  named-constraint IIS in the response.
"""

from __future__ import annotations

import pytest

from repro.core.aggregates import count_objective
from repro.core.database import LICMModel
from repro.core.linexpr import linear_sum
from repro.engine import SolveSession
from repro.engine.fabric import ProcessFabric
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.obs.explain import (
    PRUNE_REASONS,
    build_explanation,
    mine_components,
    mine_timeline,
)
from repro.obs.export import global_registry
from repro.obs.slowlog import SpanBuffer
from repro.obs.tracer import Tracer, activate
from repro.service.api import STATUS_ERROR, STATUS_OK, QueryRequest
from repro.service.scheduler import QueryScheduler
from repro.solver.result import SolverOptions


def _conflict_model(n: int = 13):
    """An odd-cycle independent-set count problem: n maybe-tuples whose
    cycle neighbours exclude each other.  For odd n the LP relaxation
    sits at n/2 while the integer optimum is (n-1)/2, so the max-count
    search must branch and prune — the tests need real prune counts."""
    assert n % 2 == 1
    model = LICMModel()
    relation = model.relation("T", ["A"])
    rows = [relation.insert_maybe((i,)) for i in range(n)]
    variables = [row.ext for row in rows]
    for i in range(n):
        model.add((variables[i] + variables[(i + 1) % n]) <= 1)
    return model, count_objective(relation), variables


def _prune_counter_totals() -> dict:
    counter = global_registry().counter(
        "bb_prunes_total", "Branch-and-bound prunes by reason"
    )
    totals = {reason: 0 for reason in PRUNE_REASONS}
    with counter._lock:
        for labels, value in counter.series.items():
            reason = dict(labels).get("reason")
            if reason in totals:
                totals[reason] += int(value)
    return totals


def _solve_with_trace(model, objective, fabric=None, tracer=None):
    if tracer is None:  # NB: an empty Tracer is falsy — no `or` here
        tracer = Tracer(sample_every=4)
    with activate(tracer):
        with SolveSession(
            model,
            options=SolverOptions(backend="bb"),
            cache_size=0,
            fabric=fabric,
        ) as session:
            bounds = session.bounds(objective)
    return tracer, bounds


# -- prune accounting ---------------------------------------------------------
def test_span_prune_sums_match_the_prunes_total_counter():
    model, objective, _ = _conflict_model(13)
    before = _prune_counter_totals()
    tracer, bounds = _solve_with_trace(model, objective)
    after = _prune_counter_totals()
    assert bounds.exact and (bounds.lower, bounds.upper) == (0, 6)

    spans = [span.to_dict() for span in tracer.spans]
    explanation = build_explanation(request={}, status="ok", spans=spans)
    mined = explanation.totals["prunes"]
    counted = {r: after[r] - before[r] for r in PRUNE_REASONS}
    assert mined == counted
    # The path constraints force real pruning — the test is vacuous if
    # every search solves at the root.
    assert sum(mined.values()) > 0


def test_bb_prunes_total_renders_with_reason_labels():
    model, objective, _ = _conflict_model(11)
    _solve_with_trace(model, objective)
    text = global_registry().render()
    lines = [
        line
        for line in text.splitlines()
        if line.startswith("repro_bb_prunes_total{")
    ]
    assert lines, "repro_bb_prunes_total has no labelled samples"
    for line in lines:
        assert 'reason="' in line
        reason = line.split('reason="', 1)[1].split('"', 1)[0]
        assert reason in PRUNE_REASONS


# -- timeline reconstruction --------------------------------------------------
def test_timeline_is_time_sorted_and_incumbents_monotone_per_sense():
    model, objective, _ = _conflict_model(15)
    tracer, _bounds = _solve_with_trace(model, objective)
    spans = [span.to_dict() for span in tracer.spans]
    timeline = mine_timeline(spans)
    assert timeline, "no convergence events mined"

    times = [event["t_unix"] for event in timeline]
    assert times == sorted(times)

    for sense, direction in (("max", 1), ("min", -1)):
        incumbents = [
            event["value"]
            for event in timeline
            if event["sense"] == sense and event["kind"] == "incumbent"
        ]
        for earlier, later in zip(incumbents, incumbents[1:]):
            assert direction * (later - earlier) >= 0, (sense, incumbents)
    # The max search must have found at least one incumbent.
    assert any(
        event["sense"] == "max" and event["kind"] == "incumbent"
        for event in timeline
    )


def test_min_sense_values_are_negated_back_to_display_space():
    # min-count with a >= floor: the search runs in negated-max space
    # internally; displayed incumbents must equal the true minimum scale.
    model, objective, variables = _conflict_model(9)
    model.add(linear_sum(variables[:4]) >= 2)
    tracer, bounds = _solve_with_trace(model, objective)
    assert bounds.lower == 2  # the floor binds

    spans = [span.to_dict() for span in tracer.spans]
    events = [e for e in mine_timeline(spans) if e["sense"] == "min"]
    assert events, "min search produced no events"
    incumbents = [e["value"] for e in events if e["kind"] == "incumbent"]
    assert incumbents and incumbents[-1] == bounds.lower
    for earlier, later in zip(incumbents, incumbents[1:]):
        assert later <= earlier  # converges downward in display space


def test_process_fabric_events_share_the_inline_timeline():
    model, objective, _ = _conflict_model(13)
    tracer = Tracer(sample_every=4)
    # One inline solve and one worker solve on the same tracer: both
    # contribute to a single time-sorted stream.
    _solve_with_trace(model, objective, tracer=tracer)
    model2, objective2, _ = _conflict_model(13)
    with ProcessFabric(workers=2) as fabric:
        _solve_with_trace(model2, objective2, fabric=fabric, tracer=tracer)

    spans = [span.to_dict() for span in tracer.spans]
    components = mine_components(spans)
    fabrics = {entry["fabric"] for entry in components}
    assert "inline" in fabrics
    assert any(tag.startswith("worker:") for tag in fabrics), fabrics

    by_id = {s["span_id"]: s for s in spans}
    worker_searches = set()
    for span in spans:
        if span.get("name") != "bb.search":
            continue
        parent = by_id.get(span.get("parent_id"))
        grand = by_id.get(parent.get("parent_id")) if parent else None
        for candidate in (parent, grand):
            attrs = (candidate or {}).get("attributes") or {}
            if attrs.get("worker_pid"):
                worker_searches.add(span["span_id"])
    assert worker_searches, "no repatriated bb.search spans found"

    timeline = mine_timeline(spans)
    times = [event["t_unix"] for event in timeline]
    assert times == sorted(times)
    # Worker events actually made it into the merged timeline.
    worker_spans = {
        s["span_id"] for s in spans
        if (s.get("attributes") or {}).get("worker_pid")
    }
    assert worker_spans
    assert len(timeline) > 0


# -- through the scheduler ----------------------------------------------------
@pytest.fixture()
def context():
    config = ExperimentConfig(
        num_transactions=60,
        num_items=24,
        k_values=(2,),
        mc_samples=4,
        seed=7,
        solver_backend="bb",
    )
    ctx = ExperimentContext(config)
    yield ctx
    ctx.close()


def _scheduler(context, buffer):
    return QueryScheduler(
        context, workers=2, max_queue=16, span_buffer=buffer
    )


def test_explain_attaches_payload_without_perturbing_bounds_or_cache(context):
    buffer = SpanBuffer()
    tracer = Tracer([buffer], retain=False)
    with activate(tracer):
        with _scheduler(context, buffer) as sched:
            sched.warm([("km", 2)])
            explained = sched.execute(QueryRequest(query="Q1", explain=True))
            plain = sched.execute(QueryRequest(query="Q1"))

    assert explained.status == STATUS_OK
    assert plain.status == STATUS_OK
    # Identical bounds: the explanation observed the solve, it did not
    # change it.
    assert (explained.lower, explained.upper) == (plain.lower, plain.upper)
    assert plain.explain is None
    # The explain request populated the shared cache like any other.
    assert plain.cache_hits > 0

    payload = explained.explain
    assert isinstance(payload, dict)
    decomposition = payload["decomposition"]
    assert decomposition["components"] == len(decomposition["blocks"]) > 0
    assert payload["components"], "no per-solve provenance mined"
    for entry in payload["components"]:
        assert entry["cache"] in ("l1", "l2", "miss", "estimated")
        assert entry["fabric"] == "inline" or entry["fabric"].startswith("worker:")
        assert entry["tier"]  # tier provenance joined in
    assert payload["timeline"], "cold exact solve produced no events"
    assert payload["totals"]["solves"] == len(payload["components"])
    assert payload["bounds"]["lower"] == explained.lower
    assert payload["bounds"]["upper"] == explained.upper
    # A tight answer's tier provenance: every block answered exactly by
    # the exact solver, pinned to its decomposition block's fingerprint.
    blocks = {block["component"]: block for block in decomposition["blocks"]}
    for entry in payload["components"]:
        detail = entry["tier_detail"]
        assert detail["tier"] == "exact"
        assert detail["escalated"] is False
        assert detail["exact"] is True
        assert detail["fingerprint"] == blocks[detail["component"]]["fingerprint"]


def test_estimator_precision_explanations_carry_tier_provenance(context):
    buffer = SpanBuffer()
    tracer = Tracer([buffer], retain=False)
    with activate(tracer):
        with _scheduler(context, buffer) as sched:
            sched.warm([("km", 2)])
            response = sched.execute(
                QueryRequest(query="Q1", precision="fast", explain=True)
            )
    assert response.status == STATUS_OK
    payload = response.explain
    assert payload["bounds"]["precision"] == "fast"
    tiers = {entry.get("tier") for entry in payload["components"]}
    assert tiers and None not in tiers
    # Estimator-only components surface as synthetic provenance entries.
    assert any(entry["cache"] == "estimated" for entry in payload["components"])


def test_infeasible_database_yields_named_constraint_iis(context):
    buffer = SpanBuffer()
    tracer = Tracer([buffer], retain=False)
    with activate(tracer):
        with _scheduler(context, buffer) as sched:
            sched.warm([("km", 2)])
            encoded = context.encoding("km", 2).encoded
            # A manual (non-lineage) contradiction on one uncertain tuple:
            # _ensure_fresh invalidates the session caches, and the next
            # prepare carries both sides of the conflict.
            target = next(
                row.ext
                for relation in encoded.relations.values()
                for row in relation.rows
                if not isinstance(row.ext, int)
            )
            encoded.model.add(linear_sum([target]) >= 1)
            encoded.model.add(linear_sum([target]) <= 0)
            response = sched.execute(
                QueryRequest(aggregate="count", explain=True)
            )
    assert response.status == STATUS_ERROR
    payload = response.explain
    assert payload is not None
    conflict = payload["infeasibility"]
    assert conflict["constraints"] == len(conflict["iis"]) > 0
    rendered = "\n".join(conflict["iis"])
    # Both sides of the injected contradiction are named constraints.
    assert ">= 1" in rendered and "<= 0" in rendered
    assert target.name in rendered


def test_explain_excluded_from_dedup_key():
    plain = QueryRequest(query="Q1")
    explained = QueryRequest(query="Q1", explain=True)
    assert plain.dedup_key() == explained.dedup_key()
    # ... but round-trips on the wire when set.
    assert QueryRequest.from_json(explained.to_json()).explain is True
    assert "explain" not in plain.to_dict()
