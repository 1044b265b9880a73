"""The span tracer: nesting, attributes, thread-safety, activation."""

from __future__ import annotations

import threading

from repro.core.database import LICMModel
from repro.core.linexpr import linear_sum
from repro.engine.session import SolveSession
from repro.obs import NULL_TRACER, Tracer, activate, current_tracer
from repro.obs.tracer import NullSpan, iter_tree
from repro.queries import answer_licm  # noqa: F401 - import keeps facade covered
from repro.solver.result import SolverOptions


# -- nesting and parent links -------------------------------------------------


def test_nested_spans_link_parents():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("middle") as middle:
            with tracer.span("inner") as inner:
                pass
    assert outer.parent_id is None
    assert middle.parent_id == outer.span_id
    assert inner.parent_id == middle.span_id
    assert {s.trace_id for s in tracer.spans} == {tracer.trace_id}
    # finished innermost-first
    assert [s.name for s in tracer.spans] == ["inner", "middle", "outer"]


def test_sibling_spans_share_parent():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
    assert a.parent_id == b.parent_id
    tree = list(iter_tree(tracer))
    assert [(d, s.name) for d, s in tree] == [(0, "root"), (1, "a"), (1, "b")]


def test_explicit_parent_overrides_stack():
    tracer = Tracer()
    with tracer.span("root") as root:
        pass
    with tracer.span("adopted", parent=root) as adopted:
        pass
    assert adopted.parent_id == root.span_id


def test_span_attributes_and_events():
    tracer = Tracer()
    with tracer.span("op", kind="join") as span:
        span.set("rows", 10).add("hits").add("hits", 2)
        span.event("samples", {"node": 1})
        span.event("samples", {"node": 2})
    assert span.attributes["kind"] == "join"
    assert span.attributes["rows"] == 10
    assert span.attributes["hits"] == 3
    assert [e["node"] for e in span.attributes["samples"]] == [1, 2]
    assert span.duration is not None and span.duration >= 0.0
    assert span.status == "ok"


def test_span_records_exceptions_and_reraises():
    tracer = Tracer()
    try:
        with tracer.span("boom"):
            raise ValueError("nope")
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("exception must propagate")
    (span,) = tracer.spans
    assert span.status == "error"
    assert "nope" in span.attributes["error"]


def test_failing_sink_does_not_break_tracing(caplog):
    def bad_sink(span):
        raise RuntimeError("sink down")

    tracer = Tracer([bad_sink])
    with tracer.span("survives"):
        pass
    assert len(tracer) == 1  # span retained despite sink failure


# -- activation ---------------------------------------------------------------


def test_activation_is_scoped_and_nests():
    assert current_tracer() is NULL_TRACER
    outer, inner = Tracer(), Tracer()
    with activate(outer):
        assert current_tracer() is outer
        with activate(inner):
            assert current_tracer() is inner
        assert current_tracer() is outer
    assert current_tracer() is NULL_TRACER


def test_null_tracer_is_free_and_silent():
    assert not NULL_TRACER.enabled
    with NULL_TRACER.span("anything", key="value") as span:
        assert isinstance(span, NullSpan)
        span.set("a", 1).add("b").event("c", {})
    assert len(NULL_TRACER) == 0
    assert NullSpan.attributes == {}  # the shared null span never mutates


# -- thread-safety ------------------------------------------------------------


def test_concurrent_spans_stay_per_thread():
    tracer = Tracer()
    errors = []

    def worker(tag):
        try:
            for i in range(50):
                with tracer.span(f"{tag}") as outer:
                    with tracer.span(f"{tag}.child") as child:
                        assert child.parent_id == outer.span_id
        except AssertionError as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(tracer) == 4 * 50 * 2
    # span ids unique across threads
    ids = [s.span_id for s in tracer.spans]
    assert len(ids) == len(set(ids))


def test_bb_search_span_profiles_nodes():
    model = LICMModel()
    vs = model.new_vars(8)
    model.add(linear_sum(vs) <= 5)
    model.add((vs[0] + vs[1]) <= 1)

    tracer = Tracer(sample_every=1)
    with activate(tracer):
        with SolveSession(model, options=SolverOptions(backend="bb")) as session:
            session.bounds(linear_sum(vs))
    searches = tracer.by_name("bb.search")
    assert searches, "bb backend must open bb.search spans"
    for span in searches:
        attrs = span.attributes
        assert attrs["nodes"] >= 1
        assert "max_depth" in attrs and "incumbent_updates" in attrs
        assert {"prune_bound", "prune_child_bound", "prune_propagation"} <= set(attrs)
        assert attrs["status"] in ("optimal", "limit", "infeasible")
