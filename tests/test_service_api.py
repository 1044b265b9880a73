"""Request/response contracts of the query service (wire-format layer)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError, ValidationError
from repro.service.api import (
    STATUSES,
    QueryRequest,
    QueryResponse,
    http_status_for,
)


# -- QueryRequest validation -----------------------------------------------
def test_valid_canned_query_roundtrips():
    request = QueryRequest(query="Q1", scheme="km", k=2, deadline_ms=250.0)
    again = QueryRequest.from_json(request.to_json())
    assert again == request
    assert again.kind == "query"


def test_valid_adhoc_aggregate_roundtrips():
    request = QueryRequest(aggregate="sum")
    again = QueryRequest.from_dict(json.loads(request.to_json()))
    assert again == request
    assert again.kind == "aggregate"


def test_query_and_aggregate_are_mutually_exclusive():
    with pytest.raises(ValidationError, match="exactly one"):
        QueryRequest(query="Q1", aggregate="count").validate()
    with pytest.raises(ValidationError, match="exactly one"):
        QueryRequest().validate()


def test_validation_reports_every_problem_at_once():
    with pytest.raises(ValidationError) as excinfo:
        QueryRequest(query="Q9", scheme="nope", k=0, deadline_ms=-1).validate()
    problems = excinfo.value.problems
    assert len(problems) == 4
    assert any("Q9" in p for p in problems)
    assert any("nope" in p for p in problems)
    assert any("k must be" in p for p in problems)
    assert any("deadline_ms" in p for p in problems)


def test_unknown_params_key_rejected():
    with pytest.raises(ValidationError, match="unknown params key 'selectivty'"):
        QueryRequest(query="Q1", params={"selectivty": 0.1}).validate()


#: (params, aggregate?, what the ValidationError names) — every params
#: value the workload builders cannot take, refused at admission.
BAD_PARAMS = [
    ({"pa_selectivity": [1]}, False, "must be float"),
    ({"pa_selectivity": "abc"}, False, "must be float"),
    ({"x_items": 2.5}, False, "must be int"),
    ({"x_items": True}, False, "must be int"),
    ({"pb_selectivity": float("nan")}, False, "must be finite"),
    ({"q3_selectivity": float("inf")}, False, "must be finite"),
    ({"pb_selectivity": 0}, False, "(0, 1]"),
    ({"pa_selectivity": 1.5}, False, "(0, 1]"),
    ({"pb_selectivity": 0.3}, True, "canned queries only"),
]


@pytest.mark.parametrize("params,adhoc,problem", BAD_PARAMS)
def test_bad_params_values_rejected(params, adhoc, problem):
    fields = {"aggregate": "count"} if adhoc else {"query": "Q1"}
    with pytest.raises(ValidationError) as excinfo:
        QueryRequest.from_dict({**fields, "params": params})
    assert any(problem in text for text in excinfo.value.problems)


def test_params_of_their_fields_type_are_accepted():
    request = QueryRequest(
        query="Q2", params={"pa_selectivity": 1, "pb_selectivity": 0.25, "x_items": 3}
    ).validate()
    # An int selectivity names the same plan as its float.
    assert request.plan_key() == QueryRequest(
        query="Q2", params={"pa_selectivity": 1.0, "pb_selectivity": 0.25, "x_items": 3}
    ).plan_key()
    assert QueryRequest(aggregate="count", params={}).validate()


def test_unknown_top_level_field_rejected():
    with pytest.raises(ValidationError, match="unknown field 'qury'"):
        QueryRequest.from_dict({"qury": "Q1"})


def test_malformed_json_body_rejected():
    with pytest.raises(ValidationError, match="not valid JSON"):
        QueryRequest.from_json("{nope")
    with pytest.raises(ValidationError, match="JSON object"):
        QueryRequest.from_json("[1, 2]")


def test_bool_is_not_a_valid_k_or_deadline():
    with pytest.raises(ValidationError, match="k must be"):
        QueryRequest(query="Q1", k=True).validate()
    with pytest.raises(ValidationError, match="deadline_ms"):
        QueryRequest(query="Q1", deadline_ms=True).validate()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
def test_non_finite_deadline_rejected(literal):
    # json.loads accepts all three; none is a usable deadline.
    with pytest.raises(ValidationError, match="deadline_ms must be finite"):
        QueryRequest.from_json('{"query": "Q1", "deadline_ms": %s}' % literal)


def test_removed_mc_fields_are_unknown():
    # A degraded answer is never Monte Carlo, so there is nothing to tune.
    with pytest.raises(ValidationError) as excinfo:
        QueryRequest.from_dict({"query": "Q1", "mc_fallback": False, "mc_samples": 4})
    assert excinfo.value.problems == [
        "unknown field 'mc_fallback'", "unknown field 'mc_samples'"
    ]


def test_unknown_precision_rejected_alongside_other_problems():
    # Precision joins the all-problems-at-once error shape, not a 500.
    with pytest.raises(ValidationError) as excinfo:
        QueryRequest(query="Q9", precision="exactish", k=0).validate()
    problems = excinfo.value.problems
    assert len(problems) == 3
    assert any("precision must be one of" in p and "exactish" in p for p in problems)


def test_valid_precisions_roundtrip_and_default_is_server_side():
    for precision in ("fast", "balanced", "tight"):
        request = QueryRequest(query="Q1", precision=precision).validate()
        again = QueryRequest.from_json(request.to_json())
        assert again.precision == precision
    # None (the default) defers to the server and stays off the wire.
    assert "precision" not in QueryRequest(query="Q1").validate().to_dict()


def test_validation_error_is_a_service_error():
    assert issubclass(ValidationError, ServiceError)


def test_request_ids_are_unique_and_plan_key_ignores_them():
    a = QueryRequest(query="Q2", params={"x_items": 3})
    b = QueryRequest(query="Q2", params={"x_items": 3})
    assert a.request_id != b.request_id
    assert a.plan_key() == b.plan_key()
    assert a.plan_key() != QueryRequest(query="Q2").plan_key()


# -- QueryResponse ----------------------------------------------------------
def test_response_roundtrips_and_drops_nones():
    response = QueryResponse(request_id="r1", status="ok", lower=3, upper=7, exact=True)
    payload = response.to_dict()
    assert "error" not in payload  # None fields stay off the wire
    assert QueryResponse.from_json(response.to_json()) == response


def test_response_rejects_unknown_status():
    with pytest.raises(ValueError, match="status"):
        QueryResponse(request_id="r1", status="maybe")


@pytest.mark.parametrize(
    "status,code",
    [("ok", 200), ("degraded", 200), ("timeout", 504), ("rejected", 429), ("error", 400)],
)
def test_http_status_mapping(status, code):
    assert http_status_for(status) == code
    assert QueryResponse(request_id="r", status=status).http_status == code


def test_every_status_is_terminal():
    for status in STATUSES:
        assert QueryResponse(request_id="r", status=status).terminal


def test_unknown_status_maps_to_500():
    assert http_status_for("weird") == 500
