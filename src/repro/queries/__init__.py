"""The paper's query workload: plan builders and the LICM evaluator."""

from repro.queries.answer import LICMAnswer, answer_licm
from repro.queries.fluent import Q, Query
from repro.queries.licm_eval import evaluate_licm
from repro.queries.predicates import location_predicate, price_predicate
from repro.queries.workload import (
    QUERY_BUILDERS,
    QueryParams,
    query1,
    query2,
    query3,
    restricted_transitem,
)

__all__ = [
    "LICMAnswer",
    "Q",
    "QUERY_BUILDERS",
    "Query",
    "QueryParams",
    "answer_licm",
    "evaluate_licm",
    "location_predicate",
    "price_predicate",
    "query1",
    "query2",
    "query3",
    "restricted_transitem",
]
