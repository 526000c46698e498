"""Workload planning for batched execution.

``plan_batch`` parses a workload up front, routes every query to its
provider kind (the paper's §7.1 predictor assignment), and collects the
distinct object filters each provider kind's series are read for.  The
service then computes each distinct series exactly once — sharing
predicate work inside a provider's ``count_series_many`` — before
answering the queries in order on the calling thread.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.config import MASTConfig
from repro.core.pipeline import predictor_kind
from repro.query.ast import AggregateQuery, CompoundRetrievalQuery, RetrievalQuery
from repro.query.parser import parse_query
from repro.query.predicates import ObjectFilter

__all__ = ["Query", "base_kind", "plan_batch"]

#: A parsed query of any shape the service can answer.
Query = RetrievalQuery | CompoundRetrievalQuery | AggregateQuery


def base_kind(kind: str) -> str:
    """The cache-key namespace backing ``kind``.

    The floored-linear retrieval view is derived from the continuous
    linear series (``floor`` applied at evaluation time), so both share
    one cached series under the ``"linear"`` namespace.
    """
    return "linear" if kind == "linear_floor" else kind


def query_filters(query: Query) -> tuple[ObjectFilter, ...]:
    """Object filters referenced by one parsed query, in evaluation order."""
    if isinstance(query, CompoundRetrievalQuery):
        return tuple(c.object_filter for c in query.leaf_conditions())
    return (query.object_filter,)


def plan_batch(
    queries: Iterable[str | Query], config: MASTConfig
) -> tuple[list[Query], dict[str, list[ObjectFilter]]]:
    """Parse and route a workload; dedupe the series it references.

    Returns the parsed queries in submission order, and each cache-key
    namespace's (:func:`base_kind`) distinct filters in first-reference
    order, namespaces in the order a query first routed to them.
    """
    parsed: list[Query] = []
    distinct: dict[str, dict[ObjectFilter, None]] = {}
    for query in queries:
        if isinstance(query, str):
            query = parse_query(query)
        parsed.append(query)
        filters = distinct.setdefault(base_kind(predictor_kind(config, query)), {})
        for object_filter in query_filters(query):
            filters.setdefault(object_filter, None)
    return parsed, {kind: list(filters) for kind, filters in distinct.items()}
