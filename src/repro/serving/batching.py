"""Workload planning for batched execution.

``plan_batch`` parses a workload up front, routes every query to its
provider kind (the paper's §7.1 predictor assignment), and collects the
distinct count-series cache keys the workload references.  The service
then computes each distinct series exactly once — sharing predicate
work inside a provider's ``count_series_many`` — before answering the
queries in order on the calling thread.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.config import MASTConfig
from repro.core.pipeline import predictor_kind
from repro.query.ast import AggregateQuery, CompoundRetrievalQuery, RetrievalQuery
from repro.query.parser import parse_query
from repro.query.predicates import ObjectFilter
from repro.serving.cache import CacheKey

__all__ = ["BatchPlan", "PlannedQuery", "Query", "base_kind", "plan_batch"]

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


@dataclass(frozen=True)
class PlannedQuery:
    """One parsed + routed query of a batch."""

    #: Position in the submitted workload (results keep this order).
    index: int
    query: Query
    #: Provider kind answering the query ("st" / "linear" / "linear_floor").
    kind: str
    #: Cache keys of every count series the query reads.
    series_keys: tuple[CacheKey, ...]


@dataclass(frozen=True)
class BatchPlan:
    """A parsed workload plus its distinct count-series requirements."""

    queries: tuple[PlannedQuery, ...]
    #: Distinct cache keys across the batch, in first-reference order.
    series_keys: tuple[CacheKey, ...]

    def keys_by_kind(self) -> dict[str, list[ObjectFilter]]:
        """Provider kind -> distinct filters, for per-kind batched compute."""
        grouped: dict[str, list[ObjectFilter]] = {}
        for kind, object_filter in self.series_keys:
            grouped.setdefault(kind, []).append(object_filter)
        return grouped

    @property
    def n_series(self) -> int:
        return len(self.series_keys)


def plan_batch(queries: Iterable[str | Query], config: MASTConfig) -> BatchPlan:
    """Parse and route a workload; dedupe the series it references."""
    planned: list[PlannedQuery] = []
    distinct: dict[CacheKey, None] = {}
    for index, query in enumerate(queries):
        if isinstance(query, str):
            query = parse_query(query)
        kind = predictor_kind(config, query)
        keys = tuple(
            (base_kind(kind), object_filter)
            for object_filter in query_filters(query)
        )
        for key in keys:
            distinct.setdefault(key, None)
        planned.append(
            PlannedQuery(index=index, query=query, kind=kind, series_keys=keys)
        )
    return BatchPlan(queries=tuple(planned), series_keys=tuple(distinct))
