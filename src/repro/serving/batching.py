"""Workload planning for batched execution.

``plan_batch`` parses a workload up front, routes every query to its
provider kind (the paper's §7.1 predictor assignment), and collects the
distinct object filters each provider kind's series are read for.  Its
:class:`BatchPlan` lists the request's cache lookups in order: the
distinct series once each, then every query's own.
:meth:`~repro.query.engine.SeriesState.answer` makes them in one walk,
computes each missing series exactly once — sharing predicate work
inside a provider's ``count_series_many`` — and answers the queries in
order on the calling thread.  Every answer path plans here:
:class:`~repro.serving.QueryService` requests, and
:meth:`~repro.core.pipeline.MASTPipeline.query` and
:meth:`~repro.query.engine.QueryEngine.execute` with ``warm=False``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import NamedTuple

from repro.query.ast import AggregateQuery, CompoundRetrievalQuery, RetrievalQuery
from repro.query.engine import base_kind
from repro.query.parser import parse_query
from repro.query.predicates import ObjectFilter
from repro.serving.cache import CacheKey

__all__ = ["BatchPlan", "Query", "base_kind", "plan_batch"]

#: A parsed query of any shape the service can answer.
Query = RetrievalQuery | CompoundRetrievalQuery | AggregateQuery


class BatchPlan(NamedTuple):
    """The cache walk of a routed workload (:meth:`CountSeriesCache.lookup_many`)."""

    #: The parsed queries, in submission order.
    queries: list[Query]
    #: The provider kind each query routes to.
    kinds: list[str]
    #: ``((namespace, filter), answer key)`` per probe: first each distinct
    #: series once (the warm probes, no answer key), then each query's —
    #: a compound retrieval's leaves, or a single-filter query's series
    #: with the query as its answer key.
    probes: list[tuple[CacheKey, Query | None]]
    #: End of each namespace's warm probes (namespaces in first-routed order).
    groups: list[int]

    @property
    def n_warm(self) -> int:
        """How many probes warm the distinct series."""
        return self.groups[-1] if self.groups else 0


def plan_batch(
    queries: Iterable[str | Query], route: Callable[[Query], str], *, warm: bool = True
) -> BatchPlan:
    """Parse and route a workload; dedupe the series it references.

    Each cache-key namespace's (:func:`base_kind`) distinct filters are
    warmed in first-reference order, namespaces in the order a query
    first routed to them; ``warm=False`` plans the queries' own probes
    only, as a serial loop of requests looks them up.
    """
    parsed: list[Query] = []
    kinds: list[str] = []
    probes: list[tuple[CacheKey, Query | None]] = []
    distinct: dict[str, dict[ObjectFilter, None]] = {}
    for query in queries:
        if isinstance(query, str):
            query = parse_query(query)
        kind = route(query)
        parsed.append(query)
        kinds.append(kind)
        namespace = base_kind(kind)
        filters = distinct.setdefault(namespace, {})
        if isinstance(query, CompoundRetrievalQuery):
            for leaf in query.leaf_conditions():
                filters[leaf.object_filter] = None
                probes.append(((namespace, leaf.object_filter), None))
        else:
            filters[query.object_filter] = None  # a repeat keeps its first place
            probes.append(((namespace, query.object_filter), query))
    if not warm:
        return BatchPlan(parsed, kinds, probes, [])
    warming: list[tuple[CacheKey, Query | None]] = []
    groups: list[int] = []
    for namespace, filters in distinct.items():
        warming += [((namespace, object_filter), None) for object_filter in filters]
        groups.append(len(warming))
    return BatchPlan(parsed, kinds, warming + probes, groups)
