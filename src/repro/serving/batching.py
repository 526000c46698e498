"""Workload planning for batched execution.

``plan_batch`` parses a workload up front, routes every query to its
provider kind (the paper's §7.1 predictor assignment), and collects the
distinct object filters each provider kind's series are read for.  Its
:class:`BatchPlan` lists the request's cache lookups in order: the
distinct series once each, then every query's own.  The service makes
them in one walk, computes each missing series exactly once — sharing
predicate work inside a provider's ``count_series_many`` — and answers
the queries in order on the calling thread.

A route is a function of the query's class and aggregate operator only,
so :func:`router` memoizes it on that shape: a handful of entries
whatever the traffic, never one per query text.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import NamedTuple

from repro.core.config import MASTConfig
from repro.core.pipeline import predictor_kind
from repro.query.ast import AggregateQuery, CompoundRetrievalQuery, RetrievalQuery
from repro.query.parser import parse_query
from repro.query.predicates import ObjectFilter
from repro.serving.cache import CacheKey

__all__ = ["BatchPlan", "Query", "base_kind", "plan_batch", "router"]

#: A parsed query of any shape the service can answer.
Query = RetrievalQuery | CompoundRetrievalQuery | AggregateQuery


def base_kind(kind: str) -> str:
    """The cache-key namespace backing ``kind``.

    The floored-linear retrieval view is derived from the continuous
    linear series (``floor`` applied at evaluation time), so both share
    one cached series under the ``"linear"`` namespace.
    """
    return "linear" if kind == "linear_floor" else kind


def router(config: MASTConfig) -> Callable[[Query], str]:
    """:func:`predictor_kind` under ``config``, memoized on the query's shape."""
    kinds: dict[type | str, str] = {}

    def route(query: Query) -> str:
        shape = query.operator if isinstance(query, AggregateQuery) else type(query)
        kind = kinds.get(shape)
        if kind is None:
            kind = kinds[shape] = predictor_kind(config, query)
        return kind

    return route


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
