"""Query execution over per-frame count series.

Every query in the paper reduces to the per-frame count series
``n_t`` = number of objects in frame ``t`` satisfying the query's object
filter.  A :class:`CountProvider` supplies that series — the Oracle
provider computes it from full detections, MAST's providers from the
index (ST prediction) or from interpolation (linear prediction), all
through one kernel, :meth:`~repro.query.predicates.ObjectRows.count_series` — and
the :class:`QueryEngine` evaluates retrieval and aggregate queries on
top, charging query-time costs to a ledger.

Evaluation itself is exposed as pure functions (:func:`evaluate_query`,
:func:`condition_mask`) over a ``resolve(object_filter) -> series``
callable, so alternative executors — notably the batched
:class:`repro.serving.QueryService`, which resolves series from a shared
cache — produce bit-identical answers by construction.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, overload, runtime_checkable

import numpy as np

from repro.query.aggregates import aggregate
from repro.query.ast import (
    AggregateQuery,
    AggregateResult,
    CompoundRetrievalQuery,
    Condition,
    ConditionAnd,
    ConditionOr,
    RetrievalQuery,
    RetrievalResult,
)
from repro.query.parser import parse_query
from repro.query.predicates import ObjectFilter
from repro.utils.timing import STAGE_QUERY, CostLedger

__all__ = ["CountProvider", "QueryEngine", "condition_mask", "evaluate_query"]

#: Resolves an object filter to its per-frame count series.
SeriesResolver = Callable[[ObjectFilter], np.ndarray]


def condition_mask(condition, resolve: SeriesResolver) -> np.ndarray:
    """Per-frame boolean mask of a (possibly compound) condition."""
    if isinstance(condition, Condition):
        counts = resolve(condition.object_filter)
        return condition.count_predicate.mask(counts)
    if isinstance(condition, ConditionAnd):
        mask = condition_mask(condition.children[0], resolve)
        for child in condition.children[1:]:
            mask = mask & condition_mask(child, resolve)
        return mask
    if isinstance(condition, ConditionOr):
        mask = condition_mask(condition.children[0], resolve)
        for child in condition.children[1:]:
            mask = mask | condition_mask(child, resolve)
        return mask
    raise TypeError(f"unsupported condition type {type(condition).__name__}")


@overload
def evaluate_query(
    query: RetrievalQuery | CompoundRetrievalQuery,
    resolve: SeriesResolver,
    n_frames: int,
) -> RetrievalResult: ...
@overload
def evaluate_query(
    query: AggregateQuery, resolve: SeriesResolver, n_frames: int
) -> AggregateResult: ...
def evaluate_query(
    query: RetrievalQuery | CompoundRetrievalQuery | AggregateQuery,
    resolve: SeriesResolver,
    n_frames: int,
) -> RetrievalResult | AggregateResult:
    """Evaluate a parsed query against ``resolve``'d count series.

    This is the single evaluation path for every executor; it performs
    no parsing, routing, or cost accounting.
    """
    if isinstance(query, RetrievalQuery):
        counts = resolve(query.object_filter)
        mask = query.count_predicate.mask(counts)
        return RetrievalResult(
            query=query, frame_ids=np.nonzero(mask)[0], n_frames=n_frames
        )
    if isinstance(query, CompoundRetrievalQuery):
        mask = condition_mask(query.condition, resolve)
        return RetrievalResult(
            query=query, frame_ids=np.nonzero(mask)[0], n_frames=n_frames
        )
    if isinstance(query, AggregateQuery):
        counts = resolve(query.object_filter)
        value = aggregate(query.operator, counts, query.count_predicate)
        return AggregateResult(query=query, value=value, counts=counts)
    raise TypeError(f"unsupported query type {type(query).__name__}")


@runtime_checkable
class CountProvider(Protocol):
    """Supplies per-frame object counts for object filters."""

    #: Number of frames in the underlying sequence.
    n_frames: int
    #: Simulated seconds per frame evaluation charged per query (models
    #: the paper's measured per-query costs; see §6.1).
    simulated_query_cost_per_frame: float

    def count_series_many(
        self, filters: Iterable[ObjectFilter], *, start: int = 0
    ) -> dict[ObjectFilter, np.ndarray]:
        """The count series of each filter over frames ``[start, n_frames)``."""
        ...  # pragma: no cover - protocol

    def count_series(self, object_filter: ObjectFilter) -> np.ndarray:
        """The ``(n_frames,)`` count series of one filter."""
        ...  # pragma: no cover - protocol


class QueryEngine:
    """Evaluates retrieval / aggregate queries against a count provider.

    The engine keeps every count series it has resolved: a workload's
    queries reference few distinct filters, and the provider computes
    each of them once.  The provider is read as immutable, so an engine
    lives as long as the index it reads — a new index gets new engines.
    ``floor=True`` floors each series before evaluation (the paper's
    Example 5.3 floors interpolated counts before a retrieval predicate).
    """

    def __init__(
        self,
        provider: CountProvider,
        *,
        ledger: CostLedger | None = None,
        floor: bool = False,
    ) -> None:
        self.provider = provider
        self.ledger = ledger if ledger is not None else CostLedger()
        self.floor = floor
        self._series: dict[ObjectFilter, np.ndarray] = {}

    def floored(self) -> QueryEngine:
        """A flooring view sharing this engine's provider, ledger and series."""
        view = QueryEngine(self.provider, ledger=self.ledger, floor=True)
        view._series = self._series
        return view

    def count_series(self, object_filter: ObjectFilter) -> np.ndarray:
        """The series queries on ``object_filter`` evaluate, computed once."""
        series = self._series.get(object_filter)
        if series is None:
            series = self.provider.count_series(object_filter)
            self._series[object_filter] = series
        return np.floor(series) if self.floor else series

    def cached_filters(self) -> tuple[ObjectFilter, ...]:
        """Object filters whose count series this engine already holds."""
        return tuple(self._series)

    # ------------------------------------------------------------------
    @overload
    def execute(
        self, query: RetrievalQuery | CompoundRetrievalQuery
    ) -> RetrievalResult: ...
    @overload
    def execute(self, query: AggregateQuery) -> AggregateResult: ...
    @overload
    def execute(self, query: str) -> RetrievalResult | AggregateResult: ...
    def execute(
        self,
        query: str | RetrievalQuery | CompoundRetrievalQuery | AggregateQuery,
    ) -> RetrievalResult | AggregateResult:
        """Run one query (query object or query-language text)."""
        if isinstance(query, str):
            query = parse_query(query)
        with self.ledger.measure(STAGE_QUERY):
            self.ledger.charge(
                STAGE_QUERY,
                self.provider.simulated_query_cost_per_frame * self.provider.n_frames,
                count=0,
            )
            return evaluate_query(query, self.count_series, self.provider.n_frames)

    def execute_many(
        self,
        queries: Iterable[
            str | RetrievalQuery | CompoundRetrievalQuery | AggregateQuery
        ],
    ) -> list[RetrievalResult | AggregateResult]:
        """Run a list of queries in order."""
        return [self.execute(q) for q in queries]
