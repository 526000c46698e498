"""Query execution over per-frame count series.

Every query in the paper reduces to the per-frame count series
``n_t`` = number of objects in frame ``t`` satisfying the query's object
filter.  A :class:`CountProvider` supplies that series — the Oracle
provider computes it from full detections, MAST's providers from the
index (ST prediction) or from interpolation (linear prediction), all
through one kernel, :meth:`~repro.query.predicates.ObjectRows.count_series`.

Evaluation is a pure function (:func:`evaluate_query`, over a
``resolve(object_filter) -> series`` callable), and
:meth:`SeriesState.answer` is the one path that turns a routed request
into answers: one :class:`~repro.serving.cache.CountSeriesCache` walk
over the request's series (missing ones computed by the providers'
batched kernels and stored), evaluation in order, one ledger update.
:class:`QueryEngine` runs it over one provider,
:class:`~repro.core.pipeline.MASTPipeline` over its predictors and
:class:`~repro.serving.QueryService` over a served snapshot, so no count
series lives outside a cache and every answer is bit-identical across
the three.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, overload, runtime_checkable

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
from repro.query.predicates import ObjectFilter
from repro.utils.timing import STAGE_QUERY, CostLedger

if TYPE_CHECKING:
    from repro.serving.batching import BatchPlan, Query
    from repro.serving.cache import CacheKey, CountSeriesCache

__all__ = [
    "CountProvider",
    "QueryEngine",
    "SeriesState",
    "base_kind",
    "condition_mask",
    "evaluate_query",
]

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


def base_kind(kind: str) -> str:
    """The cache-key namespace backing ``kind``.

    The floored-linear retrieval view is derived from the continuous
    linear series (``floor`` applied at evaluation time), so both share
    one cached series under the ``"linear"`` namespace.
    """
    return "linear" if kind == "linear_floor" else kind


def _freeze(answer: RetrievalResult | AggregateResult) -> int:
    """Make ``answer``'s arrays read-only; return the bytes beside its series.

    An aggregate's ``counts`` is the cache's own series, a retrieval's
    ``frame_ids`` an array of its own.
    """
    if isinstance(answer, RetrievalResult):
        answer.frame_ids.setflags(write=False)
        return answer.frame_ids.nbytes
    assert answer.counts is not None
    answer.counts.setflags(write=False)
    return 0


@dataclass(frozen=True)
class SeriesState:
    """One epoch of count providers and the cache their series live in.

    ``providers`` maps a cache namespace (:func:`base_kind`) to its
    provider, all over ``n_frames`` frames; ``generation`` tags the cache
    entries this epoch reads and writes.  A request captures one state at
    entry and never reads anything mutable afterwards, so its answers
    are all of one epoch even while a writer installs the next.
    """

    cache: CountSeriesCache
    generation: int
    n_frames: int
    providers: Mapping[str, CountProvider]

    def _complete(
        self,
        kind: str,
        filters: list[ObjectFilter],
        series: list,
        prefixes: list,
    ) -> list[np.ndarray]:
        """Fill the missed (``None``) ``series`` of ``filters`` and cache them.

        One ``count_series_many`` call per start frame (0, or the length
        of a ``prefixes`` entry an ``extend`` left); the results are put
        back prefixes first, and the cache's read-only copies returned.
        """
        by_start: dict[int, list[tuple[int, np.ndarray | None]]] = {}
        for position, (cached, prefix) in enumerate(zip(series, prefixes)):
            if cached is None:
                start = len(prefix) if prefix is not None and len(prefix) < self.n_frames else 0
                by_start.setdefault(start, []).append((position, prefix))
        if not by_start:
            return series
        provider = self.providers[kind]
        for start, missing in by_start.items():
            tails = provider.count_series_many([filters[p] for p, _ in missing], start=start)
            for position, prefix in missing:
                tail = tails[filters[position]]
                series[position] = np.concatenate([prefix, tail]) if start else tail
        completed = sorted(p for start, missing in by_start.items() if start for p, _ in missing)
        for position in completed + [p for p, _ in by_start.get(0, [])]:
            series[position] = self.cache.put(
                (kind, filters[position]), series[position], self.generation
            )
        return series

    def series(
        self, probes: list[tuple[CacheKey, Any]], groups: list[int]
    ) -> tuple[list[tuple[np.ndarray, Any, Any]], list[int]]:
        """Every probe's ``(series, _, memoized answer)``, in cache order.

        One :meth:`CountSeriesCache.lookup_many` pass; each time it stops
        at a miss, the missed probes (one group, or one probe) go to
        :meth:`_complete` and the pass resumes after them.  Also returns
        the indices of the probes that missed or hit only a prefix.
        """
        found: list = []
        fresh: list[int] = []
        while len(found) < len(probes):
            walked, missed = self.cache.lookup_many(
                probes, self.generation, groups=groups, start=len(found)
            )
            found += walked
            if not missed:
                continue
            fresh += missed
            completed = self._complete(
                probes[missed[0]][0][0],
                [probes[position][0][1] for position in missed],
                [None] * len(missed),
                [found[position][1] for position in missed],
            )
            for position, series in zip(missed, completed):
                found[position] = (series, None, None)
        return found, fresh

    def answer(
        self, plan: BatchPlan, ledger: CostLedger
    ) -> list[RetrievalResult | AggregateResult]:
        """Answer ``plan``'s queries in order, one request.

        The cache sees the probes of
        :func:`~repro.serving.batching.plan_batch`, in its order, in one
        critical section unless something misses; the ledger gets one
        measurement and one :meth:`CostLedger.settle`.  A single-filter
        answer is memoized only if its series was cached before this
        request (none of its probes missed), so an answer nobody asks
        again costs no memo; a repeat inside the request shares the
        answer either way.  Answers are shared, so their arrays are
        read-only.
        """
        queries, kinds, probes, groups = plan
        if not queries:
            return []
        n_frames = self.n_frames
        costs = {
            kind: self.providers[base_kind(kind)].simulated_query_cost_per_frame * n_frames
            for kind in set(kinds)
        }
        with ledger.measure(STAGE_QUERY, count=len(queries)):
            found, fresh = self.series(probes, groups)
            fresh_keys = {probes[position][0] for position in fresh}
            answers: list[RetrievalResult | AggregateResult] = []
            evaluated: dict[Query, RetrievalResult | AggregateResult] = {}
            position = plan.n_warm
            for query, kind in zip(queries, kinds):
                if isinstance(query, CompoundRetrievalQuery):
                    end = position + len(query.leaf_conditions())
                    leaves = iter(
                        [
                            np.floor(series) if kind == "linear_floor" else series
                            for series, _, _ in found[position:end]
                        ]
                    )
                    position = end
                    answers.append(evaluate_query(query, lambda _, it=leaves: next(it), n_frames))
                    continue
                series, _, answer = found[position]
                position += 1
                if answer is None:
                    answer = evaluated.get(query)
                if answer is None:
                    counts = np.floor(series) if kind == "linear_floor" else series
                    answer = evaluated[query] = evaluate_query(query, lambda _: counts, n_frames)
                    nbytes = _freeze(answer)
                    key, answer_key = probes[position - 1]
                    if key not in fresh_keys:
                        self.cache.remember(key, self.generation, answer_key, answer, nbytes)
                answers.append(answer)
        ledger.settle(STAGE_QUERY, [costs[kind] for kind in kinds])
        return answers


#: The one cache namespace of a :class:`QueryEngine`.
_PROVIDER = "provider"


def _to_provider(query: Query) -> str:
    """A :class:`QueryEngine`'s route: every query shape to its one provider."""
    if not isinstance(query, (RetrievalQuery, CompoundRetrievalQuery, AggregateQuery)):
        raise TypeError(f"unsupported query type {type(query).__name__}")
    return _PROVIDER


class QueryEngine:
    """Evaluates retrieval / aggregate queries against one count provider.

    The engine answers through :meth:`SeriesState.answer` over its own
    :class:`~repro.serving.cache.CountSeriesCache`: a workload's queries
    reference few distinct filters, and the provider computes each of
    them once.  The provider is read as immutable, so an engine lives as
    long as what it reads.
    """

    def __init__(self, provider: CountProvider, *, ledger: CostLedger | None = None) -> None:
        # repro.serving imports this module, so its names load on use.
        from repro.serving.cache import CountSeriesCache

        self.provider = provider
        self.ledger = ledger if ledger is not None else CostLedger()
        self.cache = CountSeriesCache()
        self._state = SeriesState(self.cache, 0, provider.n_frames, {_PROVIDER: provider})

    def count_series(self, object_filter: ObjectFilter) -> np.ndarray:
        """The (read-only) series queries on ``object_filter`` evaluate, computed once."""
        found, _ = self._state.series([((_PROVIDER, object_filter), None)], [])
        return found[0][0]

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
        from repro.serving.batching import plan_batch

        return self._state.answer(plan_batch([query], _to_provider, warm=False), self.ledger)[0]

    def execute_many(
        self,
        queries: Iterable[
            str | RetrievalQuery | CompoundRetrievalQuery | AggregateQuery
        ],
    ) -> list[RetrievalResult | AggregateResult]:
        """Run a list of queries in order."""
        return [self.execute(q) for q in queries]
