"""Batched, cached query serving on top of :class:`MASTPipeline`.

:class:`QueryService` fronts one fitted pipeline for many concurrent
clients:

* one shared, bounded :class:`~repro.serving.cache.CountSeriesCache`
  fronts the ST and linear providers and is the only place a served
  shard keeps count series (floored-linear retrieval floors the
  continuous linear series at evaluation time, so it shares entries);
* a single-filter query's answer is kept on its series' cache entry,
  keyed by the query: a repeat within the same generation is the series
  lookup it always made, which now also returns the answer, not a mask
  and a ``nonzero``; the answer dies with the entry, so no ``extend`` /
  ``adopt`` can serve it stale.  An answer is kept only if its series
  was cached before the request that evaluated it, so a query asked
  once costs no memo.  Served answers are shared, so their arrays are
  read-only.  Compound retrievals evaluate every time;
* :meth:`execute_batch` parses and routes a workload up front
  (:func:`~repro.serving.batching.plan_batch`), computes each distinct
  count series exactly once via the providers' batched
  ``count_series_many`` kernels, then answers the queries in order
  against the warmed cache — all on the calling thread.  A request
  makes all of its cache lookups in one walk and its ledger entries in
  one timed update;
* :meth:`extend` ingests a new frame batch and invalidates the cache
  *incrementally* — series keep the prefix the extension provably left
  unchanged and only tails are recomputed, via the providers'
  ``count_series_many(filters, start=len(prefix))``.

Thread-safety contract: ``execute`` / ``execute_many`` /
``execute_batch`` may be called from any number of threads, including
concurrently with one ``extend`` (extensions themselves are serialized
by an internal lock).  Every query evaluates against an immutable state
snapshot captured at entry, so its answer is consistent with either the
pre- or post-extension sequence — never a mixture — and results are
bit-identical to a serial, uncached :class:`QueryEngine` on the same
snapshot.  Cumulative cache statistics are monotone.

A call runs start to finish on the thread that sent it and never yields:
the request's one scheduling point belongs to the layer clients call,
:class:`~repro.corpus.CorpusQueryService`, which answers every shard
through this service.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.pipeline import MASTPipeline
from repro.core.sampler import AdaptiveSamplingSession, SamplingResult
from repro.data.frame import PointCloudFrame
from repro.data.sequence import FrameSequence
from repro.models.base import DetectionModel
from repro.query.ast import AggregateResult, CompoundRetrievalQuery, RetrievalResult
from repro.query.engine import evaluate_query
from repro.query.predicates import ObjectFilter
from repro.serving.batching import BatchPlan, Query, base_kind, plan_batch, router
from repro.serving.cache import CacheKey, CacheStats, CountSeriesCache
from repro.utils.timing import STAGE_QUERY, CostLedger

if TYPE_CHECKING:
    from repro.corpus.allocator import BudgetAllocator

__all__ = ["QueryService"]


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
class _ServiceState:
    """Immutable snapshot of the pipeline's queryable state.

    Queries capture one snapshot at entry and never touch mutable
    service attributes afterwards, which is what makes answers during a
    concurrent ``extend`` consistent (old epoch or new epoch, never
    torn).
    """

    generation: int
    n_frames: int
    providers: dict[str, Any]

    def provider(self, kind: str) -> Any:
        return self.providers[kind]


class QueryService:
    """Serve retrieval / aggregate workloads with shared caching.

    The service owns no threads: queries evaluate on their caller's.
    ``_state`` needs no lock — it is an immutable snapshot swapped
    atomically under ``_extend_lock``.
    """

    def __init__(
        self,
        pipeline: MASTPipeline,
        *,
        max_cache_entries: int = 512,
    ) -> None:
        providers = pipeline.providers  # raises unless the pipeline is fit
        self._pipeline = pipeline
        self.cache = CountSeriesCache(max_entries=max_cache_entries)
        self._extend_lock = threading.Lock()
        self._route = router(pipeline.config)
        self._state = _ServiceState(
            generation=self.cache.generation,
            n_frames=providers["linear"].n_frames,
            providers=providers,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pipeline(self) -> MASTPipeline:
        return self._pipeline

    @property
    def ledger(self) -> CostLedger:
        return self._pipeline.ledger

    @property
    def n_frames(self) -> int:
        return self._state.n_frames

    @property
    def generation(self) -> int:
        """Extension epoch (starts at 0, +1 per :meth:`extend`)."""
        return self._state.generation

    def cache_stats(self) -> CacheStats:
        """Snapshot of the shared count-series cache counters."""
        return self.cache.stats()

    # ------------------------------------------------------------------
    # Series resolution
    # ------------------------------------------------------------------
    def _complete(
        self,
        state: _ServiceState,
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
                start = len(prefix) if prefix is not None and len(prefix) < state.n_frames else 0
                by_start.setdefault(start, []).append((position, prefix))
        if not by_start:
            return series
        provider = state.provider(kind)
        for start, missing in by_start.items():
            tails = provider.count_series_many([filters[p] for p, _ in missing], start=start)
            for position, prefix in missing:
                tail = tails[filters[position]]
                series[position] = np.concatenate([prefix, tail]) if start else tail
        completed = sorted(p for start, missing in by_start.items() if start for p, _ in missing)
        for position in completed + [p for p, _ in by_start.get(0, [])]:
            series[position] = self.cache.put(
                (kind, filters[position]), series[position], state.generation
            )
        return series

    def _walk(
        self, state: _ServiceState, probes: list[tuple[CacheKey, Any]], groups: list[int]
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
                probes, state.generation, groups=groups, start=len(found)
            )
            found += walked
            if not missed:
                continue
            fresh += missed
            completed = self._complete(
                state,
                probes[missed[0]][0][0],
                [probes[position][0][1] for position in missed],
                [None] * len(missed),
                [found[position][1] for position in missed],
            )
            for position, series in zip(missed, completed):
                found[position] = (series, None, None)
        return found, fresh

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: str | Query) -> RetrievalResult | AggregateResult:
        """Answer one query (object or query-language text)."""
        return self._answer(self._state, plan_batch([query], self._route, warm=False))[0]

    def execute_many(
        self, queries: Iterable[str | Query]
    ) -> list[RetrievalResult | AggregateResult]:
        """Answer a list of queries serially, in order."""
        state = self._state
        return [
            self._answer(state, plan_batch([query], self._route, warm=False))[0]
            for query in queries
        ]

    def execute_batch(
        self, queries: Iterable[str | Query]
    ) -> list[RetrievalResult | AggregateResult]:
        """Answer a workload with shared series computation.

        The workload is parsed and routed up front; each distinct
        ``(provider kind, object filter)`` series is looked up once and,
        if missing, computed (one batched pass per provider kind), then
        the queries are answered in submission order against the warmed
        cache — on the calling thread throughout.  Every query is charged
        to the ledger exactly as a serial :meth:`execute` would charge it.
        """
        return self._answer(self._state, plan_batch(queries, self._route))

    def _answer(
        self, state: _ServiceState, plan: BatchPlan
    ) -> list[RetrievalResult | AggregateResult]:
        """Answer ``plan``'s queries in order, one request.

        The cache sees the probes of :func:`plan_batch`, in its order, in
        one critical section unless something misses; the ledger gets
        one measurement and one :meth:`CostLedger.settle`.  A
        single-filter answer is memoized only if
        its series was cached before this request (none of its probes
        missed), so an answer nobody asks again costs no memo; a repeat
        inside the request shares the answer either way.
        """
        queries, kinds, probes, groups = plan
        if not queries:
            return []
        n_frames = state.n_frames
        costs = {
            kind: state.provider(base_kind(kind)).simulated_query_cost_per_frame * n_frames
            for kind in set(kinds)
        }
        ledger = self.ledger
        with ledger.measure(STAGE_QUERY, count=len(queries)):
            found, fresh = self._walk(state, probes, groups)
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
                    key = probes[position - 1][0]
                    if key not in fresh_keys:
                        self.cache.remember(key, state.generation, query, answer, nbytes)
                answers.append(answer)
        ledger.settle(
            STAGE_QUERY,
            [costs[kind] for kind in kinds],
            hits=len(probes) - len(fresh),
            misses=len(fresh),
        )
        return answers

    def close(self) -> None:
        """No-op (the service owns no threads); idempotent, queries stay valid."""

    def __enter__(self) -> QueryService:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Extension
    # ------------------------------------------------------------------
    def extend(
        self,
        new_frames: list[PointCloudFrame],
        *,
        model: DetectionModel | None = None,
        extended: FrameSequence | None = None,
        allocator: BudgetAllocator | None = None,
    ) -> QueryService:
        """Ingest a frame batch; invalidate only changed series tails.

        Runs :meth:`MASTPipeline.extend`, then truncates cached series
        to the prefix the extension left unchanged; each is completed,
        tail only, by the next lookup that asks for it.  Queries already
        in flight keep answering on the pre-extension snapshot.
        ``extended`` and ``allocator`` pass through to the pipeline.
        """
        with self._extend_lock:
            self._pipeline.extend(new_frames, model=model, extended=extended, allocator=allocator)  # repro: noqa[RPR010] deliberate: _extend_lock serializes writers only; readers answer from the immutable pre-extension snapshot while the pipeline runs
            boundary = self._pipeline.last_extend_boundary
            assert boundary is not None
            providers = self._pipeline.providers
            generation = self._state.generation + 1
            self.cache.invalidate_tail(boundary, generation)
            self._state = _ServiceState(
                generation=generation,
                n_frames=providers["linear"].n_frames,
                providers=providers,
            )
        return self

    def adopt(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        sampling: SamplingResult,
        *,
        session: AdaptiveSamplingSession | None = None,
    ) -> QueryService:
        """Install a re-planned sampling run; full cache invalidation.

        The streaming layer's drain re-plans the corpus budget from
        scratch over the final sequences and adopts each shard's fresh
        :class:`~repro.core.sampler.SamplingResult` (and the ``session``
        that produced it) here.  Unlike :meth:`extend`, a re-plan may
        move sampled frames *anywhere* in the sequence, so no cached
        prefix is provably reusable: the cache bumps a generation
        wholesale and the immutable state snapshot is swapped under the
        same lock that serializes extensions.  Queries already in flight
        keep answering on the pre-adoption snapshot.
        """
        with self._extend_lock:
            self._pipeline.fit_from_sampling(sequence, model, sampling, session=session)
            providers = self._pipeline.providers
            generation = self.cache.bump()
            self._state = _ServiceState(
                generation=generation,
                n_frames=providers["linear"].n_frames,
                providers=providers,
            )
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryService(frames={self.n_frames}, "
            f"generation={self.generation}, {self.cache.stats().describe()})"
        )
