"""Batched, cached query serving on top of :class:`MASTPipeline`.

:class:`QueryService` fronts one fitted pipeline for many concurrent
clients.  It keeps its own cache, snapshot and extend lock; its
requests are answered by the one answer path every caller shares,
:meth:`~repro.query.engine.SeriesState.answer`:

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
* :meth:`extend` (a new frame batch) and :meth:`adopt` (a re-planned
  sampling run) install through the pipeline and end in one publish
  that invalidates the cache *incrementally* — series keep the prefix
  the install provably left unchanged and only tails are recomputed,
  via the providers' ``count_series_many(filters, start=len(prefix))``.

Thread-safety contract: ``execute`` / ``execute_many`` /
``execute_batch`` may be called from any number of threads, including
concurrently with one ``extend`` (extensions themselves are serialized
by an internal lock).  Every query evaluates against an immutable state
snapshot captured at entry, so its answer is consistent with either the
pre- or post-extension sequence — never a mixture — and results are
bit-identical to :meth:`MASTPipeline.query` on the same sampling run.
Cumulative cache statistics are monotone.

A call runs start to finish on the thread that sent it and never yields:
the request's one scheduling point belongs to the layer clients call,
:class:`~repro.corpus.CorpusQueryService`, which answers every shard
through this service.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

from repro.core.pipeline import MASTPipeline
from repro.core.sampler import AdaptiveSamplingSession, SamplingResult
from repro.data.frame import PointCloudFrame
from repro.data.sequence import FrameSequence
from repro.models.base import DetectionModel
from repro.query.ast import AggregateResult, RetrievalResult
from repro.query.engine import SeriesState
from repro.serving.batching import Query, plan_batch
from repro.serving.cache import CacheStats, CountSeriesCache
from repro.utils.timing import CostLedger

if TYPE_CHECKING:
    from repro.corpus.allocator import BudgetAllocator

__all__ = ["QueryService"]


class QueryService:
    """Serve retrieval / aggregate workloads with shared caching.

    The service owns no threads: queries evaluate on their caller's.
    ``_snapshot`` needs no lock to read — it is an immutable
    ``(state, route)`` pair swapped atomically under ``_extend_lock``.
    """

    def __init__(
        self,
        pipeline: MASTPipeline,
        *,
        max_cache_entries: int = 512,
    ) -> None:
        self._pipeline = pipeline
        self.cache = CountSeriesCache(max_entries=max_cache_entries)
        self._extend_lock = threading.Lock()
        self._snapshot = self._take(self.cache.generation)

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
        return self._snapshot[0].n_frames

    @property
    def generation(self) -> int:
        """Publish epoch (starts at 0, +1 per :meth:`extend` or :meth:`adopt`)."""
        return self._snapshot[0].generation

    def cache_stats(self) -> CacheStats:
        """Snapshot of the shared count-series cache counters."""
        return self.cache.stats()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _take(self, generation: int) -> tuple[SeriesState, Callable[[Query], str]]:
        """The pipeline's current providers, over this cache at ``generation``, and route."""
        providers = self._pipeline.providers  # raises unless the pipeline is fit
        state = SeriesState(self.cache, generation, providers["linear"].n_frames, providers)
        return state, self._pipeline.route

    def _current(self) -> tuple[SeriesState, Callable[[Query], str]]:
        """The snapshot a request answers on.

        :meth:`MASTPipeline.calibrate_predictors` replaces the config
        (and may build the ST index) without an install: the cached
        series stay valid, so the snapshot is re-taken at the same
        generation with the pipeline's new route and providers.
        """
        snapshot = self._snapshot
        if snapshot[1] is not self._pipeline.route:
            with self._extend_lock:
                snapshot = self._snapshot = self._take(self._snapshot[0].generation)
        return snapshot

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: str | Query) -> RetrievalResult | AggregateResult:
        """Answer one query (object or query-language text)."""
        state, route = self._current()
        return state.answer(plan_batch([query], route, warm=False), self.ledger)[0]

    def execute_many(
        self, queries: Iterable[str | Query]
    ) -> list[RetrievalResult | AggregateResult]:
        """Answer a list of queries serially, in order."""
        state, route = self._current()
        ledger = self.ledger
        return [
            state.answer(plan_batch([query], route, warm=False), ledger)[0]
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
        state, route = self._current()
        return state.answer(plan_batch(queries, route), self.ledger)

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
        extended: FrameSequence | None = None,
        allocator: BudgetAllocator | None = None,
    ) -> QueryService:
        """Ingest a frame batch (:meth:`MASTPipeline.extend`) and publish it.

        Each cached series is completed, tail only, by the next lookup
        that asks for it; queries in flight keep answering on the old
        snapshot.  ``extended`` and ``allocator`` pass through.
        """
        with self._extend_lock:
            self._pipeline.extend(new_frames, extended=extended, allocator=allocator)  # repro: noqa[RPR010] deliberate: _extend_lock serializes writers only; readers answer from the immutable pre-extension snapshot while the pipeline runs
            self._publish()
        return self

    def adopt(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        sampling: SamplingResult,
        *,
        session: AdaptiveSamplingSession | None = None,
    ) -> QueryService:
        """Install a re-planned sampling run and publish it.

        The corpus layer's re-plans adopt each shard's new run (and the
        ``session`` that produced it) here, through
        :meth:`MASTPipeline.fit_from_sampling`.  An online epoch's run
        keeps every live sample, so cached series keep the prefix before
        its earliest new one; the drain's exact plan moves samples and
        keeps nothing.  Queries in flight keep answering on the old
        snapshot.
        """
        with self._extend_lock:
            self._pipeline.fit_from_sampling(sequence, model, sampling, session=session)
            self._publish()
        return self

    def _publish(self) -> None:  # repro: locked[_extend_lock]
        """Swap in the pipeline's new state, one generation on.

        Every write ends here: the cache keeps each series' prefix up to
        :attr:`MASTPipeline.last_extend_boundary`, then readers pick up
        the new snapshot.
        """
        boundary = self._pipeline.last_extend_boundary
        assert boundary is not None
        generation = self._snapshot[0].generation + 1
        self.cache.invalidate_tail(boundary, generation)
        self._snapshot = self._take(generation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryService(frames={self.n_frames}, "
            f"generation={self.generation}, {self.cache.stats().describe()})"
        )
