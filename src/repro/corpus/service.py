"""Sharded query serving over a fitted :class:`CorpusPipeline`.

:class:`CorpusQueryService` fronts one :class:`~repro.serving.QueryService`
per sequence shard.  Scoped queries route to their shard's service;
unscoped queries fan out over every shard and merge exactly
(:mod:`repro.corpus.results`).  Each shard keeps its own
:class:`~repro.serving.cache.CountSeriesCache` — count series are
per-sequence data, so sharding the cache removes all cross-sequence
contention — and the corpus exposes rollups of the per-shard
:class:`~repro.serving.cache.CacheStats` and cost ledgers.

Every request takes one route: all scopes are checked before any shard
runs, the mixed scoped/fan-out queries regroup into one sub-batch per
shard (answered query by query, or through
:meth:`QueryService.execute_batch` so each distinct series is computed
once), and answers reassemble in submission order.

``backend="process"`` answers the same requests from a fleet of worker
processes (:mod:`repro.serving.mp`) behind an asyncio dispatcher.  That
tier serves the corpus it was started with: :meth:`extend` and
:meth:`replan` need the thread backend.

This is the layer clients call, so it owns the request's one scheduling
point: a request never blocks, and left alone CPython hands the GIL
between CPU-bound client threads only every 5 ms switch interval, so
each public ``execute*`` method ends by yielding it once.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING, Any, Union

if TYPE_CHECKING:
    from repro.serving.dispatcher import Dispatcher
    from repro.serving.mp import ProcessShardPool
    from repro.serving.protocol import ShardWarmup, StatsResponse

from repro.corpus.allocator import AllocationReport
from repro.corpus.pipeline import (
    CorpusPipeline,
    CorpusResult,
    ShardResult,
    require_sequence,
)
from repro.corpus.results import CorpusAggregateResult, merge, merge_aggregates
from repro.data.frame import PointCloudFrame
from repro.inference.store import persist_sampled_detections
from repro.models.base import DetectionModel
from repro.query.ast import (
    AggregateQuery,
    CompoundRetrievalQuery,
    RetrievalQuery,
    ScopedQuery,
)
from repro.serving.cache import CacheStats
from repro.serving.service import QueryService
from repro.utils.validation import require

__all__ = ["CorpusQueryService"]

#: Serving backends :class:`CorpusQueryService` supports.
BACKENDS = ("thread", "process")

#: Inputs :meth:`CorpusQueryService.execute` accepts.
CorpusQuery = Union[
    str, ScopedQuery, RetrievalQuery, CompoundRetrievalQuery, AggregateQuery
]


class CorpusQueryService:
    """Route scoped workloads to per-shard services; merge fan-outs.

    # guarded-by: _merge_lock: _merged
    """

    def __init__(
        self,
        corpus: CorpusPipeline,
        *,
        max_cache_entries: int = 512,
        backend: str = "thread",
        workers: int | None = None,
    ) -> None:
        require(
            backend in BACKENDS,
            f"unknown backend {backend!r}; choose from {BACKENDS}",
        )
        self._corpus = corpus
        self._max_cache_entries = int(max_cache_entries)
        self._services = {
            name: QueryService(shard, max_cache_entries=max_cache_entries)
            for name, shard in corpus.shards.items()
        }
        #: Fan-out aggregate -> ``(the shard answers it was merged from, its
        #: value)``; a query asked once is kept with no shard answers.
        self._merged: OrderedDict[AggregateQuery, tuple[tuple[ShardResult, ...], float]] = (
            OrderedDict()
        )
        self._merge_lock = threading.Lock()
        self._pool: ProcessShardPool | None = None
        self._dispatcher: Dispatcher | None = None
        self._store_dir: Path | None = None
        if backend == "process":
            self._start_process_backend(workers)

    def _start_process_backend(self, workers: int | None) -> None:
        """Export shard detections, spawn workers, stand up the dispatcher.

        The detections go to a temporary store directory the workers
        warm from, so warm-up costs disk reads, not model invocations;
        :meth:`close` removes it.
        """
        from repro.serving.dispatcher import Dispatcher
        from repro.serving.mp import ProcessShardPool, WorkerClient
        from repro.serving.protocol import WorkerInit, assign_shards

        corpus = self._corpus
        names = self.names
        n_workers = int(workers) if workers is not None else len(names)
        require(n_workers >= 1, f"workers must be >= 1, got {n_workers}")
        self._store_dir = Path(tempfile.mkdtemp(prefix="repro-serve-store-"))
        warmups: dict[str, ShardWarmup] = {}
        for name, shard in corpus.shards.items():
            sampling = shard.sampling_result
            warmup = ProcessShardPool.make_warmup(
                name, corpus.catalog.sequence(name), sampling
            )
            persist_sampled_detections(
                self._store_dir,
                name,
                warmup.frames,
                sampling.detections,
                shard.model,
            )
            warmups[name] = warmup
        model = corpus.shards[names[0]].model
        assignment = assign_shards(names, n_workers)
        clients = [
            WorkerClient(
                worker_id,
                WorkerInit(
                    worker_id=worker_id,
                    config=corpus.config,
                    model=model,
                    store_dir=str(self._store_dir),
                    shards=tuple(warmups[name] for name in owned),
                    max_cache_entries=self._max_cache_entries,
                ),
            )
            for worker_id, owned in enumerate(assignment)
        ]
        self._pool = ProcessShardPool(clients, names)
        self._dispatcher = Dispatcher(self._pool)

    @property
    def dispatcher(self) -> Dispatcher:
        """The async dispatcher (process backend only)."""
        require(
            self._dispatcher is not None,
            "dispatcher is only available with backend='process'",
        )
        assert self._dispatcher is not None
        return self._dispatcher

    @property
    def pool(self) -> ProcessShardPool:
        """The process worker pool (process backend only)."""
        require(
            self._pool is not None,
            "pool is only available with backend='process'",
        )
        assert self._pool is not None
        return self._pool

    def worker_stats(self) -> list[StatsResponse]:
        """Per-worker serving counters (process backend only)."""
        return self.pool.stats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def corpus(self) -> CorpusPipeline:
        return self._corpus

    @property
    def names(self) -> tuple[str, ...]:
        """Shard names, in catalog order."""
        return self._corpus.names

    def service(self, name: str) -> QueryService:
        """The per-shard service of one sequence."""
        require_sequence(name, self._services)
        return self._services[name]

    def cache_stats(self) -> CacheStats:
        """Corpus-wide rollup of the per-shard cache counters.

        With the process backend the rollup spans the worker fleet's
        caches (replicated shards count once per replica — replicas are
        genuinely separate caches).
        """
        total = CacheStats()
        if self._pool is not None:
            for response in self.pool.stats():
                for stats in response.shards.values():
                    total = total + stats.cache
            return total
        for service in self._services.values():
            total = total + service.cache_stats()
        return total

    def cache_stats_by_sequence(self) -> dict[str, CacheStats]:
        """Per-shard cache counters."""
        return {
            name: service.cache_stats()
            for name, service in self._services.items()
        }

    def cost_summary(self) -> dict[str, float]:
        """Stage -> seconds rolled up across every shard ledger."""
        return self._corpus.cost_summary()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: CorpusQuery) -> CorpusResult:
        """Answer one (possibly scoped) query through the shard caches."""
        try:
            return self._route([CorpusPipeline._coerce(query)], batched=False)[0]
        finally:
            time.sleep(0)

    def execute_many(self, queries: Iterable[CorpusQuery]) -> list[CorpusResult]:
        """Answer a list of queries serially, in order."""
        try:
            return self._route([CorpusPipeline._coerce(q) for q in queries], batched=False)
        finally:
            time.sleep(0)

    def execute_batch(self, queries: Iterable[CorpusQuery]) -> list[CorpusResult]:
        """Answer a mixed scoped/fan-out workload, batched per shard."""
        try:
            return self._route([CorpusPipeline._coerce(q) for q in queries], batched=True)
        finally:
            time.sleep(0)

    def _route(self, scoped_list: list[ScopedQuery], *, batched: bool) -> list[CorpusResult]:
        """The one route of a request (see the module docstring)."""
        for scoped in scoped_list:
            require_sequence(scoped.sequence, self._services)
        if self._dispatcher is not None:
            if batched:
                return self._dispatcher.execute_many(scoped_list)  # type: ignore[no-any-return]
            return [self._dispatcher.execute(scoped) for scoped in scoped_list]
        names = self.names
        jobs: dict[str, list[int]] = {name: [] for name in names}
        for position, scoped in enumerate(scoped_list):
            for name in names if scoped.sequence is None else (scoped.sequence,):
                jobs[name].append(position)
        answers: list[dict[str, ShardResult]] = [{} for _ in scoped_list]
        for name, positions in jobs.items():
            if not positions:
                continue
            service = self._services[name]
            queries = [scoped_list[position].query for position in positions]
            results = (
                service.execute_batch(queries)
                if batched
                else [service.execute(query) for query in queries]
            )
            for position, result in zip(positions, results):
                answers[position][name] = result
        return [
            per_shard[scoped.sequence]
            if scoped.sequence is not None
            else self._merge(scoped.query, per_shard)
            for scoped, per_shard in zip(scoped_list, answers)
        ]

    def _merge(
        self,
        query: RetrievalQuery | CompoundRetrievalQuery | AggregateQuery,
        per_shard: dict[str, Any],
    ) -> CorpusResult:
        """:func:`merge`, reusing a fan-out aggregate merged from these very answers.

        A memoized shard answer lives exactly as long as its series'
        cache entry, so a fan-out whose every shard answer is the object
        an earlier merge read has the same parts, and the same value.
        The memo admits a query on its second ask and keeps the
        ``max_cache_entries`` most recent; each request still gets its
        own result around its own ``per_shard`` dict.
        """
        if not isinstance(query, AggregateQuery):
            return merge(query, per_shard)
        parts = tuple(per_shard.values())
        with self._merge_lock:
            memo = self._merged.get(query)
            if memo is not None:
                self._merged.move_to_end(query)
        if memo is not None and len(memo[0]) == len(parts) and all(
            kept is part for kept, part in zip(memo[0], parts)
        ):
            return CorpusAggregateResult(query=query, value=memo[1], by_sequence=per_shard)
        merged = merge_aggregates(query, per_shard)
        with self._merge_lock:
            self._merged[query] = (parts if memo is not None else (), merged.value)
            self._merged.move_to_end(query)
            while len(self._merged) > self._max_cache_entries:
                self._merged.popitem(last=False)
        return merged

    # ------------------------------------------------------------------
    # Extension / re-planning
    # ------------------------------------------------------------------
    def extend(self, name: str, new_frames: list[PointCloudFrame]) -> CorpusQueryService:
        """Ingest a frame batch into one shard (incremental invalidation).

        The shard's live sampling session grows over the frames and
        detects only the uniform-grid points that land in them; the
        adaptive budget they accrue is the corpus allocator's to spend,
        at the next :meth:`replan`.  The grown sequence is built once:
        the catalog installs the very sequence the shard grew into, and
        only once the shard has ingested it, so a detector fault
        mid-extend leaves both at their old length.  A process-backed
        service refuses the call before anything changes.
        """
        self._require_writable("extend")
        corpus = self._corpus
        extended = corpus.catalog.sequence(name).extended(new_frames)
        self.service(name).extend(new_frames, extended=extended, allocator=corpus.allocator)
        corpus.catalog.grow_sequence(name, extended)
        return self

    def replan(self, model: DetectionModel, *, exact: bool = False) -> AllocationReport:
        """Run the corpus budget policy again; shards publish what changed.

        By default this is an online epoch (:meth:`CorpusPipeline.spend`):
        the allocator spends only the budget the live sessions accrued
        since its last run.  ``exact`` re-plans from scratch
        (:meth:`CorpusPipeline.plan`), paying only for frames no epoch
        has detected yet, so the corpus becomes bit-identical to a batch
        fit of the current catalog.

        A shard whose run changed (every shard, after an exact re-plan)
        installs it through :meth:`QueryService.adopt`, atomically for
        readers; an online epoch also re-offers its session to the next
        run (:meth:`~repro.core.sampler.AdaptiveSamplingSession.reoffer`).
        A sequence registered since the last plan gains a shard
        (:meth:`CorpusPipeline.install`) and a service.  :meth:`extend`
        and this method both move the live sessions, so call them from
        one writer thread (the streaming service calls both under its
        ingest lock).  A process-backed service refuses the call before
        anything changes.
        """
        self._require_writable("replan")
        corpus = self._corpus
        sessions, allocation = corpus.plan(model) if exact else corpus.spend(model)
        for name, session in sessions.items():
            service = self._services.get(name)
            if service is None:
                self._services[name] = QueryService(
                    corpus.install(name, model, session),
                    max_cache_entries=self._max_cache_entries,
                )
            elif exact or session.frames_sampled != len(
                service.pipeline.sampling_result.sampled_ids
            ):
                if not exact:
                    session.reoffer()
                service.adopt(
                    corpus.catalog.sequence(name), model, session.result(), session=session
                )
        corpus.allocation = allocation
        return allocation

    def _require_writable(self, call: str) -> None:
        require(
            self._pool is None,
            f"{call} needs backend='thread': the process tier serves "
            "the corpus it was started with",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the process tier, if any (idempotent).

        With the process backend this stops the dispatcher loop, shuts
        down the worker fleet, and removes the store directory the
        workers warmed from; the thread backend owns nothing to release.
        """
        if self._dispatcher is not None:
            self._dispatcher.close()
            self._dispatcher = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None

    def __enter__(self) -> CorpusQueryService:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CorpusQueryService(sequences={list(self.names)}, "
            f"{self.cache_stats().describe()})"
        )
