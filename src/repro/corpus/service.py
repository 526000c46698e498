"""Sharded query serving over a fitted :class:`CorpusPipeline`.

:class:`CorpusQueryService` fronts one :class:`~repro.serving.QueryService`
per sequence shard.  Scoped queries route to their shard's service;
unscoped queries fan out over every shard and merge exactly
(:mod:`repro.corpus.results`).  Each shard keeps its own
:class:`~repro.serving.cache.CountSeriesCache` — count series are
per-sequence data, so sharding the cache removes all cross-sequence
contention — and the corpus exposes rollups of the per-shard
:class:`~repro.serving.cache.CacheStats` and cost ledgers.

:meth:`execute_batch` preserves submission order and keeps the serving
layer's batching wins: the (possibly mixed scoped/fan-out) workload is
regrouped into one per-shard sub-batch, so each shard still computes
every distinct count series exactly once.
"""

from __future__ import annotations

import shutil
import tempfile
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from repro.serving.dispatcher import Dispatcher
    from repro.serving.mp import ProcessShardPool
    from repro.serving.protocol import ShardWarmup, StatsResponse

from repro.corpus.allocator import AllocationReport
from repro.corpus.pipeline import CorpusPipeline, CorpusResult, ShardResult
from repro.corpus.results import merge_aggregates, merge_retrievals
from repro.data.frame import PointCloudFrame
from repro.inference.store import DetectionStore, persist_sampled_detections
from repro.models.base import DetectionModel
from repro.query.ast import (
    AggregateQuery,
    AggregateResult,
    CompoundRetrievalQuery,
    RetrievalQuery,
    ScopedQuery,
)
from repro.serving.cache import CacheStats
from repro.serving.service import QueryService, enter_request, leave_request
from repro.utils.validation import require

__all__ = ["CorpusQueryService"]

#: Serving backends :class:`CorpusQueryService` supports.
BACKENDS = ("thread", "process")

#: Inputs :meth:`CorpusQueryService.execute` accepts.
CorpusQuery = Union[
    str, ScopedQuery, RetrievalQuery, CompoundRetrievalQuery, AggregateQuery
]


class CorpusQueryService:
    """Route scoped workloads to per-shard services; merge fan-outs."""

    def __init__(
        self,
        corpus: CorpusPipeline,
        *,
        max_cache_entries: int = 512,
        backend: str = "thread",
        workers: int | None = None,
        store_dir: str | Path | None = None,
        max_inflight: int = 1024,
        max_batch: int = 128,
    ) -> None:
        require(
            backend in BACKENDS,
            f"unknown backend {backend!r}; choose from {BACKENDS}",
        )
        self._corpus = corpus
        self._max_cache_entries = int(max_cache_entries)
        self._backend = backend
        self._services = {
            name: QueryService(shard, max_cache_entries=max_cache_entries)
            for name, shard in corpus.shards.items()
        }
        self._pool: ProcessShardPool | None = None
        self._dispatcher: Dispatcher | None = None
        self._owns_store_dir = False
        self._store_dir: Path | None = None
        self._patched_store: DetectionStore | None = None
        if backend == "process":
            self._start_process_backend(
                workers, store_dir, max_inflight, max_batch
            )

    def _start_process_backend(
        self,
        workers: int | None,
        store_dir: str | Path | None,
        max_inflight: int,
        max_batch: int,
    ) -> None:
        """Export shard detections, spawn workers, stand up the dispatcher.

        The parent stays authoritative: its per-shard services keep
        billing extensions and re-plans exactly as the thread backend
        would, while queries route to the worker fleet.  The shared
        detection-store directory is what makes worker warm-up (and
        post-extension tail detection) cost disk reads, not model
        invocations.
        """
        from repro.serving.dispatcher import Dispatcher
        from repro.serving.mp import ProcessShardPool, WorkerClient
        from repro.serving.protocol import WorkerInit, assign_shards

        corpus = self._corpus
        names = self.names
        n_workers = int(workers) if workers is not None else len(names)
        require(n_workers >= 1, f"workers must be >= 1, got {n_workers}")
        if store_dir is None:
            self._store_dir = Path(
                tempfile.mkdtemp(prefix="repro-serve-store-")
            )
            self._owns_store_dir = True
        else:
            self._store_dir = Path(store_dir)
        # Route every future parent-side detection (extend tails,
        # re-plans) through the shared npz directory so workers resolve
        # the same frames as disk hits instead of re-billing them.
        engine_store = corpus.engine.store
        if engine_store is not None and engine_store.persist_dir is None:
            engine_store.persist_dir = self._store_dir
            self._store_dir.mkdir(parents=True, exist_ok=True)
            self._patched_store = engine_store
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
        self._dispatcher = Dispatcher(
            self._pool, max_inflight=max_inflight, max_batch=max_batch
        )

    @property
    def backend(self) -> str:
        """Active serving backend (``"thread"`` or ``"process"``)."""
        return self._backend

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
        require(
            name in self._services,
            f"unknown sequence {name!r}; corpus has {sorted(self._services)}",
        )
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
    def _check_scope(self, scoped: ScopedQuery) -> ScopedQuery:
        if scoped.sequence is not None:
            require(
                scoped.sequence in self._services,
                f"unknown sequence {scoped.sequence!r}; "
                f"corpus has {sorted(self._services)}",
            )
        return scoped

    def execute(self, query: CorpusQuery) -> CorpusResult:
        """Answer one (possibly scoped) query through the shard caches."""
        depth = enter_request()
        try:
            scoped = CorpusPipeline._coerce(query)
            if self._dispatcher is not None:
                return self.dispatcher.execute(self._check_scope(scoped))  # type: ignore[no-any-return]
            if scoped.sequence is not None:
                return self.service(scoped.sequence).execute(scoped.query)
            per_shard = {
                name: self._services[name].execute(scoped.query)
                for name in self.names
            }
            return CorpusPipeline._merge(scoped.query, per_shard)
        finally:
            leave_request(depth)

    def execute_many(self, queries: Iterable[CorpusQuery]) -> list[CorpusResult]:
        """Answer a list of queries serially, in order."""
        depth = enter_request()
        try:
            return [self.execute(q) for q in queries]
        finally:
            leave_request(depth)

    def execute_batch(self, queries: Iterable[CorpusQuery]) -> list[CorpusResult]:
        """Answer a mixed scoped/fan-out workload, batched per shard.

        Queries regroup into one sub-batch per shard (a fan-out query
        joins every shard's sub-batch), each shard answers its sub-batch
        through :meth:`QueryService.execute_batch` — distinct count
        series computed once per shard — and answers reassemble in
        submission order, fan-outs merging across shards.  The whole
        request runs on the calling thread and ends with one scheduling
        point (:func:`~repro.serving.service.leave_request`).
        """
        depth = enter_request()
        try:
            scoped_list = [CorpusPipeline._coerce(q) for q in queries]
            if self._dispatcher is not None:
                return self.dispatcher.execute_many(  # type: ignore[no-any-return]
                    [self._check_scope(s) for s in scoped_list]
                )
            return self._execute_batch_on_shards(scoped_list)
        finally:
            leave_request(depth)

    def _execute_batch_on_shards(
        self, scoped_list: list[ScopedQuery]
    ) -> list[CorpusResult]:
        names = self.names
        jobs: dict[str, list[tuple[int, object]]] = {name: [] for name in names}
        for position, scoped in enumerate(scoped_list):
            if scoped.sequence is not None:
                require(
                    scoped.sequence in jobs,
                    f"unknown sequence {scoped.sequence!r}; "
                    f"corpus has {sorted(jobs)}",
                )
                jobs[scoped.sequence].append((position, scoped.query))
            else:
                for name in names:
                    jobs[name].append((position, scoped.query))

        shard_answers: dict[int, dict[str, ShardResult]] = {
            position: {} for position in range(len(scoped_list))
        }
        for name, entries in jobs.items():
            if not entries:
                continue
            answers = self._services[name].execute_batch(
                [query for _, query in entries]
            )
            for (position, _), answer in zip(entries, answers):
                shard_answers[position][name] = answer

        results: list[CorpusResult] = []
        for position, scoped in enumerate(scoped_list):
            per_shard = shard_answers[position]
            if scoped.sequence is not None:
                results.append(per_shard[scoped.sequence])
            elif isinstance(scoped.query, AggregateQuery):
                results.append(
                    merge_aggregates(
                        scoped.query,
                        {name: per_shard[name] for name in names},  # type: ignore[misc]
                    )
                )
            else:
                results.append(
                    merge_retrievals(
                        scoped.query,
                        {name: per_shard[name] for name in names},  # type: ignore[misc]
                    )
                )
        return results

    # ------------------------------------------------------------------
    # Extension / re-planning
    # ------------------------------------------------------------------
    def extend(
        self,
        name: str,
        new_frames: list[PointCloudFrame],
        *,
        model: DetectionModel | None = None,
    ) -> CorpusQueryService:
        """Ingest a frame batch into one shard (incremental invalidation).

        The catalog entry grows with the shard or not at all: it takes
        the frames only once the shard has ingested them, so a detector
        fault mid-extend leaves both at their old length and a later
        :meth:`replan` plans over exactly the frames the shard holds.

        With the process backend the parent's extend stays authoritative
        (the model is billed here, once, and the tail detections land in
        the shared npz store), then a versioned
        :class:`~repro.serving.protocol.ExtendRequest` broadcasts to
        every replica; this method returns only after all replicas ack,
        so subsequent queries answer from the new epoch.
        """
        catalog = self._corpus.catalog
        extended = catalog.sequence(name).extended(new_frames)
        self.service(name).extend(new_frames, model=model, extended=extended)
        catalog.extend_sequence(name, new_frames)
        if self._pool is not None:
            from repro.serving.protocol import materialize_frames

            assert self._store_dir is not None
            shard = self._corpus.shards[name]
            sampling = shard.sampling_result
            persist_sampled_detections(
                self._store_dir,
                name,
                list(shard.sequence),
                sampling.detections,
                shard.model,
            )
            self.pool.extend(name, materialize_frames(new_frames))
        return self

    def replan(self, model: DetectionModel) -> AllocationReport:
        """Re-plan the corpus budget; every shard adopts its new sampling.

        Runs :meth:`CorpusPipeline.plan` over the current (grown)
        catalog, then swaps each shard's service onto its fresh
        :class:`~repro.core.sampler.SamplingResult` via
        :meth:`QueryService.adopt` — an atomic per-shard epoch bump, so
        concurrent readers of any one shard see either the old or the
        new plan, never a mixture.  Sequences registered since the last
        plan gain a service.
        """
        corpus = self._corpus
        samplings, allocation = corpus.plan(model)
        for name, sampling in samplings.items():
            shard = corpus._shard_for(name, sampling)
            if name not in self._services:
                shard.fit_from_sampling(
                    corpus.catalog.sequence(name), model, sampling
                )
                self._services[name] = QueryService(
                    shard, max_cache_entries=self._max_cache_entries
                )
            else:
                self._services[name].adopt(
                    corpus.catalog.sequence(name), model, sampling
                )
        corpus.allocation = allocation
        if self._pool is not None:
            from repro.serving.mp import ProcessShardPool

            pool = self.pool
            for name, sampling in samplings.items():
                warmup = None
                if name not in pool.versions:
                    warmup = ProcessShardPool.make_warmup(
                        name, corpus.catalog.sequence(name), sampling
                    )
                pool.adopt(name, sampling, warmup)
        return allocation

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the process tier, if any (idempotent).

        With the process backend this stops the dispatcher loop, shuts
        down the worker fleet, and removes the temporary store directory
        when this service created it; the thread backend owns nothing
        to release.
        """
        if self._dispatcher is not None:
            self._dispatcher.close()
            self._dispatcher = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._patched_store is not None:
            self._patched_store.persist_dir = None
            self._patched_store = None
        if self._owns_store_dir and self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._owns_store_dir = False

    def __enter__(self) -> CorpusQueryService:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CorpusQueryService(sequences={list(self.names)}, "
            f"{self.cache_stats().describe()})"
        )
