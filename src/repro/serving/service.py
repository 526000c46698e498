"""Batched, cached query serving on top of :class:`MASTPipeline`.

:class:`QueryService` fronts one fitted pipeline for many concurrent
clients:

* one shared, bounded :class:`~repro.serving.cache.CountSeriesCache`
  fronts the ST and linear providers and is the only place a served
  shard keeps count series (floored-linear retrieval floors the
  continuous linear series at evaluation time, so it shares entries);
* :meth:`execute_batch` parses a workload up front, computes each
  distinct count series exactly once via the providers' batched
  ``count_series_many`` kernels, then answers the queries in order
  against the warmed cache — all on the calling thread;
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

A request runs start to finish on the thread that sent it and never
blocks, so it ends with one explicit scheduling point
(:func:`leave_request`): left alone, CPython hands the GIL between
CPU-bound client threads only every 5 ms switch interval, and a sub-ms
request regularly waits out a whole slice of another client's requests.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.pipeline import MASTPipeline, predictor_kind
from repro.core.sampler import SamplingResult
from repro.data.frame import PointCloudFrame
from repro.data.sequence import FrameSequence
from repro.models.base import DetectionModel
from repro.query.ast import AggregateResult, RetrievalResult
from repro.query.engine import evaluate_query
from repro.query.parser import parse_query
from repro.query.predicates import ObjectFilter
from repro.serving.batching import Query, base_kind, plan_batch
from repro.serving.cache import CacheStats, CountSeriesCache
from repro.utils.timing import STAGE_QUERY, CostLedger

__all__ = ["QueryService", "enter_request", "leave_request"]

#: Per-thread nesting depth of public ``execute*`` calls: the service
#: layers stack (streaming -> corpus -> one ``QueryService`` per shard)
#: and only the outermost call on a thread is the client's request.
_requests = threading.local()


def enter_request() -> int:
    """Open a public ``execute*`` call; returns its nesting depth."""
    depth: int = getattr(_requests, "depth", 0)
    _requests.depth = depth + 1
    return depth


def leave_request(depth: int) -> None:
    """Close the call :func:`enter_request` opened at ``depth``.

    The outermost call (depth 0) gives up the GIL once, so concurrent
    clients take per-request turns instead of 5 ms slices — one
    scheduling point a request, not one a shard.
    """
    _requests.depth = depth
    if depth == 0:
        time.sleep(0)


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
    def _resolve(
        self, state: _ServiceState, kind: str, object_filter: ObjectFilter
    ) -> np.ndarray:
        (series,) = self._warm_kind(state, base_kind(kind), [object_filter])
        if kind == "linear_floor":
            return np.floor(series)
        return series

    def _warm_kind(
        self, state: _ServiceState, kind: str, filters: list[ObjectFilter]
    ) -> list[np.ndarray]:
        """The (unfloored) series of distinct ``filters`` under one provider kind.

        One cache lookup per filter, in order; what misses is computed by
        one ``count_series_many`` call per start frame (0, or the length
        of a prefix an ``extend`` left) and put back prefixes first.
        """
        series: list = []
        by_start: dict[int, list[tuple[int, np.ndarray | None]]] = {}
        for position, object_filter in enumerate(filters):
            cached, prefix = self.cache.lookup((kind, object_filter), state.generation)
            self.ledger.record_cache(STAGE_QUERY, hit=cached is not None)
            series.append(cached)
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
            self.cache.put((kind, filters[position]), series[position], state.generation)
        return series

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: str | Query) -> RetrievalResult | AggregateResult:
        """Answer one query (object or query-language text)."""
        depth = enter_request()
        try:
            if isinstance(query, str):
                query = parse_query(query)
            return self._execute_on(self._state, query)
        finally:
            leave_request(depth)

    def execute_many(
        self, queries: Iterable[str | Query]
    ) -> list[RetrievalResult | AggregateResult]:
        """Answer a list of queries serially, in order."""
        depth = enter_request()
        try:
            state = self._state
            return [
                self._execute_on(state, parse_query(q) if isinstance(q, str) else q)
                for q in queries
            ]
        finally:
            leave_request(depth)

    def _execute_on(
        self, state: _ServiceState, query: Query
    ) -> RetrievalResult | AggregateResult:
        kind = predictor_kind(self._pipeline.config, query)
        provider = state.provider(base_kind(kind))
        ledger = self.ledger
        with ledger.measure(STAGE_QUERY):
            ledger.charge(
                STAGE_QUERY,
                provider.simulated_query_cost_per_frame * state.n_frames,
                count=0,
            )
            return evaluate_query(
                query,
                lambda object_filter: self._resolve(state, kind, object_filter),
                state.n_frames,
            )

    def execute_batch(
        self, queries: Iterable[str | Query]
    ) -> list[RetrievalResult | AggregateResult]:
        """Answer a workload with shared series computation.

        The workload is parsed and routed up front; each distinct
        ``(provider kind, object filter)`` series is computed once and
        cached (one batched pass per provider kind), then the queries
        are answered in submission order against the warmed cache — on
        the calling thread throughout.  Every query is charged to the
        ledger exactly as a serial :meth:`execute` would charge it.
        """
        depth = enter_request()
        try:
            plan = plan_batch(queries, self._pipeline.config)
            state = self._state
            for kind, filters in plan.keys_by_kind().items():
                self._warm_kind(state, kind, filters)
            return [self._execute_on(state, p.query) for p in plan.queries]
        finally:
            leave_request(depth)

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
    ) -> QueryService:
        """Ingest a frame batch; invalidate only changed series tails.

        Runs :meth:`MASTPipeline.extend`, then truncates cached series
        to the prefix the extension left unchanged; each is completed,
        tail only, by the next lookup that asks for it.  Queries already
        in flight keep answering on the pre-extension snapshot.
        ``extended`` passes an already-grown sequence through to the
        pipeline.
        """
        with self._extend_lock:
            self._pipeline.extend(new_frames, model=model, extended=extended)  # repro: noqa[RPR010] deliberate: _extend_lock serializes writers only; readers answer from the immutable pre-extension snapshot while the pipeline runs
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
    ) -> QueryService:
        """Install a re-planned sampling run; full cache invalidation.

        The streaming layer periodically re-plans the corpus budget over
        grown sequences and adopts each shard's fresh
        :class:`~repro.core.sampler.SamplingResult` here.  Unlike
        :meth:`extend`, a re-plan may move sampled frames *anywhere* in
        the sequence, so no cached prefix is provably reusable: the
        cache bumps a generation wholesale and the immutable state
        snapshot is swapped under the same lock that serializes
        extensions.  Queries already in flight keep answering on the
        pre-adoption snapshot.
        """
        with self._extend_lock:
            self._pipeline.fit_from_sampling(sequence, model, sampling)
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
