"""Process workers for the sharded serving tier.

Each :class:`WorkerClient` owns one long-lived ``spawn``-started worker
process holding a :class:`~repro.serving.QueryService` per assigned
shard.  Workers warm up from the :class:`~repro.inference.DetectionStore`
npz persistence the parent exports before spawning — every sampled-frame
detection resolves as a disk hit, so standing up a worker bills **zero**
model invocations (``WorkerReady`` reports the counters that prove it).

The fleet serves the corpus it was started with: no message changes a
worker's shards after warm-up, so a worker never samples, detects or
re-indexes.

:class:`ProcessShardPool` spawns the fleet, places shards with
:func:`~repro.serving.protocol.assign_shards` (replicating shards when
workers outnumber them), and exposes the parent-side control plane:
request ids, replica round-robin, fleet stats, shutdown.  The data plane
(query routing, coalescing, admission) lives in
:mod:`repro.serving.dispatcher`.
"""

from __future__ import annotations

import asyncio
import threading
import traceback
from concurrent.futures import Future
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler
from multiprocessing.context import SpawnProcess
from typing import Any

from repro.core.pipeline import MASTPipeline
from repro.core.sampler import SamplingResult
from repro.data.sequence import FrameSequence
from repro.inference.engine import InferenceEngine
from repro.inference.store import DetectionStore, load_sampled_detections
from repro.query.ast import AggregateResult
from repro.serving.protocol import (
    ExecuteRequest,
    ExecuteResponse,
    ShardStats,
    ShardWarmup,
    Shutdown,
    StatsRequest,
    StatsResponse,
    WireResult,
    WorkerInit,
    WorkerReady,
    assign_shards,
    materialize_frames,
    replicas_of,
)
from repro.serving.service import QueryService
from repro.utils.timing import STAGE_MODEL, STAGE_QUERY

__all__ = ["WorkerClient", "ProcessShardPool"]

#: Seconds a worker may take to import numpy + warm its shards.
_READY_TIMEOUT = 120.0


# ----------------------------------------------------------------------
# Worker side (runs in the child process)
# ----------------------------------------------------------------------
def _build_service(
    warmup: ShardWarmup, init: WorkerInit, engine: InferenceEngine
) -> QueryService:
    """Rebuild one shard's service from a warm-up recipe + the store."""
    sequence = FrameSequence(
        list(warmup.frames), fps=warmup.fps, name=warmup.name
    )
    assert engine.store is not None
    detections = load_sampled_detections(
        engine.store, warmup.name, warmup.frames, warmup.sampled_ids, init.model
    )
    sampling = SamplingResult(
        sequence_name=warmup.name,
        n_frames=len(sequence),
        timestamps=warmup.timestamps,
        budget=warmup.budget,
        sampled_ids=warmup.sampled_ids,
        detections=detections,
        policy_info=dict(warmup.policy_info),
    )
    pipeline = MASTPipeline(init.config, engine=engine)
    pipeline.fit_from_sampling(sequence, init.model, sampling)
    return QueryService(pipeline, max_cache_entries=init.max_cache_entries)


def _strip_counts(
    results: list[WireResult], need_counts: frozenset[int], slots: list[int]
) -> tuple[WireResult, ...]:
    """Drop diagnostic count series from answers that cross the pipe.

    Fan-out sub-answers keep their series (the parent's exact Med/Avg
    merge concatenates them); scoped answers travel value-only.
    """
    out: list[WireResult] = []
    for slot, result in zip(slots, results):
        if (
            isinstance(result, AggregateResult)
            and result.counts is not None
            and slot not in need_counts
        ):
            result = AggregateResult(query=result.query, value=result.value)
        out.append(result)
    return tuple(out)


def _handle_execute(
    services: dict[str, QueryService], message: ExecuteRequest
) -> ExecuteResponse:
    service = services[message.shard]
    slots = [slot for slot, _ in message.entries]
    queries = [query for _, query in message.entries]
    # Serial evaluation, not execute_batch: the dispatcher already
    # deduplicated identical queries (coalescing) before the batch
    # crossed the pipe, so planning the batch again would be pure
    # overhead.  The CountSeriesCache still shares series work across it.
    results = service.execute_many(queries)
    return ExecuteResponse(
        request_id=message.request_id,
        results=_strip_counts(results, message.need_counts, slots),
    )


def _worker_main(conn: Connection, init: WorkerInit) -> None:
    """Entry point of one worker process (single-threaded event loop)."""
    services: dict[str, QueryService] = {}
    try:
        store = DetectionStore(persist_dir=init.store_dir)
        engine = InferenceEngine(store=store)
        for warmup in init.shards:
            services[warmup.name] = _build_service(warmup, init, engine)
        invocations = sum(
            service.ledger.invocations(STAGE_MODEL)
            for service in services.values()
        )
        conn.send(
            WorkerReady(
                worker_id=init.worker_id,
                shards=tuple(services),
                disk_hits=store.stats().disk_hits,
                invocations=invocations,
            )
        )
    except Exception:
        conn.send(
            WorkerReady(
                worker_id=init.worker_id,
                shards=(),
                disk_hits=0,
                invocations=0,
                error=traceback.format_exc(),
            )
        )
        return
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        try:
            if isinstance(message, ExecuteRequest):
                conn.send(_handle_execute(services, message))
            elif isinstance(message, StatsRequest):
                shards = {
                    name: ShardStats(
                        cache=service.cache_stats(),
                        n_frames=service.n_frames,
                        invocations=service.ledger.invocations(STAGE_MODEL),
                        query_cache_hits=service.ledger.cache_summary()
                        .get(STAGE_QUERY, {})
                        .get("hits", 0),
                        query_cache_misses=service.ledger.cache_summary()
                        .get(STAGE_QUERY, {})
                        .get("misses", 0),
                    )
                    for name, service in services.items()
                }
                stats = store.stats()
                conn.send(
                    StatsResponse(
                        request_id=message.request_id,
                        worker_id=init.worker_id,
                        shards=shards,
                        store_hits=stats.hits,
                        store_disk_hits=stats.disk_hits,
                        store_misses=stats.misses,
                    )
                )
            elif isinstance(message, Shutdown):
                conn.send(
                    ExecuteResponse(request_id=message.request_id, results=())
                )
                break
            else:
                raise TypeError(f"unknown message {type(message).__name__}")
        except Exception:
            request_id = getattr(message, "request_id", -1)
            conn.send(
                ExecuteResponse(
                    request_id=int(request_id),
                    results=(),
                    error=traceback.format_exc(),
                )
            )
    for service in services.values():
        service.close()
    conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class WorkerClient:
    """Parent handle on one worker: pipe, response demux, pending futures.

    ``request()`` is safe from any thread (sends serialize under
    ``_send_lock``); responses resolve each pending
    :class:`~concurrent.futures.Future` by ``request_id``.  Replies are
    demultiplexed on the :class:`~repro.serving.dispatcher.Dispatcher`'s
    event loop: :meth:`attach_loop` registers the pipe fd with
    ``loop.add_reader``, which on a single-CPU host saves the GIL handoff
    a reader thread would cost per round-trip — the dominant cost of a
    warm-cache request.

    Pipe discipline (too directional for a ``# guarded-by:`` registry):
    every *send* on ``_conn`` serializes under ``_send_lock``, while
    *reads* have exactly one consumer at a time: the ready-wait in
    ``__init__``, then the attached loop's callback.

    # guarded-by: _pending_lock: _pending, _loop
    """

    def __init__(self, worker_id: int, init: WorkerInit) -> None:
        self.worker_id = worker_id
        self.shards = tuple(warmup.name for warmup in init.shards)
        context = get_context("spawn")
        parent_conn, child_conn = context.Pipe(duplex=True)
        self._conn: Connection = parent_conn
        self._process: SpawnProcess = context.Process(
            target=_worker_main,
            args=(child_conn, init),
            daemon=True,
            name=f"repro-serve-worker-{worker_id}",
        )
        self._process.start()
        child_conn.close()
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, Future[Any]] = {}
        self._closed = False
        if not self._conn.poll(_READY_TIMEOUT):
            raise TimeoutError(f"worker {worker_id} never reported ready")
        ready = self._conn.recv()
        assert isinstance(ready, WorkerReady)
        if ready.error is not None:
            self._process.join(timeout=5.0)
            raise RuntimeError(
                f"worker {worker_id} failed to warm up:\n{ready.error}"
            )
        self.ready: WorkerReady = ready
        self._loop: asyncio.AbstractEventLoop | None = None

    # ------------------------------------------------------------------
    # Response demultiplexing
    # ------------------------------------------------------------------
    def attach_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Demux responses on ``loop`` (call from the loop's thread).

        The dispatcher attaches right after pool construction, before any
        request can exist; :meth:`request` refuses to send before it.
        """
        with self._pending_lock:
            self._loop = loop
        loop.add_reader(self._conn.fileno(), self._on_readable)

    def detach_loop(self) -> None:
        """Undo :meth:`attach_loop` (call from the loop's thread)."""
        with self._pending_lock:
            loop, self._loop = self._loop, None
        if loop is not None:
            loop.remove_reader(self._conn.fileno())

    def _on_readable(self) -> None:
        """Drain every complete reply currently buffered on the pipe."""
        try:
            while self._conn.poll(0):
                self._resolve(self._conn.recv())
        except (EOFError, OSError):
            self.detach_loop()
            self._fail_pending()

    def _resolve(self, message: Any) -> None:
        request_id = int(getattr(message, "request_id", -1))
        with self._pending_lock:
            future = self._pending.pop(request_id, None)
        if future is not None:
            future.set_result(message)

    def _fail_pending(self) -> None:
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ConnectionError(
                        f"worker {self.worker_id} exited with "
                        "requests in flight"
                    )
                )

    def request(self, message: Any) -> Future[Any]:
        """Send one protocol message; future resolves with the response."""
        future: Future[Any] = Future()
        request_id = int(message.request_id)
        with self._pending_lock:
            if self._closed:
                raise ConnectionError(f"worker {self.worker_id} is closed")
            if self._loop is None:
                raise ConnectionError(
                    f"worker {self.worker_id} has no event loop attached"
                )
            self._pending[request_id] = future
        # Pickle before taking the send lock, so it covers the pipe write
        # alone and no payload's own locks are ever taken under it.
        payload = ForkingPickler.dumps(message)
        try:
            with self._send_lock:
                self._conn.send_bytes(payload)  # repro: noqa[RPR010] _send_lock exists to serialize exactly this pipe write; the frame is pre-pickled and the worker drains its end promptly
        except Exception:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise
        return future

    def close(self, request_id: int) -> None:
        """Ask the worker to exit, then reap the process (idempotent)."""
        with self._pending_lock:
            if self._closed:
                return
            self._closed = True
        try:
            with self._send_lock:
                self._conn.send(Shutdown(request_id=request_id))  # repro: noqa[RPR010] last write on the pipe; the send lock is held only for the bounded shutdown frame
        except (OSError, ValueError):
            pass
        self._process.join(timeout=10.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkerClient(id={self.worker_id}, shards={list(self.shards)})"


class ProcessShardPool:
    """A fleet of shard workers plus the parent-side control plane.

    Placement is fixed at construction: the pool serves the shards it
    was started with, so ``assignment`` and each shard's replicas never
    change.

    # guarded-by: _id_lock: _next_request_id
    """

    def __init__(self, workers: list[WorkerClient], names: tuple[str, ...]) -> None:
        if not workers:
            raise ValueError("ProcessShardPool needs at least one worker")
        self.workers = workers
        self.names = names
        self.assignment = assign_shards(names, len(workers))
        self._replicas: dict[str, tuple[int, ...]] = {
            name: replicas_of(self.assignment, name) for name in names
        }
        self._rr: dict[str, int] = {name: 0 for name in names}
        self._id_lock = threading.Lock()
        self._next_request_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def make_warmup(name: str, sequence: FrameSequence, sampling: SamplingResult) -> ShardWarmup:
        """The detection-free warm-up recipe for one fitted shard."""
        return ShardWarmup(
            name=name,
            frames=materialize_frames(list(sequence)),
            fps=sequence.fps,
            budget=sampling.budget,
            sampled_ids=sampling.sampled_ids,
            timestamps=sampling.timestamps,
            policy_info=dict(sampling.policy_info),
        )

    # ------------------------------------------------------------------
    # Request-id allocation and routing
    # ------------------------------------------------------------------
    def next_request_id(self) -> int:
        with self._id_lock:
            self._next_request_id += 1
            return self._next_request_id

    def pick_replica(self, shard: str) -> int:
        """Round-robin worker id for one query on ``shard``."""
        owners = self._replicas[shard]
        if len(owners) == 1:
            return owners[0]
        with self._id_lock:
            turn = self._rr[shard]
            self._rr[shard] = turn + 1
        return owners[turn % len(owners)]

    def worker(self, worker_id: int) -> WorkerClient:
        return self.workers[worker_id]

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def stats(self) -> list[StatsResponse]:
        """One :class:`StatsResponse` per worker, in worker-id order."""
        futures = [
            worker.request(StatsRequest(request_id=self.next_request_id()))
            for worker in self.workers
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        for worker in self.workers:
            worker.close(self.next_request_id())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessShardPool(workers={len(self.workers)}, "
            f"shards={list(self.names)})"
        )
