"""Async front end over the process shard pool.

The :class:`Dispatcher` runs one asyncio event loop in a daemon thread
and gives synchronous callers (`CorpusQueryService`, benchmark client
threads) a thread-safe facade.  Three serving behaviors live here:

* **Admission control** — at most ``max_inflight`` computations may be
  outstanding across the fleet; a request that would exceed the bound is
  shed immediately with :class:`Overloaded` (an explicit response, never
  an unbounded queue).
* **Request coalescing** — identical in-flight queries, keyed by
  ``(shard, version, need-counts, canonical query text)``, share one
  underlying computation; every caller gets the same answer object.
  Fan-out queries coalesce at two levels: the whole query (shard gather
  + merge shared, keyed by the corpus version vector) and each shard
  sub-query, so a hot ``IN ALL SEQUENCES`` aggregate shares work with
  concurrent copies of itself and with other fan-outs touching the same
  shards.  Coalesced joiners bypass admission — they add no computation.
* **Micro-batching** — each worker has a drain task that ships every
  currently-queued entry for that worker as one ``ExecuteRequest``
  while the previous batch is in flight, amortizing pickle + pipe
  round-trips under load without any timer (and therefore without the
  wall clock, per project lint rule RPR002).

Versioning: the pool bumps a shard's version after adopt acks;
requests admitted under the old version finish against whichever epoch
their worker held when the batch drained — within the bounded-staleness
window PR 5 defines — while new arrivals key their coalescing entries
under the new version and never reuse stale shared answers.
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Sequence
from typing import Any

from repro.corpus.results import merge
from repro.query.ast import AggregateQuery, ScopedQuery
from repro.serving.batching import Query
from repro.serving.mp import ProcessShardPool
from repro.serving.protocol import ExecuteRequest, ExecuteResponse, WireResult

__all__ = ["Dispatcher", "Overloaded"]


class Overloaded(RuntimeError):
    """Explicit shed-on-overload response: too many requests in flight."""

    def __init__(self, inflight: int, max_inflight: int) -> None:
        super().__init__(
            f"serving tier overloaded: {inflight} computations in flight "
            f"(limit {max_inflight}); retry later"
        )
        self.inflight = inflight
        self.max_inflight = max_inflight


class _Entry:
    """One coalesced computation bound for one worker queue."""

    __slots__ = ("shard", "query", "need_counts", "future")

    def __init__(
        self,
        shard: str,
        query: Query,
        need_counts: bool,
        future: asyncio.Future[WireResult],
    ) -> None:
        self.shard = shard
        self.query = query
        self.need_counts = need_counts
        self.future = future


class Dispatcher:
    """Coalescing, admission-controlled router over a worker pool."""

    def __init__(
        self,
        pool: ProcessShardPool,
        *,
        max_inflight: int = 1024,
        max_batch: int = 128,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._pool = pool
        self._max_inflight = int(max_inflight)
        self._max_batch = int(max_batch)
        self._inflight = 0
        self._shed = 0
        self._coalesced = 0
        self._dispatched = 0
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-dispatch", daemon=True
        )
        self._started = threading.Event()
        self._thread.start()
        self._started.wait()
        # Loop-confined state (no locks needed: every mutation happens
        # on the dispatcher loop's thread).
        self._pending: dict[
            tuple[str, int, bool, str], asyncio.Future[WireResult]
        ]
        self._fanout_pending: dict[
            tuple[str, tuple[int, ...], str, str], asyncio.Task[Any]
        ]
        self._queues: dict[int, asyncio.Queue[_Entry]]
        self._drainers: list[asyncio.Task[None]]
        future = asyncio.run_coroutine_threadsafe(self._setup(), self._loop)
        future.result()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._started.set()
        self._loop.run_forever()

    async def _setup(self) -> None:
        self._pending = {}
        self._fanout_pending = {}
        self._queues = {
            worker_id: asyncio.Queue()
            for worker_id in range(len(self._pool.workers))
        }
        loop = asyncio.get_running_loop()
        for client in self._pool.workers:
            # Demux worker replies on this loop instead of per-worker
            # reader threads: one less GIL handoff per round-trip, which
            # dominates warm-cache latency on a single-CPU host.
            client.attach_loop(loop)
        self._drainers = [
            loop.create_task(self._drain(worker_id))
            for worker_id in self._queues
        ]

    # ------------------------------------------------------------------
    # Worker drain tasks (micro-batching)
    # ------------------------------------------------------------------
    async def _drain(self, worker_id: int) -> None:
        queue = self._queues[worker_id]
        client = self._pool.worker(worker_id)
        loop = asyncio.get_running_loop()
        while True:
            entries = [await queue.get()]
            while len(entries) < self._max_batch:
                try:
                    entries.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            by_shard: dict[str, list[_Entry]] = {}
            for entry in entries:
                by_shard.setdefault(entry.shard, []).append(entry)
            for shard, group in by_shard.items():
                request = ExecuteRequest(
                    request_id=self._pool.next_request_id(),
                    shard=shard,
                    entries=tuple(
                        (slot, entry.query) for slot, entry in enumerate(group)
                    ),
                    need_counts=frozenset(
                        slot
                        for slot, entry in enumerate(group)
                        if entry.need_counts
                    ),
                )
                self._dispatched += 1
                try:
                    response = await asyncio.wrap_future(
                        client.request(request), loop=loop  # repro: noqa[RPR011] bounded micro-batch frame onto a drained worker pipe; wrap_future then yields the loop until the worker answers
                    )
                except Exception as exc:
                    self._settle_error(group, exc)
                    continue
                assert isinstance(response, ExecuteResponse)
                if response.error is not None:
                    self._settle_error(
                        group, RuntimeError(response.error)
                    )
                    continue
                for entry, result in zip(group, response.results):
                    if not entry.future.done():
                        entry.future.set_result(result)
                    self._inflight -= 1

    def _settle_error(self, group: list[_Entry], exc: BaseException) -> None:
        for entry in group:
            if not entry.future.done():
                entry.future.set_exception(exc)
            self._inflight -= 1

    # ------------------------------------------------------------------
    # Submission (loop thread only)
    # ------------------------------------------------------------------
    def _submit_shard(
        self, shard: str, query: Query, *, need_counts: bool
    ) -> asyncio.Future[WireResult]:
        """Coalesce-or-enqueue one shard-bound computation."""
        version = self._pool.versions[shard]
        # The need-counts flag is part of the identity: a joiner must
        # receive exactly the answer shape it asked for (scoped answers
        # travel value-only; fan-out sub-answers keep their series for
        # the exact Med/Avg merge).  Keying the two shapes separately
        # still lets N identical fan-out sub-queries share one
        # computation, which is where coalescing pays most.
        key = (shard, version, need_counts, query.describe())
        pending = self._pending.get(key)
        if pending is not None:
            self._coalesced += 1
            return pending
        if self._inflight >= self._max_inflight:
            self._shed += 1
            raise Overloaded(self._inflight, self._max_inflight)
        self._inflight += 1
        future: asyncio.Future[WireResult] = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[key] = future
        future.add_done_callback(
            lambda _, key=key, f=future: (
                self._pending.pop(key, None)
                if self._pending.get(key) is f
                else None
            )
        )
        worker_id = self._pool.pick_replica(shard)
        self._queues[worker_id].put_nowait(
            _Entry(shard, query, need_counts, future)
        )
        return future

    async def _fan_out(self, query: Query) -> Any:
        need_counts = isinstance(query, AggregateQuery)
        names = self._pool.names
        futures = [
            asyncio.shield(
                self._submit_shard(name, query, need_counts=need_counts)
            )
            for name in names
        ]
        per_shard = dict(zip(names, await asyncio.gather(*futures)))
        return merge(query, per_shard)

    async def _answer(self, scoped: ScopedQuery) -> Any:
        if scoped.sequence is not None:
            return await asyncio.shield(
                self._submit_shard(
                    scoped.sequence, scoped.query, need_counts=False
                )
            )
        # Whole-fan-out coalescing: identical in-flight corpus queries
        # share the shard gather *and* the merge, keyed by the full
        # version vector so any shard's invalidation retires the entry.
        versions = tuple(
            self._pool.versions[name] for name in self._pool.names
        )
        key = ("*", versions, type(scoped.query).__name__, scoped.query.describe())
        task = self._fanout_pending.get(key)
        if task is None:
            task = asyncio.get_running_loop().create_task(
                self._fan_out(scoped.query)
            )
            self._fanout_pending[key] = task
            task.add_done_callback(
                lambda _, key=key, t=task: (
                    self._fanout_pending.pop(key, None)
                    if self._fanout_pending.get(key) is t
                    else None
                )
            )
        else:
            self._coalesced += 1
        return await asyncio.shield(task)

    async def _answer_many(self, scoped_list: Sequence[ScopedQuery]) -> list[Any]:
        return list(
            await asyncio.gather(*(self._answer(s) for s in scoped_list))
        )

    # ------------------------------------------------------------------
    # Synchronous facade
    # ------------------------------------------------------------------
    def execute(self, scoped: ScopedQuery) -> Any:
        """Answer one scoped/fan-out query (blocking, thread-safe)."""
        return asyncio.run_coroutine_threadsafe(
            self._answer(scoped), self._loop
        ).result()

    def execute_many(self, scoped_list: Sequence[ScopedQuery]) -> list[Any]:
        """Answer a workload concurrently; results in submission order.

        Duplicate queries inside one call collapse before they reach the
        event loop (coalescing's cheapest tier: no coroutine, no future,
        no loop handoff for the copies) — under a zipf-shaped workload
        most of a wave is duplicates, so this is the difference between
        the loop thread scaling with *unique* rather than *submitted*
        queries.
        """
        unique: list[ScopedQuery] = []
        slots: list[int] = []
        index: dict[tuple[str | None, str, str], int] = {}
        for scoped in scoped_list:
            key = (
                scoped.sequence,
                type(scoped.query).__name__,
                scoped.query.describe(),
            )
            slot = index.get(key)
            if slot is None:
                slot = index[key] = len(unique)
                unique.append(scoped)
            slots.append(slot)
        answers = asyncio.run_coroutine_threadsafe(
            self._answer_many(unique), self._loop
        ).result()
        return [answers[slot] for slot in slots]

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Dispatch-side counters (coalesced / shed / dispatched batches)."""
        return {
            "coalesced": self._coalesced,
            "shed": self._shed,
            "dispatched_batches": self._dispatched,
            "inflight": self._inflight,
            "max_inflight": self._max_inflight,
        }

    async def _shutdown(self) -> None:
        for task in self._drainers:
            task.cancel()
        await asyncio.gather(*self._drainers, return_exceptions=True)
        for client in self._pool.workers:
            client.detach_loop()

    def close(self) -> None:
        """Stop the loop thread (the pool is closed by its owner)."""
        if self._loop.is_closed():
            return
        asyncio.run_coroutine_threadsafe(
            self._shutdown(), self._loop
        ).result(timeout=10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()
