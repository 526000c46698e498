"""Wire protocol between the serving dispatcher and process workers.

Every message that crosses a worker pipe is a small frozen dataclass
defined here, so :mod:`repro.serving.mp` (process side) and
:mod:`repro.serving.dispatcher` (asyncio side) share one vocabulary and
``pickle`` does the transport.  Messages correlate by ``request_id``.
The tier serves the corpus it was started with: after the warm-up
recipe, only queries, stats requests and the shutdown cross a pipe, and
none of them changes a worker's state.

The module also owns :func:`assign_shards`, the deterministic shard ->
worker placement both sides agree on: with at least one worker per
shard, extra workers become replicas (round-robin load spreading);
with fewer workers than shards, workers own interleaved shard slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import MASTConfig
from repro.data.frame import PointCloudFrame
from repro.models.base import DetectionModel
from repro.query.ast import AggregateResult, RetrievalResult
from repro.serving.batching import Query
from repro.serving.cache import CacheStats

__all__ = [
    "ShardWarmup",
    "WorkerInit",
    "WorkerReady",
    "ExecuteRequest",
    "ExecuteResponse",
    "StatsRequest",
    "StatsResponse",
    "ShardStats",
    "Shutdown",
    "WireResult",
    "assign_shards",
    "replicas_of",
    "materialize_frames",
]

#: What a worker sends back per query slot.
WireResult = RetrievalResult | AggregateResult


def materialize_frames(
    frames: list[PointCloudFrame] | tuple[PointCloudFrame, ...],
) -> tuple[PointCloudFrame, ...]:
    """Frames with lazy point providers resolved, safe to pickle.

    Point providers are arbitrary callables, so they are materialized
    into concrete arrays before crossing the process boundary.  Frames
    without a provider (every simulated sequence) pay nothing.
    """
    from dataclasses import replace

    prepared = []
    for frame in frames:
        if frame._points_provider is not None:
            frame = replace(frame, _points_provider=None, _points_cache=frame.points)
        prepared.append(frame)
    return tuple(prepared)


@dataclass(frozen=True)
class ShardWarmup:
    """Everything a worker needs to rebuild one shard — minus detections.

    Detections are the expensive part of a shard and deliberately do
    *not* ride in this message: the worker reloads them from the
    :class:`~repro.inference.DetectionStore` npz persistence directory
    (``WorkerInit.store_dir``) that the parent exported before spawning,
    so warm-up costs disk reads instead of model invocations.
    """

    name: str
    frames: tuple[PointCloudFrame, ...]
    fps: float
    budget: int
    sampled_ids: np.ndarray
    timestamps: np.ndarray
    policy_info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class WorkerInit:
    """Constructor payload pickled into a worker at spawn."""

    worker_id: int
    config: MASTConfig
    model: DetectionModel
    store_dir: str
    shards: tuple[ShardWarmup, ...]
    max_cache_entries: int = 512


@dataclass(frozen=True)
class WorkerReady:
    """First message a worker sends: warm-up finished.

    ``disk_hits`` / ``invocations`` let the parent (and tests) verify
    the warm-up really came from the npz store: a healthy warm-up has
    ``invocations == 0``.
    """

    worker_id: int
    shards: tuple[str, ...]
    disk_hits: int
    invocations: int
    error: str | None = None


@dataclass(frozen=True)
class ExecuteRequest:
    """One micro-batch of queries for one shard.

    ``entries`` holds ``(slot, query)`` pairs; the response echoes
    results in slot order.  ``need_counts`` marks slots whose aggregate
    answer must keep its per-frame count series (fan-out sub-queries:
    the dispatcher's exact Med/Avg merge concatenates shard series);
    scoped answers drop the diagnostic array to keep pickles small.
    """

    request_id: int
    shard: str
    entries: tuple[tuple[int, Query], ...]
    need_counts: frozenset[int] = frozenset()


@dataclass(frozen=True)
class ExecuteResponse:
    request_id: int
    results: tuple[WireResult, ...]
    error: str | None = None


@dataclass(frozen=True)
class ShardStats:
    """Per-shard serving counters snapshotted inside one worker."""

    cache: CacheStats
    n_frames: int
    invocations: int
    query_cache_hits: int
    query_cache_misses: int


@dataclass(frozen=True)
class StatsRequest:
    request_id: int


@dataclass(frozen=True)
class StatsResponse:
    request_id: int
    worker_id: int
    shards: dict[str, ShardStats]
    store_hits: int
    store_disk_hits: int
    store_misses: int
    error: str | None = None


@dataclass(frozen=True)
class Shutdown:
    request_id: int


def assign_shards(names: tuple[str, ...], n_workers: int) -> list[tuple[str, ...]]:
    """Shard names owned by each of ``n_workers`` workers.

    * ``n_workers <= len(names)``: worker ``w`` owns the interleaved
      slice ``names[w::n_workers]`` (every shard owned exactly once).
    * ``n_workers > len(names)``: worker ``w`` owns the single shard
      ``names[w % len(names)]`` — shards gain replicas, and
      :func:`replicas_of` spreads query load across them.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if not names:
        raise ValueError("assign_shards needs at least one shard name")
    if n_workers <= len(names):
        return [tuple(names[w::n_workers]) for w in range(n_workers)]
    return [(names[w % len(names)],) for w in range(n_workers)]


def replicas_of(
    assignment: list[tuple[str, ...]], shard: str
) -> tuple[int, ...]:
    """Worker ids holding ``shard`` under ``assignment``, in id order."""
    owners = tuple(
        worker_id
        for worker_id, owned in enumerate(assignment)
        if shard in owned
    )
    if not owners:
        raise ValueError(f"shard {shard!r} is not assigned to any worker")
    return owners
