"""Daemon-style streaming corpus service with bounded-staleness queries.

:class:`StreamingCorpusService` turns the batch corpus stack into a
long-lived loop.  Frames arrive continuously on many catalog sequences
through a :class:`~repro.streaming.source.FrameSource`; the service

* **ingests** under an explicit bounded-staleness contract — each
  sequence buffers at most ``max_lag_frames`` arrived-but-unindexed
  frames before its buffer is flushed through the incremental
  :meth:`~repro.corpus.CorpusQueryService.extend` path: the sequence's
  live sampling session grows over the frames and detects only the
  uniform-grid points that land in them, the index extrapolates past
  the last sample, and cached series keep their unchanged prefix.
  Every answer reports the per-sequence watermark and lag it was
  served under.  An arrival whose frames do not continue
  its sequence (a duplicate, a gap, a reordering) is rejected with a
  ``ValueError`` before it touches any state, so a malformed source
  cannot poison a buffer;
* **re-plans** the corpus budget online — every ``replan_every``
  ingested frames the UCB (or uniform) allocator runs over the live
  sessions through :meth:`~repro.corpus.CorpusQueryService.replan` and
  spends only the adaptive budget accrued since the last epoch; nothing
  already sampled is re-drawn, so every frame a stream detects is
  detected once;
* **answers queries concurrently** — ``execute`` may be called from any
  number of threads while one thread pumps the source; each shard
  answers from immutable state snapshots, so readers see a coherent
  pre- or post-ingest epoch per shard, never a torn one.  A request
  yields once, inside the :class:`~repro.corpus.CorpusQueryService`
  call it makes; this layer adds no scheduling point of its own.

The headline guarantee: after :meth:`quiesce` (source drained, buffers
flushed, one exact from-scratch re-plan re-entered with every detection
already paid for), every scoped answer is bit-identical to a batch
:class:`~repro.corpus.CorpusQueryService` fit from scratch on the same
final corpus — the drained state is never an accuracy trade-off.  Live
answers before the drain come from the online plan.

Time is virtual throughout (event times come from the source), so runs
are exactly reproducible and never read the wall clock.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.core.config import MASTConfig
from repro.corpus.allocator import AllocationReport, BudgetAllocator
from repro.corpus.catalog import SequenceCatalog
from repro.corpus.pipeline import CorpusPipeline, CorpusResult, require_sequence
from repro.corpus.service import CorpusQueryService
from repro.data.frame import PointCloudFrame
from repro.inference import DetectionStore
from repro.models.base import DetectionModel
from repro.query.ast import (
    AggregateQuery,
    AggregateResult,
    CompoundRetrievalQuery,
    RetrievalQuery,
    ScopedQuery,
)
from repro.serving.cache import CacheStats
from repro.streaming.source import ArrivalEvent, FrameSource
from repro.utils.timing import STAGE_MODEL, CostLedger
from repro.utils.validation import require

__all__ = ["EpochSnapshot", "StreamingAnswer", "StreamingCorpusService"]

#: Query inputs the service accepts (scoped text or query objects).
StreamQuery = Union[
    str, ScopedQuery, RetrievalQuery, CompoundRetrievalQuery, AggregateQuery
]


def drift_zscore(history: list[float], value: float) -> float:
    """Z-score of ``value`` against the ``history`` of earlier values.

    Returns ``nan`` with fewer than 2 history points (not enough data to
    call anything drift), an infinity signed like the change when a
    perfectly constant history changes at all, and the plain
    ``(value - mean) / std`` otherwise.
    """
    if len(history) < 2:
        return float("nan")
    spread = float(np.std(history))
    center = float(np.mean(history))
    if spread > 1e-12:
        return (value - center) / spread
    return 0.0 if value == center else math.copysign(math.inf, value - center)


@dataclass(frozen=True)
class StreamingAnswer:
    """A query answer plus the staleness contract it was served under.

    ``staleness`` maps each in-scope sequence to its lag in frames
    (arrived but not yet indexed) at the published state the answer
    observed; the contract guarantees every value is at most
    ``max_lag_frames``.  The snapshot is taken *before* execution, so
    the underlying indexes are at least as fresh as reported.
    """

    result: CorpusResult
    watermarks: dict[str, int]
    arrived: dict[str, int]
    staleness: dict[str, int]
    max_lag_frames: int
    virtual_time: float

    @property
    def max_staleness(self) -> int:
        """The worst per-sequence lag this answer was served under."""
        return max(self.staleness.values()) if self.staleness else 0


@dataclass(frozen=True)
class EpochSnapshot:
    """Standing-query state captured at one re-planning epoch."""

    epoch: int
    virtual_time: float
    total_frames: int
    #: Query text -> corpus-wide answer (cardinality for retrievals).
    answers: dict[str, float]
    #: Query text -> drift z-score against earlier epochs' answers.
    drift: dict[str, float]
    allocation: AllocationReport


class StreamingCorpusService:
    """Continuous ingest + online re-planning + concurrent queries.

    One thread (the owner of :meth:`pump` / :meth:`quiesce`) drives
    ingest; any number of threads may call :meth:`execute` /
    :meth:`execute_batch` concurrently.  Ingest-side state and the
    published arrival/watermark counters live under separate locks so
    readers never wait on a deep-model flush:

    # guarded-by: _ingest_lock: _pending, _frames_since_replan, _standing, _epoch_history, _epoch_snapshots
    # guarded-by: _state_lock: _arrived, _watermark, _clock, _events_processed, _epochs, _detections_by_origin

    Parameters
    ----------
    source:
        Where frames come from; its per-sequence initial prefixes seed
        the catalog (each needs >= 2 frames for a well-formed index).
    model:
        The deep detector billed for every sampled frame.
    policy, round_size:
        Budget allocation across sequences, as in
        :class:`~repro.corpus.CorpusPipeline`.
    max_lag_frames:
        Bounded-staleness knob: a sequence buffers at most this many
        arrived frames before a flush; 0 indexes every arrival
        immediately (the 1-frame-extend hot path).
    replan_every:
        Re-run the allocator after this many frames have been flushed
        corpus-wide since the last plan.
    """

    def __init__(
        self,
        source: FrameSource,
        model: DetectionModel,
        config: MASTConfig | None = None,
        *,
        policy: str | BudgetAllocator = "uniform",
        round_size: int = 8,
        max_lag_frames: int = 0,
        replan_every: int = 32,
        max_cache_entries: int = 512,
    ) -> None:
        require(max_lag_frames >= 0, "max_lag_frames must be >= 0")
        require(replan_every >= 1, "replan_every must be >= 1")
        self.source = source
        self.model = model
        self.config = config or MASTConfig()
        self.max_lag_frames = int(max_lag_frames)
        self.replan_every = int(replan_every)
        self.store = DetectionStore()

        catalog = SequenceCatalog()
        for name in source.names():
            initial = source.initial_sequence(name)
            require(
                len(initial) >= 2,
                f"initial prefix of {name!r} needs >= 2 frames, "
                f"got {len(initial)}",
            )
            catalog.register_sequence(initial, dataset="stream")
        self._corpus = CorpusPipeline(
            catalog,
            self.config,
            policy=policy,
            round_size=round_size,
            detection_store=self.store,
        )
        self._corpus.fit(model)
        self._service = CorpusQueryService(
            self._corpus, max_cache_entries=max_cache_entries
        )

        self._ingest_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending: dict[str, list[PointCloudFrame]] = {
            name: [] for name in catalog.names()
        }
        self._frames_since_replan = 0
        self._epoch_history: dict[str, list[float]] = {}
        self._standing: dict[str, object] = {}
        self._epoch_snapshots: list[EpochSnapshot] = []
        self._arrived: dict[str, int] = {
            name: len(source.initial_sequence(name)) for name in catalog.names()
        }
        self._watermark: dict[str, int] = dict(self._arrived)
        self._clock = 0.0
        self._events_processed = 0
        self._epochs = 0
        #: Deep-model invocations by what asked for them; they sum to
        #: the ledger's invocation count.
        self._detections_by_origin = {
            "initial_fit": self._model_invocations(),
            "flush": 0,
            "replan": 0,
            "drain": 0,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Sequence names, in catalog order."""
        return self._corpus.names

    @property
    def allocation(self) -> AllocationReport:
        """The most recent budget plan."""
        allocation = self._corpus.allocation
        assert allocation is not None  # fit() ran in __init__
        return allocation

    @property
    def virtual_time(self) -> float:
        """Virtual time of the latest processed arrival."""
        with self._state_lock:
            return self._clock

    @property
    def events_processed(self) -> int:
        """Arrival events ingested so far."""
        with self._state_lock:
            return self._events_processed

    @property
    def epochs(self) -> int:
        """Re-planning epochs run so far (excluding the initial fit)."""
        with self._state_lock:
            return self._epochs

    def watermarks(self) -> dict[str, int]:
        """Per-sequence frames indexed and queryable (published state)."""
        with self._state_lock:
            return dict(self._watermark)

    def staleness(self) -> dict[str, int]:
        """Per-sequence lag in frames (arrived but not yet indexed)."""
        with self._state_lock:
            return {
                name: self._arrived[name] - self._watermark[name]
                for name in self._arrived
            }

    def cache_stats(self) -> CacheStats:
        """Corpus-wide rollup of the per-shard cache counters."""
        return self._service.cache_stats()

    def cost_ledger(self) -> CostLedger:
        """One merged ledger across the corpus and every shard."""
        return self._corpus.merged_ledger()

    def _model_invocations(self) -> int:
        """Deep-model invocations billed so far (``cost_ledger()``'s count)."""
        return self._corpus.ledger.invocations(STAGE_MODEL) + sum(
            self._corpus.shard(name).ledger.invocations(STAGE_MODEL)
            for name in self._corpus.names
        )

    def epoch_snapshots(self) -> list[EpochSnapshot]:
        """Standing-query snapshots, one per re-planning epoch."""
        with self._ingest_lock:
            return list(self._epoch_snapshots)

    # ------------------------------------------------------------------
    # Standing queries
    # ------------------------------------------------------------------
    def register_standing(self, query: StreamQuery) -> None:
        """Add a standing query, re-evaluated at every re-plan epoch."""
        scoped = CorpusPipeline._coerce(query)
        require(
            scoped.sequence is None,
            "standing queries are corpus-wide; drop the IN SEQUENCE scope",
        )
        text = scoped.query.describe()
        with self._ingest_lock:
            self._standing[text] = scoped.query
            self._epoch_history.setdefault(text, [])

    @property
    def standing_queries(self) -> list[str]:
        """Registered standing-query texts."""
        with self._ingest_lock:
            return list(self._standing)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def pump(self, max_events: int | None = None) -> int:
        """Ingest up to ``max_events`` arrivals (all of them when ``None``).

        Returns the number of events processed.  Safe to call from one
        thread while others query; each event appends to its sequence's
        buffer and — whenever the buffer would exceed ``max_lag_frames``
        — flushes it through the incremental extend path, then publishes
        the new arrival/watermark counters atomically, so a reader can
        never observe a lag above the bound.
        """
        processed = 0
        while max_events is None or processed < max_events:
            with self._ingest_lock:
                event = self.source.next_event()
                if event is None:
                    break
                self._ingest(event)  # repro: noqa[RPR010] single-pump design: queries never take _ingest_lock, so ingest-side blocking bounds staleness without convoying readers
            processed += 1
        return processed

    def quiesce(self) -> dict[str, object]:
        """Drain the source, flush every buffer, and re-plan exactly.

        The last epoch re-plans from scratch, paying only for frames no
        earlier epoch detected, so afterwards the corpus state is
        bit-identical to a batch fit on the final sequences (same
        policy, same seed), and every sequence's staleness is zero.
        Returns :meth:`report`.
        """
        self.pump()
        with self._ingest_lock:
            for name in self.names:
                self._flush(name)  # repro: noqa[RPR010] quiesce runs after the pump stops; holding _ingest_lock across the final flush is what makes drain atomic
            self._replan(exact=True)  # repro: noqa[RPR010] final re-plan must see the fully flushed corpus; no reader path ever takes _ingest_lock
        return self.report()

    def _ingest(self, event: ArrivalEvent) -> None:  # repro: locked[_ingest_lock]
        """Buffer one arrival; flush and re-plan as contracts require.

        An event whose frames do not continue the sequence's arrived
        frames (ids one past the last arrived id, timestamps increasing)
        is rejected before any state changes.
        """
        name = event.sequence
        require(
            name in self._pending,
            f"arrival for unknown sequence {name!r}",
        )
        pending = self._pending[name]
        last = pending[-1] if pending else self._corpus.catalog.sequence(name)[-1]
        for frame in event.frames:
            if frame.frame_id != last.frame_id + 1 or frame.timestamp <= last.timestamp:
                raise ValueError(
                    f"arrival on {name!r} rejected: expected frame {last.frame_id + 1} "
                    f"after t={last.timestamp:g}, got frame {frame.frame_id} "
                    f"at t={frame.timestamp:g}"
                )
            last = frame
        pending.extend(event.frames)
        flushed = 0
        try:
            if len(pending) > self.max_lag_frames:
                flushed = self._flush(name, publish=False)  # repro: noqa[RPR010] lag-triggered flush is the bounded-staleness contract itself; only the pump thread takes _ingest_lock
        finally:
            # Published even when the flush raised: the event's frames
            # wait in the buffer, arrived but not indexed.
            with self._state_lock:
                self._arrived[name] += len(event.frames)
                if flushed:
                    self._watermark[name] = self._arrived[name]
                self._clock = max(self._clock, event.time)
                self._events_processed += 1
        if flushed:
            self._frames_since_replan += flushed
            if self._frames_since_replan >= self.replan_every:
                self._replan()  # repro: noqa[RPR010] re-planning under _ingest_lock keeps epochs atomic w.r.t. arrivals; queries read _state_lock state only

    def _flush(self, name: str, *, publish: bool = True) -> int:  # repro: locked[_ingest_lock]
        """Extend ``name``'s shard with its buffered frames.

        The buffer is cleared only once the extend returns: a detector
        fault leaves every buffered frame for the next flush to retry.
        """
        pending = self._pending[name]
        if not pending:
            return 0
        frames = list(pending)
        before = self._model_invocations()
        try:
            self._service.extend(name, frames)  # repro: noqa[RPR010] shard extension is the flush; _ingest_lock serializes writers while readers answer from the previous snapshot
        finally:
            billed = self._model_invocations() - before
            with self._state_lock:
                self._detections_by_origin["flush"] += billed
        pending.clear()
        if publish:
            with self._state_lock:
                self._watermark[name] = self._arrived[name]
        return len(frames)

    def _replan(self, *, exact: bool = False) -> None:  # repro: locked[_ingest_lock]
        """Run one epoch of the budget plan and snapshot the standing queries.

        An epoch spends the budget accrued since the last one; ``exact``
        (the drain) re-plans from scratch instead.  A detector fault
        leaves every session, index and the epoch count as they were;
        the frames it did pay for are counted by origin.
        """
        before = self._model_invocations()
        try:
            allocation = self._service.replan(self.model, exact=exact)  # repro: noqa[RPR010] the UCB re-plan detects under _ingest_lock by design: arrivals must not move the corpus mid-plan
        finally:
            billed = self._model_invocations() - before
            with self._state_lock:
                self._detections_by_origin["drain" if exact else "replan"] += billed
        self._frames_since_replan = 0
        with self._state_lock:
            self._epochs += 1
            epoch = self._epochs
            clock = self._clock
        answers: dict[str, float] = {}
        drift: dict[str, float] = {}
        for text, query in self._standing.items():
            result = self._service.execute(query)  # repro: noqa[RPR010] standing queries are snapshotted inside the epoch on purpose; in-flight client queries never touch _ingest_lock, so the scheduling point closing CorpusQueryService.execute hands them the GIL without anyone waiting on this lock
            value = (
                float(result.value)
                if hasattr(result, "value")
                else float(result.cardinality)
            )
            answers[text] = value
            history = self._epoch_history[text]
            drift[text] = drift_zscore(history, value)
            history.append(value)
        self._epoch_snapshots.append(
            EpochSnapshot(
                epoch=epoch,
                virtual_time=clock,
                total_frames=self._corpus.catalog.total_frames(),
                answers=answers,
                drift=drift,
                allocation=allocation,
            )
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _snapshot(
        self, scoped_list: list[ScopedQuery]
    ) -> tuple[dict[str, int], dict[str, int], float]:
        """Published (watermarks, arrived, time), once every scope is known."""
        with self._state_lock:
            for scoped in scoped_list:
                require_sequence(scoped.sequence, self._arrived)
            return dict(self._watermark), dict(self._arrived), self._clock

    def _answers(
        self,
        scoped_list: list[ScopedQuery],
        results: list[CorpusResult],
        snapshot: tuple[dict[str, int], dict[str, int], float],
    ) -> list[StreamingAnswer]:
        """Each result with the staleness contract of its scope."""
        watermarks, arrived, clock = snapshot
        answers = []
        for scoped, result in zip(scoped_list, results):
            names = tuple(watermarks) if scoped.sequence is None else (scoped.sequence,)
            answers.append(
                StreamingAnswer(
                    result=result,
                    watermarks={n: watermarks[n] for n in names},
                    arrived={n: arrived[n] for n in names},
                    staleness={n: arrived[n] - watermarks[n] for n in names},
                    max_lag_frames=self.max_lag_frames,
                    virtual_time=clock,
                )
            )
        return answers

    def execute(self, query: StreamQuery) -> StreamingAnswer:
        """Answer one (possibly scoped) query against the live indexes."""
        scoped = CorpusPipeline._coerce(query)
        snapshot = self._snapshot([scoped])
        return self._answers([scoped], [self._service.execute(scoped)], snapshot)[0]

    def execute_batch(self, queries: list[StreamQuery]) -> list[StreamingAnswer]:
        """Answer a workload batched per shard, one snapshot for all."""
        scoped_list = [CorpusPipeline._coerce(q) for q in queries]
        snapshot = self._snapshot(scoped_list)
        return self._answers(scoped_list, self._service.execute_batch(scoped_list), snapshot)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict[str, object]:
        """One dict describing the run so far (JSON-serializable)."""
        with self._state_lock:
            arrived = dict(self._arrived)
            watermarks = dict(self._watermark)
            clock = self._clock
            events = self._events_processed
            epochs = self._epochs
            by_origin = dict(self._detections_by_origin)
        ledger = self.cost_ledger()
        return {
            "virtual_time": clock,
            "events_processed": events,
            "replan_epochs": epochs,
            "max_lag_frames": self.max_lag_frames,
            "arrived": arrived,
            "watermarks": watermarks,
            "staleness": {
                name: arrived[name] - watermarks[name] for name in arrived
            },
            "allocation": self.allocation.as_dict(),
            "cache": self.cache_stats().as_dict(),
            "store": self.store.stats().as_dict(),
            "model_invocations": ledger.invocations(STAGE_MODEL),
            "detections_by_origin": by_origin,
            "cost": ledger.summary(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the in-thread query service (it holds nothing to release)."""
        self._service.close()

    def __enter__(self) -> StreamingCorpusService:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingCorpusService(sequences={list(self.names)}, "
            f"events={self.events_processed}, epochs={self.epochs}, "
            f"max_lag={self.max_lag_frames})"
        )
