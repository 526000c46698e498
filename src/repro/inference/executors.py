"""Pluggable execution strategies for detection waves.

A :class:`DetectionExecutor` maps ``(model, frames)`` to the frames'
detections, in order.  Because every model is deterministic per frame,
the two strategies are interchangeable bit-for-bit; they differ only
in how the work is scheduled:

* :class:`SerialExecutor` — the in-loop behaviour the samplers had
  before this engine existed (and the default);
* :class:`ThreadExecutor` — a persistent thread pool.  Real detectors
  block on an accelerator (the paper's PV-RCNN spends 0.1 s per frame on
  a GPU), which releases the GIL, so threads overlap inference latency.

The pool is created lazily and must be released with :meth:`close` (the
:class:`~repro.inference.engine.InferenceEngine` does this when it owns
the executor).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor

from repro.data.annotations import ObjectArray
from repro.data.frame import PointCloudFrame
from repro.models.base import DetectionModel

__all__ = [
    "DetectionExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "make_executor",
    "EXECUTOR_KINDS",
]

EXECUTOR_KINDS = ("serial", "thread")


def _default_workers() -> int:
    return max(1, (os.cpu_count() or 1))


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _detect_chunk(
    model: DetectionModel, frames: list[PointCloudFrame]
) -> list[ObjectArray]:
    """Worker function: run the model over one chunk of frames."""
    return [result.objects for result in model.detect_many(frames)]


class DetectionExecutor(ABC):
    """Executes detection requests for batches of frames."""

    kind: str = "abstract"

    @abstractmethod
    def run(
        self, model: DetectionModel, frames: list[PointCloudFrame]
    ) -> list[ObjectArray]:
        """Detect ``frames`` (in order) and return their object sets."""

    def close(self) -> None:
        """Release any worker pool (idempotent)."""

    def __enter__(self) -> DetectionExecutor:
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(DetectionExecutor):
    """Run detections inline on the calling thread."""

    kind = "serial"

    def run(
        self, model: DetectionModel, frames: list[PointCloudFrame]
    ) -> list[ObjectArray]:
        return _detect_chunk(model, frames)


class ThreadExecutor(DetectionExecutor):
    """Persistent thread pool; overlaps GIL-releasing inference latency."""

    kind = "thread"

    def __init__(self, workers: int | None = None, batch_size: int | None = None) -> None:
        self.workers = int(workers) if workers else _default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._batch_size = batch_size
        self._pool: ThreadPoolExecutor | None = None

    def run(
        self, model: DetectionModel, frames: list[PointCloudFrame]
    ) -> list[ObjectArray]:
        if not frames:
            return []
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-inference"
            )
        batch = self._batch_size or max(1, -(-len(frames) // (4 * self.workers)))
        chunks = _chunks(frames, batch)
        results = self._pool.map(_detect_chunk, [model] * len(chunks), chunks)
        return [objects for chunk in results for objects in chunk]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


def make_executor(
    kind: str, *, workers: int | None = None, batch_size: int | None = None
) -> DetectionExecutor:
    """Build an executor by kind (``serial`` / ``thread``).

    ``workers`` of ``None`` or 0 selects the CPU count; ``batch_size``
    of ``None`` chunks adaptively (four chunks per worker per wave).
    """
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(workers, batch_size)
    raise ValueError(f"unknown executor kind {kind!r}; options: {EXECUTOR_KINDS}")
