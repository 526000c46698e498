"""Parallel inference engine for deep-model detection.

The sampling phase dominates MAST's end-to-end cost: every sampled frame
pays a deep-detector invocation, and repeated benchmark sweeps pay it
again for frames they have already seen.  This package factors detection
execution out of the samplers into one engine:

* :mod:`repro.inference.executors` — pluggable execution strategies
  (serial, thread pool over chunked ``detect_many`` batches) behind a
  single :class:`DetectionExecutor` interface;
* :mod:`repro.inference.store` — a bounded, content-keyed
  :class:`DetectionStore` memoizing raw detections across samplers,
  baselines and experiment sweeps, with optional on-disk persistence;
* :mod:`repro.inference.engine` — :class:`InferenceEngine`, which takes
  *waves* of frame ids from the samplers, answers what it can from the
  store, fans the rest over the executor, and charges the cost ledger
  (cache hits are never billed as model invocations);
* :mod:`repro.inference.motion` — the engine's bounded
  :class:`MotionMemo`, under which ST-PC analysis runs once per pair of
  detections and the Eq. 1 reward once per triple, whoever asks.
"""

from repro.inference.engine import InferenceEngine, PacedModel
from repro.inference.executors import (
    DetectionExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.inference.motion import MOTION_MEMO_ENTRIES, MotionMemo
from repro.inference.store import (
    DetectionKey,
    DetectionStore,
    StoreStats,
    detection_key,
    model_fingerprint,
)

__all__ = [
    "InferenceEngine",
    "PacedModel",
    "DetectionExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "make_executor",
    "MOTION_MEMO_ENTRIES",
    "MotionMemo",
    "DetectionKey",
    "DetectionStore",
    "StoreStats",
    "detection_key",
    "model_fingerprint",
]
