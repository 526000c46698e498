"""Inference engine for deep-model detection.

The sampling phase dominates MAST's end-to-end cost: every sampled frame
pays a deep-detector invocation, and repeated benchmark sweeps pay it
again for frames they have already seen.  This package is the one place
detection is executed:

* :mod:`repro.inference.store` — a bounded, content-keyed
  :class:`DetectionStore` memoizing raw detections across samplers,
  baselines and experiment sweeps, with optional on-disk persistence;
* :mod:`repro.inference.engine` — :class:`InferenceEngine`, which takes
  frame ids from the samplers, answers what it can from the store,
  detects the rest on the calling thread, and charges the cost ledger
  (cache hits are never billed as model invocations);
* :mod:`repro.inference.replay` — an experiment's
  :class:`DetectionRecording` of the Oracle pass, which its sampled
  methods or budget policies replay (still billed) instead of
  re-simulating.
"""

from repro.inference.engine import InferenceEngine
from repro.inference.replay import DetectionRecording
from repro.inference.store import (
    DetectionKey,
    DetectionStore,
    StoreStats,
    detection_key,
    model_fingerprint,
)

__all__ = [
    "InferenceEngine",
    "DetectionRecording",
    "DetectionKey",
    "DetectionStore",
    "StoreStats",
    "detection_key",
    "model_fingerprint",
]
