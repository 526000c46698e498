"""Detectors that fail on purpose, shared by the failure-injection tests."""

from __future__ import annotations

from repro.models import DetectionModel


class RaisesOnce(DetectionModel):
    """Delegates to ``base`` (sharing its store entries) but raises on its
    ``at``-th ``detect`` call, once; ``at=0`` never raises."""

    def __init__(self, base: DetectionModel, at: int):
        self.base = base
        self.name = base.name
        self.cost_per_frame = base.cost_per_frame
        self.at = at
        self.calls = 0
        self.returned = 0

    def detect(self, frame):
        self.calls += 1
        if self.calls == self.at:
            raise RuntimeError("CUDA error: device-side assert triggered")
        detections = self.base.detect(frame)
        self.returned += 1
        return detections
