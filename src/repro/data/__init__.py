"""Data substrate: frames, sequences, persistence."""

from repro.data.annotations import ObjectArray
from repro.data.frame import PointCloudFrame
from repro.data.sequence import FrameSequence
from repro.data.storage import (
    load_detections,
    load_sequence,
    save_detections,
    save_sequence,
)

__all__ = [
    "FrameSequence",
    "ObjectArray",
    "PointCloudFrame",
    "load_detections",
    "load_sequence",
    "save_detections",
    "save_sequence",
]
