"""Replaying an experiment's own detections instead of re-simulating them.

An experiment (one :class:`~repro.flow.FlowRunner` run of an
:func:`~repro.evalx.flows.experiment_flow`) first runs the Oracle pass,
which detects every frame, and then runs each sampled method, which
detects its sampled frames again.  Detectors are
deterministic per frame, so the second detection is the first one's
output recomputed.  A :class:`DetectionRecording` keeps the Oracle
pass's detections for the lifetime of the experiment, and
:meth:`DetectionRecording.replaying` wraps the experiment's model so
that a recorded frame is answered from the recording.

Replay skips only the simulation, never the bill: the
:class:`~repro.inference.engine.InferenceEngine` still calls
``model.detect`` for every frame it does not find in its store, and
still charges ``cost_per_frame`` for it.  A detection store, where one
is attached, is consulted first exactly as before, so a store hit stays
unbilled and a replay is a billed ``detect`` call.

A recording is keyed like the store (sequence name, frame id, model
fingerprint, frame content hash), so it is never served across models
or sequences.  Its columns are read-only views, shared by every method
that replays them.  It belongs to the run that made it: it refuses to
be pickled, so it cannot reach a checkpoint, and nothing keys or
fingerprints it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields

from repro.data.annotations import ObjectArray
from repro.data.frame import PointCloudFrame
from repro.data.sequence import FrameSequence
from repro.inference.store import DetectionKey, detection_key, model_fingerprint
from repro.models.base import DetectionModel, FrameDetections

__all__ = ["DetectionRecording", "ReplayingModel"]

#: One recorded pass: the sequence and its ``frame_id -> detections``.
_Pass = tuple[FrameSequence, Mapping[int, ObjectArray]]


class DetectionRecording:
    """Per-frame detections one experiment has already made.

    :meth:`record` keeps a reference to a pass's detections; a frame is
    keyed (content hash included) and given its read-only view the first
    time it is asked for, so a frame no method samples costs nothing.
    """

    def __init__(self) -> None:
        self._passes: dict[tuple[str, str], _Pass] = {}
        self._entries: dict[DetectionKey, ObjectArray] = {}

    def record(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        detections: Mapping[int, ObjectArray],
    ) -> None:
        """Keep ``model``'s ``detections`` of ``sequence``'s frames."""
        self._passes[(sequence.name, model_fingerprint(model))] = (sequence, detections)

    def lookup(self, key: DetectionKey) -> ObjectArray | None:
        """The recorded detections under ``key``, or ``None``."""
        objects = self._entries.get(key)
        if objects is not None:
            return objects
        sequence_name, frame_id, fingerprint, _ = key
        recorded = self._passes.get((sequence_name, fingerprint))
        if recorded is None:
            return None
        sequence, detections = recorded
        if frame_id not in detections or key != detection_key(
            sequence_name, sequence[frame_id], fingerprint
        ):
            return None
        objects = self._entries[key] = _read_only(detections[frame_id])
        return objects

    def replaying(
        self, sequence: FrameSequence, model: DetectionModel
    ) -> ReplayingModel:
        """``model``, answering ``sequence``'s recorded frames from here."""
        return ReplayingModel(model, self, sequence.name)

    def __reduce__(self) -> object:
        raise TypeError(
            "a DetectionRecording lives for one experiment run and is never "
            "pickled or checkpointed"
        )


class ReplayingModel(DetectionModel):
    """``base``, with recorded frames answered from a recording.

    Name, cost and fingerprint are the base model's (the store's
    fingerprint follows ``base``), so the engine bills and keys a
    replayed frame exactly like a detected one.  A frame the recording
    does not hold — another sequence, another model, changed content —
    is detected by ``base``.
    """

    def __init__(
        self,
        base: DetectionModel,
        recording: DetectionRecording,
        sequence_name: str,
    ) -> None:
        self.base = base
        self.name = base.name
        self.cost_per_frame = base.cost_per_frame
        self._recording = recording
        self._sequence_name = sequence_name
        self._fingerprint = model_fingerprint(base)

    def detect(self, frame: PointCloudFrame) -> FrameDetections:
        objects = self._recording.lookup(
            detection_key(self._sequence_name, frame, self._fingerprint)
        )
        if objects is None:
            return self.base.detect(frame)
        return FrameDetections(
            frame_id=frame.frame_id,
            timestamp=frame.timestamp,
            objects=objects,
            model_name=self.name,
        )


def _read_only(objects: ObjectArray) -> ObjectArray:
    """``objects`` over read-only views of its columns."""
    columns = {}
    for column in fields(objects):
        value = getattr(objects, column.name)
        if value is not None:
            value = value.view()
            value.flags.writeable = False
        columns[column.name] = value
    return ObjectArray(**columns)
