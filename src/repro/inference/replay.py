"""Replaying an experiment's own detections instead of re-simulating them.

An experiment flow (:func:`~repro.evalx.flows.experiment_flow` or
:func:`~repro.evalx.flows.corpus_flow`) first runs the Oracle pass,
which detects every frame, and then runs each sampled method or budget
policy, which detects its sampled frames again.  Detectors are
deterministic per frame, so the second detection is the first one's
output recomputed.  A :class:`DetectionRecording` keeps the Oracle
pass's detections for as long as its flow object lives, and
:meth:`DetectionRecording.replaying` wraps the experiment's model so
that a recorded frame is answered from the recording.

Replay skips only the simulation, never the bill: the
:class:`~repro.inference.engine.InferenceEngine` still calls
``model.detect`` for every frame it does not find in its store, and
still charges ``cost_per_frame`` for it.  A detection store, where one
is attached, is consulted first exactly as before, so a store hit stays
unbilled and a replay is a billed ``detect`` call.

A recording is keyed by (frame id, model fingerprint, frame content
hash): the store's key without the sequence name, because a detection
depends only on the model and the frame.  One recording therefore
serves every sequence recorded for a model — a whole corpus fit — and
is never served across models or to a frame whose content differs.  Its
columns are read-only views, shared by every method that replays them.
It belongs to the flow object that made it: it refuses to be pickled,
so it cannot reach a checkpoint, and nothing keys or fingerprints it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields

from repro.data.annotations import ObjectArray
from repro.data.frame import PointCloudFrame
from repro.data.sequence import FrameSequence
from repro.inference.store import FrameKey, frame_key, model_fingerprint
from repro.models.base import DetectionModel, FrameDetections

__all__ = ["DetectionRecording", "ReplayingModel"]

#: One recorded pass: the sequence and its ``frame_id -> detections``.
_Pass = tuple[FrameSequence, Mapping[int, ObjectArray]]


class DetectionRecording:
    """Per-frame detections one experiment has already made.

    :meth:`record` keeps a reference to a pass's detections; a later pass
    of the same sequence name and model replaces it.  The first time a
    frame id is asked for under a model, that id's frame in every pass
    recorded for the model is keyed (content hash included) and given
    its read-only view, so a frame id no method samples costs nothing.
    """

    def __init__(self) -> None:
        #: Model fingerprint -> sequence name -> that sequence's pass.
        self._passes: dict[str, dict[str, _Pass]] = {}
        self._entries: dict[FrameKey, ObjectArray] = {}
        #: ``(frame id, fingerprint)`` pairs whose recorded frames are keyed.
        self._keyed: set[tuple[int, str]] = set()

    def record(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        detections: Mapping[int, ObjectArray],
    ) -> None:
        """Keep ``model``'s ``detections`` of ``sequence``'s frames."""
        passes = self._passes.setdefault(model_fingerprint(model), {})
        passes[sequence.name] = (sequence, detections)
        self._entries.clear()
        self._keyed.clear()

    def lookup(self, frame: PointCloudFrame, fingerprint: str) -> ObjectArray | None:
        """The recorded detections of ``frame`` by the model with
        ``fingerprint``, or ``None``."""
        key = frame_key(frame, fingerprint)
        frame_id = key[0]
        if (frame_id, fingerprint) not in self._keyed:
            self._keyed.add((frame_id, fingerprint))
            for sequence, detections in self._passes.get(fingerprint, {}).values():
                if frame_id in detections:
                    recorded = frame_key(sequence[frame_id], fingerprint)
                    if recorded not in self._entries:
                        self._entries[recorded] = _read_only(detections[frame_id])
        return self._entries.get(key)

    def replaying(self, model: DetectionModel) -> ReplayingModel:
        """``model``, answering every frame recorded for it from here."""
        return ReplayingModel(model, self)

    def __reduce__(self) -> object:
        raise TypeError(
            "a DetectionRecording lives as long as its flow object and is "
            "never pickled or checkpointed"
        )


class ReplayingModel(DetectionModel):
    """``base``, with recorded frames answered from a recording.

    Name, cost and fingerprint are the base model's (the store's
    fingerprint follows ``base``), so the engine bills and keys a
    replayed frame exactly like a detected one.  A frame the recording
    does not hold — another model, changed content — is detected by
    ``base``.
    """

    def __init__(self, base: DetectionModel, recording: DetectionRecording) -> None:
        self.base = base
        self.name = base.name
        self.cost_per_frame = base.cost_per_frame
        self._recording = recording
        self._fingerprint = model_fingerprint(base)

    def detect(self, frame: PointCloudFrame) -> FrameDetections:
        objects = self._recording.lookup(frame, self._fingerprint)
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
