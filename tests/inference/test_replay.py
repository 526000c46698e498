"""Guards of an experiment's detection recording and its replaying model."""

from __future__ import annotations

import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.flow import stable_digest
from repro.inference import DetectionRecording, InferenceEngine
from repro.models import pv_rcnn
from repro.simulation import semantickitti_like
from repro.utils.timing import STAGE_MODEL, CostLedger

N_FRAMES = 24


@pytest.fixture(scope="module")
def sequence_a():
    return semantickitti_like(0, n_frames=N_FRAMES, with_points=False)


@pytest.fixture(scope="module")
def sequence_b():
    return semantickitti_like(1, n_frames=N_FRAMES, with_points=False)


def recorded(sequence, model):
    """A recording of ``model``'s detections of every frame of ``sequence``."""
    detections = {frame.frame_id: model.detect(frame).objects for frame in sequence}
    recording = DetectionRecording()
    recording.record(sequence, model, detections)
    return recording


def count_detects(monkeypatch, model):
    """Count ``model.detect`` calls from here on."""
    calls = []
    detect = model.detect

    def counting(frame):
        calls.append(frame.frame_id)
        return detect(frame)

    monkeypatch.setattr(model, "detect", counting)
    return calls


def same_objects(a, b) -> bool:
    return all(
        (getattr(a, f.name) is None and getattr(b, f.name) is None)
        or np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in fields(a)
    )


def test_a_recorded_frame_is_replayed_not_detected(monkeypatch, sequence_a):
    recording = recorded(sequence_a, pv_rcnn(seed=5))
    base = pv_rcnn(seed=5)
    calls = count_detects(monkeypatch, base)
    replaying = recording.replaying(base)
    for frame in sequence_a:
        replayed = replaying.detect(frame)
        assert replayed.frame_id == frame.frame_id
        assert replayed.model_name == base.name
        assert same_objects(replayed.objects, pv_rcnn(seed=5).detect(frame).objects)
    assert calls == []
    assert (replaying.name, replaying.cost_per_frame) == (base.name, base.cost_per_frame)


def test_a_write_into_a_replayed_column_raises(sequence_a):
    model = pv_rcnn(seed=5)
    detections = {i: model.detect(sequence_a[i]).objects for i in range(N_FRAMES)}
    recording = DetectionRecording()
    recording.record(sequence_a, model, detections)
    frame = next(f for f in sequence_a if len(detections[f.frame_id]))
    objects = recording.replaying(model).detect(frame).objects
    for name in ("labels", "centers", "sizes", "yaws", "scores"):
        column = getattr(objects, name)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[-1]
    # The recording made views: the detections it was handed stay writable.
    assert detections[frame.frame_id].centers.flags.writeable


def test_another_model_seed_falls_back_to_detect(monkeypatch, sequence_a):
    recording = recorded(sequence_a, pv_rcnn(seed=5))
    other = pv_rcnn(seed=6)
    calls = count_detects(monkeypatch, other)
    replaying = recording.replaying(other)
    differs = False
    for frame in sequence_a:
        objects = replaying.detect(frame).objects
        assert same_objects(objects, pv_rcnn(seed=6).detect(frame).objects)
        differs |= not same_objects(objects, pv_rcnn(seed=5).detect(frame).objects)
    assert calls == list(range(N_FRAMES))
    assert differs, "seeds 5 and 6 must detect differently for this test to bite"


def test_a_frame_whose_content_differs_falls_back_to_detect(
    monkeypatch, sequence_a, sequence_b
):
    """The key is (frame id, model, content): a frame that shares a
    recorded frame's id but not its content is detected."""
    recording = recorded(sequence_a, pv_rcnn(seed=5))
    base = pv_rcnn(seed=5)
    calls = count_detects(monkeypatch, base)
    replaying = recording.replaying(base)
    for frame in sequence_b:
        assert same_objects(
            replaying.detect(frame).objects, pv_rcnn(seed=5).detect(frame).objects
        )
    frame = sequence_a[3]
    moved = replace(
        frame,
        ground_truth=replace(
            frame.ground_truth, centers=frame.ground_truth.centers + 1.0
        ),
    )
    assert same_objects(
        replaying.detect(moved).objects, pv_rcnn(seed=5).detect(moved).objects
    )
    assert calls == [*range(N_FRAMES), 3]
    # The recorded frame itself is still served from the recording.
    replaying.detect(frame)
    assert calls == [*range(N_FRAMES), 3]


def test_one_recording_serves_every_sequence_recorded_for_the_model(
    monkeypatch, sequence_a, sequence_b
):
    """Two sequences share every frame id: one replaying model serves
    each frame from its own sequence's pass."""
    model = pv_rcnn(seed=5)
    recording = recorded(sequence_a, model)
    recording.record(
        sequence_b, model, {f.frame_id: model.detect(f).objects for f in sequence_b}
    )
    base = pv_rcnn(seed=5)
    calls = count_detects(monkeypatch, base)
    replaying = recording.replaying(base)
    for frame in (*sequence_b, *sequence_a):
        assert same_objects(
            replaying.detect(frame).objects, pv_rcnn(seed=5).detect(frame).objects
        )
    assert calls == []


def test_a_second_pass_of_a_sequence_replaces_the_first(monkeypatch, sequence_a):
    """A flow object run twice records its oracle pass twice: the
    recording keeps the later pass of a sequence, not both."""
    model = pv_rcnn(seed=5)
    recording = recorded(sequence_a, model)
    recording.record(
        sequence_a, model, {i: model.detect(sequence_a[i]).objects for i in range(4)}
    )
    base = pv_rcnn(seed=5)
    calls = count_detects(monkeypatch, base)
    replaying = recording.replaying(base)
    for frame in sequence_a:
        replaying.detect(frame)
    assert calls == list(range(4, N_FRAMES))


def test_a_replay_is_billed_like_a_detection(sequence_a):
    model = pv_rcnn(seed=5)
    ids = range(0, N_FRAMES, 3)
    ledgers = []
    for detector in (model, recorded(sequence_a, model).replaying(model)):
        ledger = CostLedger()
        InferenceEngine().detect_wave(sequence_a, ids, detector, ledger=ledger)
        ledgers.append(ledger.deterministic_state())
    assert ledgers[0] == ledgers[1]
    assert ledgers[1]["counts"][STAGE_MODEL] == len(ids)


def test_a_replayed_detection_pickles_like_a_detected_one(sequence_a):
    model = pv_rcnn(seed=5)
    replaying = recorded(sequence_a, model).replaying(model)
    for frame in sequence_a:
        replayed = replaying.detect(frame).objects
        detected = model.detect(frame).objects
        assert pickle.dumps(replayed, protocol=pickle.HIGHEST_PROTOCOL) == pickle.dumps(
            detected, protocol=pickle.HIGHEST_PROTOCOL
        )
        assert stable_digest(replayed) == stable_digest(detected)
    loaded = pickle.loads(pickle.dumps(replayed, protocol=pickle.HIGHEST_PROTOCOL))
    assert loaded.centers.flags.writeable


def test_a_recording_is_never_pickled_or_digested(sequence_a):
    model = pv_rcnn(seed=5)
    recording = recorded(sequence_a, model)
    with pytest.raises(TypeError, match="never pickled"):
        pickle.dumps(recording)
    with pytest.raises(TypeError, match="never pickled"):
        pickle.dumps(recording.replaying(model))
    with pytest.raises(TypeError, match="cannot canonicalize"):
        stable_digest(recording)
