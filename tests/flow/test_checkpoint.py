"""Checkpoint store: persistence, verification, crash-safe writes."""

import copyreg
import io
import pickle
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.sampler import SamplingResult
from repro.data.annotations import ObjectArray
from repro.flow import Checkpoint, CheckpointCorrupted, CheckpointStore, stable_digest
from repro.inference import DetectionRecording
from repro.models import pv_rcnn
from repro.simulation import semantickitti_like


@pytest.fixture()
def store(tmp_path):
    return CheckpointStore(tmp_path / "steps")


class TestRoundTrip:
    def test_save_load(self, store):
        value = {"ids": np.arange(4), "f1": 0.75}
        fingerprint = store.save("k1", "oracle", value)
        assert fingerprint == stable_digest(value)
        loaded = store.load("k1")
        assert loaded.step == "oracle"
        assert loaded.fingerprint == fingerprint
        assert np.array_equal(loaded.value["ids"], value["ids"])

    def test_contains_and_len(self, store):
        assert "k1" not in store
        assert len(store) == 0
        store.save("k1", "a", 1)
        store.save("k2", "b", 2)
        assert "k1" in store
        assert len(store) == 2

    def test_overwrite_same_key(self, store):
        store.save("k1", "a", 1)
        store.save("k1", "a", 2)
        assert store.load("k1").value == 2
        assert len(store) == 1

    def test_no_scratch_files_left_behind(self, store):
        store.save("k1", "a", list(range(100)))
        assert [p.name for p in store.root.glob("*.tmp")] == []

    def test_a_failed_save_leaves_no_scratch_file(self, store):
        with pytest.raises(TypeError, match="pickle"):
            store.save("k1", "step", [1, Handle()])
        assert list(store.root.iterdir()) == []
        assert "k1" not in store


class Handle:
    """A value that digests (it names its content) but does not pickle."""

    def __init__(self) -> None:
        self.lock = threading.Lock()

    def __flow_fingerprint__(self) -> str:
        return "handle"


class TestCorruption:
    def test_tampered_value_refused(self, store):
        store.save("k1", "oracle", {"answer": 42})
        path = store.path("k1")
        envelope = pickle.loads(path.read_bytes())
        forged = Checkpoint(
            key=envelope.key,
            step=envelope.step,
            fingerprint=envelope.fingerprint,
            value={"answer": 43},
        )
        path.write_bytes(pickle.dumps(forged))
        with pytest.raises(CheckpointCorrupted, match="fingerprint"):
            store.load("k1")

    def test_wrong_envelope_refused(self, store):
        store.path("k1").write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(CheckpointCorrupted, match="valid"):
            store.load("k1")

    def test_key_mismatch_refused(self, store):
        store.save("k1", "a", 1)
        store.path("k2").write_bytes(store.path("k1").read_bytes())
        with pytest.raises(CheckpointCorrupted, match="k2"):
            store.load("k2")


# ----------------------------------------------------------------------
# A sampling run's detection map checkpoints as columns
# ----------------------------------------------------------------------
N_FRAMES = 12


@pytest.fixture(scope="module")
def sequence():
    return semantickitti_like(0, n_frames=N_FRAMES, with_points=False)


def sampling_of(detections: dict[int, ObjectArray]) -> SamplingResult:
    return SamplingResult(
        sequence_name="seq",
        n_frames=N_FRAMES,
        timestamps=np.arange(N_FRAMES) * 0.1,
        budget=len(detections),
        sampled_ids=sorted(detections),
        detections=detections,
        rewards=[0.5, 0.25],
    )


@pytest.fixture(scope="module")
def mixed(sequence):
    """A map of every column layout, in an order that is not sorted."""
    model = pv_rcnn(seed=5)
    detected = {f.frame_id: model.detect(f).objects for f in sequence}
    recording = DetectionRecording()
    recording.record(sequence, model, detected)
    replayed = recording.replaying(model).detect(sequence[9]).objects
    assert not replayed.centers.flags.writeable and len(replayed)
    return {
        7: detected[7],
        2: ObjectArray.empty(),
        11: sequence[11].ground_truth,  # velocities and ids
        0: replace(detected[0], labels=detected[0].labels.astype("<U10")),
        9: replayed,
        4: detected[4],
        5: ObjectArray.empty(),
    }


def per_frame_dumps(value: object) -> bytes:
    """``value`` pickled as checkpoints held a sampling run before its map
    was packed: the plain field dict, one ``ObjectArray`` per frame.  On
    the same value these are the bytes that older code wrote."""

    class PerFrame(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is SamplingResult:
                return copyreg.__newobj__, (SamplingResult,), dict(vars(obj))
            return NotImplemented

    buffer = io.BytesIO()
    PerFrame(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return buffer.getvalue()


class TestDetectionColumns:
    def test_round_trip_keeps_value_and_order(self, mixed):
        sampling = sampling_of(mixed)
        payload = pickle.dumps(sampling, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"ObjectArray" not in payload  # columns, not one set per frame
        loaded = pickle.loads(payload)
        assert stable_digest(loaded) == stable_digest(sampling)
        assert list(loaded.detections) == list(mixed)
        for frame_id, objects in mixed.items():
            assert stable_digest(loaded.detections[frame_id]) == stable_digest(objects)
        assert loaded.detections[0].labels.dtype == np.dtype("<U10")
        assert loaded.detections[11].velocities is not None
        assert loaded.detections[11].ids is not None
        assert loaded.detections[7].ids is None

    def test_columns_come_back_writable_and_disjoint(self, mixed):
        loaded = pickle.loads(pickle.dumps(sampling_of(mixed)))
        before = {i: stable_digest(o) for i, o in loaded.detections.items()}
        for frame_id, objects in loaded.detections.items():
            for column in fields(objects):
                value = getattr(objects, column.name)
                if value is None:
                    continue
                assert value.flags.writeable
                if len(value):
                    value[-1] = "Zz" if column.name == "labels" else 1e6
            after = {i: stable_digest(o) for i, o in loaded.detections.items()}
            changed = {i for i in after if after[i] != before[i]}
            assert changed == ({frame_id} if len(objects) else set())
            before = after

    def test_a_replayed_map_pickles_like_a_detected_one(self, sequence):
        model = pv_rcnn(seed=5)
        detected = {f.frame_id: model.detect(f).objects for f in sequence}
        recording = DetectionRecording()
        recording.record(sequence, model, detected)
        replaying = recording.replaying(model)
        ids = (3, 0, 8, 5)
        replayed = {i: replaying.detect(sequence[i]).objects for i in ids}
        fresh = {i: model.detect(sequence[i]).objects for i in ids}
        assert not replayed[3].scores.flags.writeable
        assert pickle.dumps(
            sampling_of(replayed), protocol=pickle.HIGHEST_PROTOCOL
        ) == pickle.dumps(sampling_of(fresh), protocol=pickle.HIGHEST_PROTOCOL)

    def test_an_empty_map_round_trips(self):
        loaded = pickle.loads(pickle.dumps(sampling_of({})))
        assert loaded.detections == {}

    def test_a_per_frame_checkpoint_loads_and_verifies(self, store, mixed):
        sampling = sampling_of(mixed)
        fingerprint = store.save("k1", "method", sampling)
        envelope = Checkpoint(
            key="k1", step="method", fingerprint=fingerprint, value=sampling
        )
        payload = per_frame_dumps(envelope)
        assert b"ObjectArray" in payload
        store.path("k1").write_bytes(payload)
        loaded = store.load("k1").value
        assert stable_digest(loaded) == fingerprint
        assert list(loaded.detections) == list(mixed)
        assert isinstance(loaded.detections[7], ObjectArray)

    def test_a_tampered_column_is_refused(self, store, mixed):
        store.save("k1", "method", sampling_of(mixed))
        path = store.path("k1")
        envelope = pickle.loads(path.read_bytes())
        envelope.value.detections[4].scores[0] += 0.125  # writes the block
        path.write_bytes(pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL))
        with pytest.raises(CheckpointCorrupted, match="fingerprint"):
            store.load("k1")
