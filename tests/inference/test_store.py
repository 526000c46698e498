"""Unit tests for the cross-run detection store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.inference import DetectionStore, detection_key, model_fingerprint
from repro.models import DetectionModel, GroundTruthDetector, pv_rcnn
from repro.models.clustering import ClusteringDetector
from repro.models.detectors import point_rcnn


@pytest.fixture(scope="module")
def sequence():
    from repro.simulation import semantickitti_like

    return semantickitti_like(0, n_frames=30, with_points=False)


def key_for(sequence, frame_id, model):
    return detection_key(
        sequence.name, sequence[frame_id], model_fingerprint(model)
    )


class TestModelFingerprint:
    def test_same_model_same_fingerprint(self):
        assert model_fingerprint(pv_rcnn(seed=3)) == model_fingerprint(pv_rcnn(seed=3))

    def test_seed_changes_fingerprint(self):
        assert model_fingerprint(pv_rcnn(seed=3)) != model_fingerprint(pv_rcnn(seed=4))

    def test_model_family_changes_fingerprint(self):
        assert model_fingerprint(pv_rcnn(seed=3)) != model_fingerprint(
            point_rcnn(seed=3)
        )

    def test_clustering_parameters_change_fingerprint(self):
        assert model_fingerprint(ClusteringDetector()) != model_fingerprint(
            ClusteringDetector(cell_size=0.9)
        )

    def test_wrapper_shares_base_fingerprint(self):
        class Wrapper(DetectionModel):
            base = pv_rcnn(seed=3)
            detect = base.detect

        assert model_fingerprint(Wrapper()) == model_fingerprint(pv_rcnn(seed=3))


class TestDetectionKey:
    def test_content_hash_distinguishes_reused_frame_ids(self, sequence):
        model = GroundTruthDetector()
        fingerprint = model_fingerprint(model)
        a = detection_key(sequence.name, sequence[0], fingerprint)
        b = detection_key(sequence.name, sequence[1], fingerprint)
        assert a != b

    def test_same_frame_same_key(self, sequence):
        model = GroundTruthDetector()
        fingerprint = model_fingerprint(model)
        assert detection_key(sequence.name, sequence[4], fingerprint) == detection_key(
            sequence.name, sequence[4], fingerprint
        )


class TestDetectionStore:
    def test_roundtrip_and_counters(self, sequence):
        model = GroundTruthDetector()
        store = DetectionStore()
        key = key_for(sequence, 0, model)
        assert store.lookup(key) is None
        objects = model.detect(sequence[0]).objects
        store.put(key, objects)
        hit = store.lookup(key)
        assert hit is objects
        stats = store.stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.entries == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self, sequence):
        model = GroundTruthDetector()
        store = DetectionStore(max_entries=2)
        keys = [key_for(sequence, i, model) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, model.detect(sequence[i]).objects)
        assert len(store) == 2
        assert store.stats().evictions == 1
        assert keys[0] not in store  # oldest evicted
        assert keys[1] in store and keys[2] in store

    def test_lookup_refreshes_recency(self, sequence):
        model = GroundTruthDetector()
        store = DetectionStore(max_entries=2)
        keys = [key_for(sequence, i, model) for i in range(3)]
        store.put(keys[0], model.detect(sequence[0]).objects)
        store.put(keys[1], model.detect(sequence[1]).objects)
        store.lookup(keys[0])  # 0 becomes most recent
        store.put(keys[2], model.detect(sequence[2]).objects)
        assert keys[0] in store and keys[1] not in store

    def test_persistence_roundtrip(self, sequence, tmp_path):
        model = GroundTruthDetector()
        store = DetectionStore(persist_dir=tmp_path)
        key = key_for(sequence, 5, model)
        objects = model.detect(sequence[5]).objects
        store.put(key, objects)

        fresh = DetectionStore(persist_dir=tmp_path)
        restored = fresh.lookup(key)
        assert restored is not None
        assert np.array_equal(restored.labels, objects.labels)
        assert np.array_equal(restored.centers, objects.centers)
        assert np.array_equal(restored.scores, objects.scores)
        stats = fresh.stats()
        assert stats.disk_hits == 1 and stats.misses == 0
        # Promoted into memory: second lookup is a memory hit.
        fresh.lookup(key)
        assert fresh.stats().hits == 1

    def test_clear_keeps_persisted_files(self, sequence, tmp_path):
        model = GroundTruthDetector()
        store = DetectionStore(persist_dir=tmp_path)
        key = key_for(sequence, 2, model)
        store.put(key, model.detect(sequence[2]).objects)
        store.clear()
        assert len(store) == 0
        assert store.lookup(key) is not None  # back from disk

    def test_torn_entry_is_a_miss_redetected_once_and_rewritten(
        self, sequence, tmp_path
    ):
        from repro.data.storage import load_detections
        from repro.inference import InferenceEngine
        from repro.utils.timing import STAGE_MODEL, CostLedger

        model = pv_rcnn(seed=3)
        frame_ids = range(5)
        with InferenceEngine(store=DetectionStore(persist_dir=tmp_path)) as engine:
            first = engine.detect_wave(sequence, frame_ids, model)
        torn = DetectionStore(persist_dir=tmp_path)._path_for(
            key_for(sequence, 2, model)
        )
        torn.write_bytes(torn.read_bytes()[:40])

        store = DetectionStore(persist_dir=tmp_path)
        ledger = CostLedger()
        with InferenceEngine(store=store) as engine:
            second = engine.detect_wave(sequence, frame_ids, model, ledger=ledger)
        for frame_id in frame_ids:
            assert np.array_equal(second[frame_id].centers, first[frame_id].centers)
            assert np.array_equal(second[frame_id].scores, first[frame_id].scores)
        assert ledger.invocations(STAGE_MODEL) == 1 == store.stats().misses
        assert store.stats().disk_hits == 4
        healed, _ = load_detections(torn)
        assert np.array_equal(healed[2].centers, first[2].centers)
        assert sorted(tmp_path.iterdir()) == sorted(
            store._path_for(key_for(sequence, i, model)) for i in frame_ids
        )

    def test_a_format_1_entry_is_a_miss_redetected_once_and_rewritten(
        self, sequence, tmp_path
    ):
        """An entry an older release wrote (format 1: one row table with
        a frame index column) is refused on load: the frame is detected
        again, billed once, and its entry rewritten in the current format."""
        from repro.data.storage import load_detections
        from repro.inference import InferenceEngine
        from repro.utils.timing import STAGE_MODEL, CostLedger

        model = pv_rcnn(seed=3)
        frame_ids = range(3)
        with InferenceEngine(store=DetectionStore(persist_dir=tmp_path)) as engine:
            first = engine.detect_wave(sequence, frame_ids, model)
        old = DetectionStore(persist_dir=tmp_path)._path_for(
            key_for(sequence, 1, model)
        )
        objects = first[1]
        np.savez_compressed(
            old,
            format_version=np.int64(1),
            model_name=np.str_(model.name),
            frame_ids=np.array([1], dtype=np.int64),
            obj_frame_index=np.zeros(len(objects), dtype=np.int64),
            obj_labels=objects.labels.astype("<U16"),
            obj_centers=objects.centers,
            obj_sizes=objects.sizes,
            obj_yaws=objects.yaws,
            obj_scores=objects.scores,
        )
        with pytest.raises(ValueError, match="version 1"):
            load_detections(old)

        store = DetectionStore(persist_dir=tmp_path)
        ledger = CostLedger()
        with InferenceEngine(store=store) as engine:
            second = engine.detect_wave(sequence, frame_ids, model, ledger=ledger)
        assert ledger.invocations(STAGE_MODEL) == 1 == store.stats().misses
        assert store.stats().disk_hits == 2
        rewritten, _ = load_detections(old)
        for frame_id in frame_ids:
            assert np.array_equal(second[frame_id].centers, first[frame_id].centers)
        assert np.array_equal(rewritten[1].centers, objects.centers)
        assert np.array_equal(rewritten[1].labels, objects.labels)

    def test_every_flipped_byte_is_a_hit_or_a_miss_redetected_once(
        self, sequence, tmp_path
    ):
        """One single-bit flip per byte of a real entry: each lookup is a
        hit with the very detections stored, or a miss the engine detects
        again exactly once — never an exception, never other detections."""
        from repro.inference import InferenceEngine
        from repro.utils.timing import STAGE_MODEL, CostLedger

        model = pv_rcnn(seed=3)
        with InferenceEngine(store=DetectionStore(persist_dir=tmp_path)) as engine:
            want = engine.detect_wave(sequence, [2], model)[2]
        (path,) = tmp_path.iterdir()
        data = path.read_bytes()

        def same(objects):
            return all(
                np.array_equal(getattr(objects, field), getattr(want, field))
                for field in ("labels", "centers", "sizes", "yaws", "scores")
            )

        outcomes = {"hit": 0, "miss": 0}
        for position in range(len(data)):
            flipped = bytearray(data)
            flipped[position] ^= 1 << position % 8
            path.write_bytes(bytes(flipped))
            store = DetectionStore(persist_dir=tmp_path)
            ledger = CostLedger()
            with InferenceEngine(store=store) as engine:
                got = engine.detect_wave(sequence, [2], model, ledger=ledger)[2]
            assert same(got), position
            misses = store.stats().misses
            assert ledger.invocations(STAGE_MODEL) == misses <= 1, position
            outcomes["miss" if misses else "hit"] += 1
        assert outcomes["miss"] > outcomes["hit"] > 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            DetectionStore(max_entries=0)
