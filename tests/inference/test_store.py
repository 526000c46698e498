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

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            DetectionStore(max_entries=0)
