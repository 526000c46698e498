"""Engine accounting: ledger and detection-store semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.inference import DetectionStore, InferenceEngine
from repro.models import pv_rcnn
from repro.utils.timing import STAGE_MODEL, CostLedger


@pytest.fixture(scope="module")
def sequence():
    from repro.simulation import semantickitti_like

    return semantickitti_like(0, n_frames=40, with_points=False)


def detections_equal(a, b):
    assert sorted(a) == sorted(b)
    for frame_id in a:
        assert np.array_equal(a[frame_id].labels, b[frame_id].labels)
        assert np.array_equal(a[frame_id].centers, b[frame_id].centers)
        assert np.array_equal(a[frame_id].scores, b[frame_id].scores)


class TestEngineLedger:
    def test_miss_charges_per_frame(self, sequence):
        model = pv_rcnn(seed=5)
        ledger = CostLedger()
        with InferenceEngine(store=DetectionStore()) as engine:
            engine.detect_wave(sequence, [0, 3, 7], model, ledger=ledger)
        assert ledger.invocations(STAGE_MODEL) == 3
        assert ledger.simulated[STAGE_MODEL] == pytest.approx(3 * model.cost_per_frame)
        assert ledger.cache_misses[STAGE_MODEL] == 3
        assert ledger.cache_hits[STAGE_MODEL] == 0

    def test_hit_is_never_an_invocation(self, sequence):
        model = pv_rcnn(seed=5)
        store = DetectionStore()
        with InferenceEngine(store=store) as engine:
            engine.detect_wave(sequence, [0, 3, 7], model, ledger=CostLedger())
            warm = CostLedger()
            result = engine.detect_wave(sequence, [0, 3, 7], model, ledger=warm)
        assert sorted(result) == [0, 3, 7]
        assert warm.invocations(STAGE_MODEL) == 0
        assert warm.simulated.get(STAGE_MODEL, 0.0) == 0.0
        assert warm.cache_hits[STAGE_MODEL] == store.stats().hits == 3

    def test_known_frames_skip_lookup_and_charge(self, sequence):
        model = pv_rcnn(seed=5)
        ledger = CostLedger()
        with InferenceEngine(store=DetectionStore()) as engine:
            known = engine.detect_wave(sequence, [0, 1], model, ledger=ledger)
            engine.detect_wave(sequence, [0, 1, 2], model, ledger=ledger, known=known)
        assert ledger.invocations(STAGE_MODEL) == 3
        assert ledger.cache_hits[STAGE_MODEL] + ledger.cache_misses[STAGE_MODEL] == 3
        assert sorted(known) == [0, 1, 2]

    def test_without_store_every_frame_executes(self, sequence):
        model = pv_rcnn(seed=5)
        ledger = CostLedger()
        with InferenceEngine() as engine:
            engine.detect_wave(sequence, [4, 4, 5], model, ledger=ledger)
        assert ledger.invocations(STAGE_MODEL) == 2  # in-wave dedup
        assert ledger.cache_hits[STAGE_MODEL] == 0
        assert ledger.cache_misses[STAGE_MODEL] == 0

    def test_store_results_identical_to_direct(self, sequence):
        model = pv_rcnn(seed=5)
        with InferenceEngine() as direct_engine:
            direct = direct_engine.detect_wave(sequence, range(10), model)
        store = DetectionStore()
        with InferenceEngine(store=store) as engine:
            cold = engine.detect_wave(sequence, range(10), model)
            warm = engine.detect_wave(sequence, range(10), model)
        detections_equal(direct, cold)
        detections_equal(direct, warm)

    def test_detect_one(self, sequence):
        model = pv_rcnn(seed=5)
        with InferenceEngine() as engine:
            known = {}
            first = engine.detect_one(sequence, 3, model, known=known)
            again = engine.detect_one(sequence, 3, model, known=known)
        assert first is again

    def test_store_stats_exposed(self, sequence):
        with InferenceEngine(store=DetectionStore()) as engine:
            engine.detect_wave(sequence, [0], pv_rcnn(seed=5))
            assert engine.store.stats().misses == 1
        with InferenceEngine() as engine:
            assert engine.store is None

