"""Determinism suite: the detection store's state never changes results.

Detectors are deterministic per frame, so a warm store must be a pure
cost change: the sampled ids, the detections, the index contents and the
query answers have to be bit-identical across cold / warm detection
stores.  Only the billed invocations and the hit counters may differ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MASTConfig
from repro.core.pipeline import MASTPipeline
from repro.inference import DetectionStore
from repro.models import pv_rcnn
from repro.utils.timing import STAGE_MODEL


@pytest.fixture(scope="module")
def sequence():
    from repro.simulation import semantickitti_like

    return semantickitti_like(0, n_frames=120, with_points=False)


QUERIES = (
    "SELECT FRAMES WHERE COUNT(Car) >= 3",
    "SELECT AVG OF COUNT(Car)",
    "SELECT MAX OF COUNT(Pedestrian DIST <= 30)",
)


def fit_and_query(sequence, *, store=None):
    config = MASTConfig(budget_fraction=0.10, seed=3)
    pipeline = MASTPipeline(config, detection_store=store).fit(sequence, pv_rcnn(seed=5))
    sampling = pipeline.sampling_result
    return {
        "sampled_ids": sampling.sampled_ids.copy(),
        "detections": {
            frame_id: objects.centers.copy()
            for frame_id, objects in sampling.detections.items()
        },
        "index_ids": pipeline.index.sampled_ids.copy(),
        "n_indexed": pipeline.index.n_indexed_objects,
        "answers": [repr(pipeline.query(q)) for q in QUERIES],
        "deep_model": pipeline.ledger.simulated[STAGE_MODEL],
        "invocations": pipeline.ledger.invocations(STAGE_MODEL),
    }


def assert_snapshots_equal(a, b, *, same_cost=True):
    assert np.array_equal(a["sampled_ids"], b["sampled_ids"])
    assert sorted(a["detections"]) == sorted(b["detections"])
    for frame_id in a["detections"]:
        assert np.array_equal(a["detections"][frame_id], b["detections"][frame_id])
    assert np.array_equal(a["index_ids"], b["index_ids"])
    assert a["n_indexed"] == b["n_indexed"]
    assert a["answers"] == b["answers"]
    if same_cost:
        assert a["deep_model"] == b["deep_model"]
        assert a["invocations"] == b["invocations"]


class TestStoreDeterminism:
    def test_warm_store_identical_results_zero_invocations(self, sequence):
        store = DetectionStore()
        cold = fit_and_query(sequence, store=store)
        warm = fit_and_query(sequence, store=store)
        assert_snapshots_equal(cold, warm, same_cost=False)
        assert warm["invocations"] == 0
        assert warm["deep_model"] == 0.0
        stats = store.stats()
        assert stats.misses == cold["invocations"]
        assert stats.hits == cold["invocations"]

    def test_store_matches_storeless_run(self, sequence):
        assert_snapshots_equal(
            fit_and_query(sequence),
            fit_and_query(sequence, store=DetectionStore()),
        )

    def test_persistent_store_warm_across_instances(self, sequence, tmp_path):
        cold = fit_and_query(sequence, store=DetectionStore(persist_dir=tmp_path))
        fresh = DetectionStore(persist_dir=tmp_path)  # new process, cold memory
        warm = fit_and_query(sequence, store=fresh)
        assert_snapshots_equal(cold, warm, same_cost=False)
        assert warm["invocations"] == 0
        assert fresh.stats().disk_hits == cold["invocations"]
