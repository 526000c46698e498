"""Edge cases across modules that the main suites do not reach."""

import numpy as np
import pytest

from repro.data import ObjectArray, load_detections, load_sequence
from repro.simulation import LidarConfig, WorldConfig
from repro.utils.timing import STAGE_QUERY, CostLedger


class TestStorageVersioning:
    def test_sequence_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, format_version=np.int64(99), timestamps=np.zeros(1))
        with pytest.raises(ValueError, match="version"):
            load_sequence(path)

    def test_detections_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(
            path, format_version=np.int64(99),
            frame_ids=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="version"):
            load_detections(path)

    @staticmethod
    def v1_members() -> dict[str, np.ndarray]:
        """The format-1 layout: one row table with a frame index column."""
        return {
            "format_version": np.int64(1),
            "obj_frame_index": np.zeros(1, dtype=np.int64),
            "obj_labels": np.array(["Car"], dtype="<U16"),
            "obj_centers": np.zeros((1, 3)),
            "obj_sizes": np.ones((1, 3)),
            "obj_yaws": np.zeros(1),
            "obj_scores": np.ones(1),
        }

    def test_v1_sequence_is_refused(self, tmp_path):
        path = tmp_path / "v1.npz"
        np.savez_compressed(
            path, name=np.str_("s"), fps=np.float64(10.0), timestamps=np.zeros(1),
            ego_poses=np.zeros((1, 3)), **self.v1_members(),
        )
        with pytest.raises(ValueError, match="version 1"):
            load_sequence(path)

    def test_v1_detections_are_refused(self, tmp_path):
        path = tmp_path / "v1.npz"
        np.savez_compressed(
            path, model_name=np.str_("pv_rcnn"),
            frame_ids=np.zeros(1, dtype=np.int64), **self.v1_members(),
        )
        with pytest.raises(ValueError, match="version 1"):
            load_detections(path)


class TestLidarConfigValidation:
    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            LidarConfig(sensor_range=0)

    def test_rejects_negative_points(self):
        with pytest.raises(ValueError):
            LidarConfig(ground_points=-1)

    def test_zero_density_ok(self):
        LidarConfig(ground_points=0, clutter_points=0)


class TestWorldConfigValidation:
    def test_rejects_bad_spawn_rate(self):
        with pytest.raises(ValueError):
            WorldConfig(base_spawn_rate=0)

    def test_rejects_bad_lifetime(self):
        with pytest.raises(ValueError):
            WorldConfig(mean_lifetime=0)


class TestQueryEngineCostCharging:
    class Provider:
        simulated_query_cost_per_frame = 1e-3
        n_frames = 100

        def count_series_many(self, filters, *, start=0):
            return {f: np.zeros(self.n_frames - start) for f in filters}

    def test_each_query_charges_simulated_cost(self):
        from repro.query import QueryEngine

        engine = QueryEngine(self.Provider())
        engine.execute("SELECT AVG OF COUNT(Car)")
        engine.execute("SELECT MED OF COUNT(Car)")
        assert engine.ledger.simulated[STAGE_QUERY] == pytest.approx(0.2)
        # Measured wall-clock is also recorded.
        assert engine.ledger.measured[STAGE_QUERY] > 0

    def test_query_count_increments_once_per_query(self):
        from repro.query import QueryEngine

        engine = QueryEngine(self.Provider())
        engine.execute("SELECT AVG OF COUNT(Car)")
        assert engine.ledger.counts[STAGE_QUERY] == 1


class TestObjectArrayReprAndViews:
    def test_repr_mentions_labels(self):
        objects = ObjectArray(
            labels=np.array(["Car"]),
            centers=np.zeros((1, 3)),
            sizes=np.ones((1, 3)),
            yaws=np.zeros(1),
            scores=np.ones(1),
        )
        assert "Car" in repr(objects)

    def test_frame_detections_views_have_correct_scores(self, kitti_sequence):
        from repro.models import pv_rcnn

        output = pv_rcnn(seed=3).detect(kitti_sequence[30])
        for view, score in zip(output.detections(), output.objects.scores):
            assert view.score == pytest.approx(float(score))


class TestLedgerEdge:
    def test_total_for_unknown_stage_is_zero(self):
        assert CostLedger().total("nonexistent") == 0.0

    def test_merge_empty(self):
        ledger = CostLedger()
        ledger.merge(CostLedger())
        assert ledger.grand_total == 0.0


class TestWorkloadVariations:
    def test_per_operator_scaling(self):
        from repro.query import generate_aggregate_workload

        queries = generate_aggregate_workload(per_operator=2, rng=0)
        assert len(queries) == 10

    def test_different_rng_different_aggregates(self):
        from repro.query import generate_aggregate_workload

        a = generate_aggregate_workload(rng=1)
        b = generate_aggregate_workload(rng=2)
        assert a != b


class TestUniformIdsDegenerate:
    def test_two_frames(self):
        from repro.core import uniform_ids

        assert list(uniform_ids(2, 5)) == [0, 1]

    def test_budget_one_clamped_to_two(self):
        from repro.core import uniform_ids

        ids = uniform_ids(100, 1)
        assert len(ids) == 2
