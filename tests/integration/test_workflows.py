"""Integration tests: persistence round-trips, batched ingestion through the
sequence catalog, point-based detection end to end, and the theory bounds applied
to real pipeline output."""

import numpy as np
import pytest

from repro.baselines import OracleCountProvider
from repro.core import MASTConfig, MASTPipeline
from repro.corpus import SequenceCatalog
from repro.data import (
    load_detections,
    load_sequence,
    save_detections,
    save_sequence,
)
from repro.evalx import (
    compute_error_bounds,
    estimate_lipschitz,
    extrema_coverage,
    observed_errors,
    study_sampling,
)
from repro.models import ClusteringDetector, GroundTruthDetector, pv_rcnn
from repro.query import ObjectFilter, QueryEngine, SpatialPredicate
from repro.simulation import semantickitti_like


class TestPersistenceWorkflow:
    def test_sample_save_reload_requery(self, tmp_path):
        """Checkpoint a sampling run and answer queries after reload."""
        sequence = semantickitti_like(0, n_frames=300, with_points=False)
        model = pv_rcnn(seed=2)
        pipe = MASTPipeline(MASTConfig(seed=3)).fit(sequence, model)

        seq_path = save_sequence(sequence, tmp_path / "seq.npz")
        det_path = save_detections(
            pipe.sampling_result.detections, tmp_path / "det.npz",
            model_name=model.name,
        )

        restored_seq = load_sequence(seq_path)
        restored_det, model_name = load_detections(det_path)
        assert model_name == "pv_rcnn"

        from repro.core import MASTIndex, SamplingResult, STCountProvider

        restored_result = SamplingResult(
            sequence_name=restored_seq.name,
            n_frames=len(restored_seq),
            timestamps=restored_seq.timestamps,
            budget=len(restored_det),
            sampled_ids=np.array(sorted(restored_det)),
            detections=restored_det,
        )
        index = MASTIndex.build(restored_result, MASTConfig(seed=3))
        engine = QueryEngine(STCountProvider(index))
        text = "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1"
        assert engine.execute(text).id_set() == pipe.query(text).id_set()


class TestDatabaseIngestion:
    def test_periodic_arrival_through_database(self):
        full = semantickitti_like(0, n_frames=300, with_points=False)
        db = SequenceCatalog()
        db.register_sequence(full.head(150, name=full.name))
        model = pv_rcnn(seed=2)
        pipe = MASTPipeline(MASTConfig(seed=3)).fit(db.sequence(full.name), model)

        batch = list(full[150:300])
        pipe.extend(batch, extended=db.extend_sequence(full.name, batch))
        assert pipe.sampling_result.n_frames == db.n_frames(full.name) == 300
        result = pipe.query("SELECT FRAMES WHERE COUNT(Car) >= 1")
        assert result.n_frames == 300


class TestPointBasedDetection:
    def test_clustering_detector_in_pipeline(self):
        """The real point path: points -> clusters -> boxes -> queries."""
        sequence = semantickitti_like(0, n_frames=60)
        pipe = MASTPipeline(MASTConfig(seed=3, budget_fraction=0.2)).fit(
            sequence, ClusteringDetector()
        )
        result = pipe.query("SELECT FRAMES WHERE COUNT(Car DIST <= 30) >= 1")
        assert 0 <= result.cardinality <= 60

    def test_clustering_recall_against_ground_truth(self):
        sequence = semantickitti_like(0, n_frames=20)
        detector = ClusteringDetector()
        gt_total = sum(f.n_objects for f in sequence)
        det_total = sum(len(detector.detect(f)) for f in sequence)
        # Weak classical detector: should find a decent share of objects.
        assert det_total > 0.3 * gt_total


class TestBoundsOnRealPipeline:
    def test_avg_error_within_bound_given_true_lipschitz(self):
        """Thm 6.1 with a perfect detector and the exact L_y."""
        sequence = semantickitti_like(0, n_frames=500, with_points=False)
        model = GroundTruthDetector()
        pipe = MASTPipeline(MASTConfig(seed=3)).fit(sequence, model)

        object_filter = ObjectFilter(
            label="Car", spatial=SpatialPredicate("<=", 30.0), confidence=0.0
        )
        oracle = OracleCountProvider(sequence, model)
        y = oracle.count_series(object_filter)
        ids = pipe.sampling_result.sampled_ids
        lipschitz = estimate_lipschitz(y)
        bounds = compute_error_bounds(y[ids], ids, len(y), lipschitz=lipschitz)
        errors = observed_errors(y, ids)
        # The Avg/Med bounds are unconditional given full extrema coverage;
        # MAST covers most extrema, so errors stay within the formal bound.
        assert errors["avg"] <= bounds.avg_bound
        assert errors["med"] <= bounds.med_bound

    def test_mast_samples_cover_extrema_better_than_uniform_spacing(self):
        sequence = semantickitti_like(0, n_frames=500, with_points=False)
        model = GroundTruthDetector()
        pipe = MASTPipeline(MASTConfig(seed=3)).fit(sequence, model)
        object_filter = ObjectFilter(
            label="Car", spatial=SpatialPredicate(">=", 5.0), confidence=0.0
        )
        y = OracleCountProvider(sequence, model).count_series(object_filter)
        study = study_sampling(y, pipe.sampling_result.sampled_ids)
        assert study.coverage > 0.3
        assert extrema_coverage(y, pipe.sampling_result.sampled_ids,
                                tolerance=5, smooth_window=5) >= study.coverage
