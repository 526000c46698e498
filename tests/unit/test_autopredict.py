"""Unit tests for leave-one-out predictor calibration."""

import pytest

from repro.core import (
    HierarchicalMultiAgentSampler,
    MASTConfig,
    PredictorCalibration,
    calibrate_predictors,
)
from repro.models import GroundTruthDetector, pv_rcnn
from repro.query import ObjectFilter, SpatialPredicate
from repro.simulation import ScriptedScenario, semantickitti_like

FILTERS = [
    ObjectFilter(label="Car", spatial=SpatialPredicate("<=", 20.0)),
    ObjectFilter(label="Car", spatial=SpatialPredicate(">=", 5.0)),
]


def make_calibration(**kwargs):
    defaults = dict(
        linear_mae=1.0, st_mae=0.5, linear_bias=0.1, st_bias=0.4,
        linear_decision_error=0.2, st_decision_error=0.1, n_evaluations=10,
    )
    defaults.update(kwargs)
    return PredictorCalibration(**defaults)


@pytest.fixture(scope="module")
def sampling():
    sequence = semantickitti_like(0, n_frames=600, with_points=False)
    sampler = HierarchicalMultiAgentSampler(MASTConfig(seed=2))
    return sampler.sample(sequence, pv_rcnn(seed=5))


class TestPredictorCalibration:
    def test_per_frame_winner_uses_decision_error(self):
        calibration = make_calibration(
            linear_decision_error=0.05, st_decision_error=0.2,
        )
        assert calibration.per_frame_winner == "linear"
        assert make_calibration().per_frame_winner == "st"

    def test_avg_winner_uses_bias(self):
        assert make_calibration(linear_bias=0.1, st_bias=0.4).avg_winner == "linear"
        assert make_calibration(linear_bias=-0.5, st_bias=0.1).avg_winner == "st"

    def test_recommended_assignment_structure(self):
        assignment = make_calibration().recommended_assignment()
        assert set(assignment) == {"Avg", "Count", "Med", "Min", "Max"}
        assert assignment["Count"] == "st"
        assert assignment["Avg"] == "linear"

    def test_apply_to_config(self):
        config = make_calibration().apply_to(MASTConfig())
        assert config.retrieval_predictor == "st"
        assert config.predictor_by_operator["Avg"] == "linear"
        assert config.predictor_by_operator["Med"] == "st"


class TestCalibrateOnRealSampling:
    def test_produces_finite_profile(self, sampling):
        calibration = calibrate_predictors(sampling, FILTERS)
        assert calibration.n_evaluations > 0
        assert calibration.linear_mae >= 0
        assert calibration.st_mae >= 0
        assert 0.0 <= calibration.st_decision_error <= 1.0

    def test_max_holdouts_cap(self, sampling):
        small = calibrate_predictors(sampling, FILTERS, max_holdouts=10)
        large = calibrate_predictors(sampling, FILTERS, max_holdouts=200)
        assert small.n_evaluations <= large.n_evaluations

    def test_requires_filters_and_samples(self, sampling):
        with pytest.raises(ValueError, match="filter"):
            calibrate_predictors(sampling, [])

    def test_deterministic(self, sampling):
        a = calibrate_predictors(sampling, FILTERS)
        b = calibrate_predictors(sampling, FILTERS)
        assert a == b


def _per_filter_reference(sampling, object_filters, config, max_holdouts=200):
    """The calibration nest as first written — every (filter, hold-out)
    combination analyses its own pair — kept as the specification."""
    import numpy as np

    from repro.core import analyze_pair

    sampled = [int(i) for i in sampling.sampled_ids]
    timestamps = sampling.timestamps
    interior = sampled[1:-1]
    stride = max(1, len(interior) // max(1, max_holdouts // len(object_filters)))
    linear_errors, st_errors, linear_decisions, st_decisions = [], [], [], []
    for object_filter in object_filters:
        for frame_id in interior[::stride]:
            position = sampled.index(frame_id)
            left, right = sampled[position - 1], sampled[position + 1]
            t_left, t_right = float(timestamps[left]), float(timestamps[right])
            t_mid = float(timestamps[frame_id])
            truth = object_filter.count(sampling.detections[frame_id])
            left_count = object_filter.count(sampling.detections[left])
            right_count = object_filter.count(sampling.detections[right])
            linear = left_count + (right_count - left_count) * (
                (t_mid - t_left) / (t_right - t_left)
            )
            estimate = analyze_pair(
                sampling.detections[left], sampling.detections[right],
                t_left, t_right, max_distance=config.match_max_distance,
            )
            st = object_filter.count(estimate.predict(t_mid))
            linear_errors.append(linear - truth)
            st_errors.append(st - truth)
            for theta in (1, 3, 5, 7, 9):
                linear_decisions.append(int((np.floor(linear) >= theta) != (truth >= theta)))
                st_decisions.append(int((st >= theta) != (truth >= theta)))
    linear_arr, st_arr = np.asarray(linear_errors), np.asarray(st_errors)
    return PredictorCalibration(
        linear_mae=float(np.mean(np.abs(linear_arr))),
        st_mae=float(np.mean(np.abs(st_arr))),
        linear_bias=float(np.mean(linear_arr)),
        st_bias=float(np.mean(st_arr)),
        linear_decision_error=float(np.mean(linear_decisions)),
        st_decision_error=float(np.mean(st_decisions)),
        n_evaluations=int(len(linear_arr)),
    )


class TestHoldoutPairsAnalysedOnce:
    """Each hold-out's pair is analysed once, not once per filter, and
    the calibration record is the one the per-filter nest produced."""

    @pytest.fixture()
    def analyses(self, monkeypatch):
        from repro.core import stpc

        calls = []
        real = stpc.analyze_pair

        def counting(objects_start, objects_end, t_start, t_end, **kwargs):
            calls.append((t_start, t_end))
            return real(objects_start, objects_end, t_start, t_end, **kwargs)

        monkeypatch.setattr(stpc, "analyze_pair", counting)
        return calls

    def test_record_unchanged_and_one_analysis_per_holdout(self, sampling, analyses):
        config = MASTConfig()
        expected = _per_filter_reference(sampling, FILTERS, config)
        assert calibrate_predictors(sampling, FILTERS, config=config) == expected
        assert len(analyses) == expected.n_evaluations // len(FILTERS)
        assert len(set(analyses)) == len(analyses)


class TestRegimeSensitivity:
    """Calibration must pick the right predictor where the winner is
    unambiguous by construction."""

    def test_constant_velocity_world_prefers_st(self):
        """Pure constant-velocity motion: ST prediction is *exact* while
        linear count interpolation misses every mid-gap crossing."""
        scenario = ScriptedScenario(fps=10.0, duration=20.0)
        # Cars sweep through a 20 m disc at staggered times: counts rise
        # and fall inside gaps.
        for k in range(10):
            scenario.add_actor(
                "Car",
                [(0.0, -60.0 + 7 * k, 3.0 * (k % 3)),
                 (20.0, 80.0 + 7 * k, 3.0 * (k % 3))],
            )
        sequence = scenario.build()
        sampler = HierarchicalMultiAgentSampler(
            MASTConfig(seed=1, budget_fraction=0.15)
        )
        sampling = sampler.sample(sequence, GroundTruthDetector())
        calibration = calibrate_predictors(
            sampling,
            [ObjectFilter(label="Car", spatial=SpatialPredicate("<=", 20.0),
                          confidence=0.0)],
        )
        assert calibration.st_mae <= calibration.linear_mae + 1e-9
        assert calibration.per_frame_winner == "st"

    def test_static_world_keeps_both_predictors_exact(self):
        """Nothing moves: both predictors are exact, errors are zero."""
        scenario = ScriptedScenario(fps=10.0, duration=10.0)
        for k in range(5):
            scenario.add_actor(
                "Car", [(0.0, 5.0 + 3 * k, 0.0), (10.0, 5.0 + 3 * k, 0.0)]
            )
        sampling = HierarchicalMultiAgentSampler(
            MASTConfig(seed=1, budget_fraction=0.2)
        ).sample(scenario.build(), GroundTruthDetector())
        calibration = calibrate_predictors(
            sampling,
            [ObjectFilter(label="Car", confidence=0.0)],
        )
        assert calibration.linear_mae == pytest.approx(0.0, abs=1e-9)
        assert calibration.st_mae == pytest.approx(0.0, abs=1e-9)


class TestPipelineIntegration:
    def test_pipeline_calibration_installs_assignment(self):
        from repro.core import MASTPipeline

        sequence = semantickitti_like(0, n_frames=400, with_points=False)
        pipeline = MASTPipeline(MASTConfig(seed=2)).fit(sequence, pv_rcnn(seed=5))
        calibration = pipeline.calibrate_predictors(FILTERS)
        expected = calibration.recommended_assignment()
        assert pipeline.config.predictor_by_operator == expected
        # Queries still run after recalibration.
        pipeline.query("SELECT AVG OF COUNT(Car DIST <= 20)")

    def test_pipeline_calibration_requires_fit(self):
        from repro.core import MASTPipeline

        with pytest.raises(ValueError, match="fit"):
            MASTPipeline().calibrate_predictors(FILTERS)
