"""Integration tests across traffic regimes and calibration flows."""

import numpy as np
import pytest

from repro.baselines import PAPER_METHODS
from repro.core import MASTConfig, MASTPipeline
from repro.evalx import evaluate_method, oracle_truth
from repro.models import pv_rcnn
from repro.query import generate_workload
from repro.simulation import (
    empty_road_scenario,
    highway_scenario,
    parking_lot_scenario,
    urban_scenario,
)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(rng=0)


def run_methods(sequence, workload, seed=1):
    """The Oracle truth and each paper method's report on ``sequence``.

    A scenario world is not a dataset an ``ExperimentFlowSpec`` can
    name, so the experiment's two units run directly.
    """
    model = pv_rcnn(seed=5)
    truth = oracle_truth(sequence, model, workload)
    reports = {
        spec.name: evaluate_method(spec, sequence, model, MASTConfig(seed=seed), truth)
        for spec in PAPER_METHODS
    }
    return truth, reports


class TestRegimeExperiments:
    @pytest.mark.parametrize(
        "factory",
        [highway_scenario, urban_scenario, parking_lot_scenario],
        ids=["highway", "urban", "parking"],
    )
    def test_methods_stay_usable(self, factory, workload):
        sequence = factory(n_frames=600, seed=3, with_points=False)
        _, reports = run_methods(sequence, workload)
        for method_report in reports.values():
            assert method_report.mean_retrieval_f1 > 0.6

    def test_empty_road_drops_most_queries(self, workload):
        """Near-empty traffic: most retrieval queries have zero oracle
        cardinality and are omitted, per the paper's protocol."""
        sequence = empty_road_scenario(n_frames=600, seed=3, with_points=False)
        truth, _ = run_methods(sequence, workload)
        assert len(truth.retrieval_queries) < 100

    def test_mast_ordering_holds_across_seeds_on_dynamic_traffic(self, workload):
        """Over several policy seeds on dynamic traffic, MAST's mean F1
        does not lose to Seiden-PC's (the paper's headline ordering)."""
        sequence = urban_scenario(n_frames=800, seed=3, with_points=False)
        mast_scores, seiden_scores = [], []
        for seed in (1, 2, 3):
            _, reports = run_methods(sequence, workload, seed)
            mast_scores.append(reports["mast"].mean_retrieval_f1)
            seiden_scores.append(reports["seiden_pc"].mean_retrieval_f1)
        assert np.mean(mast_scores) >= np.mean(seiden_scores) - 0.005


class TestCalibratedPipelineFlow:
    def test_calibration_does_not_degrade_accuracy(self):
        """Installing the calibrated assignment must keep query accuracy
        in the same band as the paper's fixed assignment."""
        from repro.baselines import OracleCountProvider
        from repro.evalx import aggregate_accuracy
        from repro.query import QueryEngine

        sequence = urban_scenario(n_frames=800, seed=3, with_points=False)
        model = pv_rcnn(seed=5)
        oracle = QueryEngine(OracleCountProvider(sequence, model))

        default_pipeline = MASTPipeline(MASTConfig(seed=1)).fit(sequence, model)
        calibrated_pipeline = MASTPipeline(MASTConfig(seed=1)).fit(sequence, model)
        calibrated_pipeline.calibrate_predictors()

        texts = [
            "SELECT AVG OF COUNT(Car DIST <= 20)",
            "SELECT MED OF COUNT(Car DIST >= 5)",
            "SELECT COUNT FRAMES WHERE COUNT(Car DIST <= 20) >= 1",
        ]
        def mean_accuracy(pipeline):
            scores = []
            for text in texts:
                truth = oracle.execute(text).value
                predicted = pipeline.query(text).value
                scores.append(aggregate_accuracy(predicted, truth))
            return float(np.mean(scores))

        assert mean_accuracy(calibrated_pipeline) > mean_accuracy(default_pipeline) - 0.1
