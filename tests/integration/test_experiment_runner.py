"""Integration tests for the experiment flow (the bench harness core)."""

import numpy as np
import pytest

from repro.baselines import ABLATION_METHODS, ORACLE, PAPER_METHODS
from repro.evalx import ExperimentFlowSpec, experiment_flow
from repro.flow import FlowRunner


def run_report(checkpoint_dir, n_frames, methods=PAPER_METHODS, model="pv_rcnn"):
    """A ``semantickitti`` report at 10 %: workload seed 0, policy seed 1."""
    spec = ExperimentFlowSpec(
        n_frames=n_frames,
        model=model,
        model_seed=5,
        seed=1,
        methods=tuple(method.name for method in methods),
        workload_seed=0,
    )
    result = FlowRunner(experiment_flow(spec), checkpoint_dir=checkpoint_dir).run()
    return result["report:10pct"]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    return run_report(tmp_path_factory.mktemp("experiment"), 600)


class TestReportStructure:
    def test_all_methods_present(self, report):
        assert set(report.methods) == {m.name for m in PAPER_METHODS}

    def test_zero_cardinality_queries_dropped(self, report):
        assert 0 < report.n_retrieval_queries <= 100

    def test_retrieval_evaluations_complete(self, report):
        for method_report in report.methods.values():
            assert len(method_report.retrieval) == report.n_retrieval_queries

    def test_aggregate_evaluations_complete(self, report):
        for method_report in report.methods.values():
            assert len(method_report.aggregates) == report.n_aggregate_queries

    def test_metrics_in_unit_range(self, report):
        for method_report in report.methods.values():
            for evaluation in method_report.retrieval + method_report.aggregates:
                assert 0.0 <= evaluation.metric <= 1.0

    def test_selectivities_recorded(self, report):
        for evaluation in report["mast"].retrieval:
            assert 0.0 < evaluation.selectivity <= 1.0

    def test_aggregate_accuracy_by_operator(self, report):
        accuracy = report["mast"].aggregate_accuracy_by_operator()
        assert set(accuracy) == {"Avg", "Med", "Count", "Min", "Max"}
        assert all(0.0 <= v <= 100.0 for v in accuracy.values())

    def test_ledgers_populated(self, report):
        assert report.oracle_ledger.total("deep_model") > 0
        for method_report in report.methods.values():
            assert method_report.ledger.total("deep_model") > 0

    def test_sampling_attached(self, report):
        assert report["mast"].sampling is not None
        assert report["seiden_pc"].sampling is not None


class TestResultQuality:
    def test_all_methods_beat_trivial_f1(self, report):
        for method_report in report.methods.values():
            assert method_report.mean_retrieval_f1 > 0.5

    def test_method_model_cost_is_budget_share(self, report):
        oracle_cost = report.oracle_ledger.total("deep_model")
        for method_report in report.methods.values():
            share = method_report.ledger.total("deep_model") / oracle_cost
            assert share == pytest.approx(0.1, abs=0.01)

    def test_st_methods_have_indexing_cost(self, report):
        assert report["mast"].ledger.total("indexing") > 0
        assert report["seiden_pcst"].ledger.total("indexing") > 0
        assert report["seiden_pc"].ledger.total("indexing") == 0


class TestVariants:
    def test_oracle_method_scores_perfectly(self, tmp_path):
        report = run_report(tmp_path, 200, methods=(ORACLE,))
        oracle_report = report["oracle"]
        assert oracle_report.mean_retrieval_f1 == pytest.approx(1.0)
        for evaluation in oracle_report.aggregates:
            assert evaluation.metric == pytest.approx(1.0)

    def test_ablation_methods_run(self, tmp_path):
        report = run_report(tmp_path, 300, methods=ABLATION_METHODS)
        assert set(report.methods) == {m.name for m in ABLATION_METHODS}

    def test_other_oracle_model(self, tmp_path):
        report = run_report(tmp_path, 300, model="second")
        assert report.model == "second"
        assert report["mast"].mean_retrieval_f1 > 0.5

    def test_determinism(self, tmp_path):
        a = run_report(tmp_path / "a", 200)
        b = run_report(tmp_path / "b", 200)
        assert a["mast"].mean_retrieval_f1 == b["mast"].mean_retrieval_f1
        assert np.array_equal(
            a["mast"].sampling.sampled_ids, b["mast"].sampling.sampled_ids
        )
