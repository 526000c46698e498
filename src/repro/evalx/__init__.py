"""Evaluation: metrics, experiment runner, error bounds, sampling studies."""

from repro.evalx.bounds import (
    ErrorBounds,
    a_constant,
    b_constant,
    budget_for_average_error,
    c_constant,
    compute_error_bounds,
    estimate_lipschitz,
    observed_errors,
    piecewise_linear_approximation,
)
from repro.evalx.corpus import (
    CorpusExperimentReport,
    CorpusPolicyReport,
    CorpusTruth,
    corpus_oracle_truth,
    score_policy,
)
from repro.evalx.flows import (
    CorpusFlowSpec,
    ExperimentFlowSpec,
    corpus_digest,
    corpus_flow,
    experiment_digest,
    experiment_flow,
)
from repro.evalx.intervals import (
    SUPPORTED_OPERATORS,
    ConfidenceInterval,
    aggregate_interval,
)
from repro.evalx.metrics import (
    aggregate_accuracy,
    f1_score,
    precision_recall_f1,
    selectivity,
)
from repro.evalx.reporting import (
    format_percent,
    format_seconds,
    format_series,
    format_table,
)
from repro.evalx.runner import (
    ExperimentReport,
    MethodExecutor,
    MethodReport,
    OracleTruth,
    QueryEvaluation,
    evaluate_method,
    oracle_truth,
)
from repro.evalx.sampling_study import (
    SamplingStudy,
    extrema_coverage,
    local_extrema,
    sampling_density_profile,
    study_sampling,
)

__all__ = [
    "ConfidenceInterval",
    "CorpusFlowSpec",
    "ErrorBounds",
    "ExperimentFlowSpec",
    "OracleTruth",
    "SUPPORTED_OPERATORS",
    "aggregate_interval",
    "ExperimentReport",
    "MethodExecutor",
    "MethodReport",
    "QueryEvaluation",
    "SamplingStudy",
    "a_constant",
    "aggregate_accuracy",
    "b_constant",
    "budget_for_average_error",
    "c_constant",
    "CorpusExperimentReport",
    "CorpusPolicyReport",
    "CorpusTruth",
    "compute_error_bounds",
    "corpus_digest",
    "corpus_flow",
    "corpus_oracle_truth",
    "evaluate_method",
    "experiment_digest",
    "experiment_flow",
    "oracle_truth",
    "score_policy",
    "estimate_lipschitz",
    "extrema_coverage",
    "f1_score",
    "format_percent",
    "format_seconds",
    "format_series",
    "format_table",
    "local_extrema",
    "observed_errors",
    "piecewise_linear_approximation",
    "precision_recall_f1",
    "sampling_density_profile",
    "selectivity",
    "study_sampling",
]
