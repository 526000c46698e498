"""Experiment units: the Oracle pass and one scored method.

These are the steps of :func:`~repro.evalx.flows.experiment_flow`, the
one orchestrator every experiment runs through:

1. :func:`oracle_truth` runs the Oracle (full deep-model processing),
   answers the whole workload exactly and drops retrieval queries whose
   oracle cardinality is zero (paper §7.1: "we omit the generated
   retrieval queries with a cardinality of 0");
2. :func:`evaluate_method` runs one method spec's sampler, hands the run
   to a :class:`~repro.core.pipeline.MASTPipeline` on the spec's
   predictor assignment, answers the same workload through it, and
   scores F1 / aggregate accuracy against the Oracle's answers;
3. an :class:`ExperimentReport` bundles the truth and every method's
   :class:`MethodReport` with their cost ledgers.

Both units are pure over their inputs.  With a ``recording``, the Oracle
pass keeps its detections (:class:`~repro.inference.DetectionRecording`)
so that methods detecting through its replaying wrapper are billed
exactly as before but simulate each frame only once.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, overload

from repro.baselines.oracle import OracleCountProvider
from repro.baselines.variants import MethodSpec
from repro.core.config import MASTConfig
from repro.core.pipeline import MASTPipeline
from repro.core.sampler import SamplingResult
from repro.data.sequence import FrameSequence
from repro.evalx.metrics import aggregate_accuracy, f1_score
from repro.inference import DetectionRecording
from repro.models.base import DetectionModel
from repro.query.ast import (
    AggregateQuery,
    AggregateResult,
    CompoundRetrievalQuery,
    RetrievalQuery,
    RetrievalResult,
)
from repro.query.engine import QueryEngine
from repro.query.workload import QueryWorkload
from repro.utils.timing import CostLedger

__all__ = [
    "QueryEvaluation",
    "MethodReport",
    "ExperimentReport",
    "MethodExecutor",
    "OracleTruth",
    "oracle_truth",
    "evaluate_method",
]


@dataclass(frozen=True)
class QueryEvaluation:
    """Scored outcome of one query for one method."""

    query_text: str
    kind: str  # "retrieval" or the aggregate operator name
    metric: float  # F1 (retrieval) or aggregate accuracy
    oracle_value: float  # cardinality (retrieval) or aggregate value
    predicted_value: float
    selectivity: float | None = None


@dataclass
class MethodReport:
    """All per-query outcomes of one method on one sequence."""

    method: str
    sequence: str
    retrieval: list[QueryEvaluation] = field(default_factory=list)
    aggregates: list[QueryEvaluation] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)
    sampling: SamplingResult | None = None

    @property
    def mean_retrieval_f1(self) -> float:
        if not self.retrieval:
            return float("nan")
        return sum(e.metric for e in self.retrieval) / len(self.retrieval)

    def aggregate_accuracy_by_operator(self) -> dict[str, float]:
        """Mean aggregate accuracy per operator (in percent, like Tbl 4)."""
        buckets: dict[str, list[float]] = {}
        for evaluation in self.aggregates:
            buckets.setdefault(evaluation.kind, []).append(evaluation.metric)
        return {
            operator: 100.0 * sum(values) / len(values)
            for operator, values in sorted(buckets.items())
        }


@dataclass
class ExperimentReport:
    """Results of all methods on one (sequence, model) pair."""

    sequence: str
    model: str
    n_frames: int
    oracle_ledger: CostLedger
    methods: dict[str, MethodReport]
    n_retrieval_queries: int
    n_aggregate_queries: int

    def __getitem__(self, method_name: str) -> MethodReport:
        return self.methods[method_name]


class MethodExecutor:
    """Answers queries for one method spec.

    Construction runs the method's sampling (or the full Oracle pass).
    A sampled method is a :class:`~repro.core.pipeline.MASTPipeline` on
    the spec's predictor assignment, fed the spec's sampling run: index,
    providers and routing are the pipeline's.
    """

    def __init__(
        self,
        spec: MethodSpec,
        sequence: FrameSequence,
        model: DetectionModel,
        config: MASTConfig,
    ) -> None:
        self.spec = spec
        self.sampling: SamplingResult | None = None
        self._answer: Callable[[Any], RetrievalResult | AggregateResult]
        if spec.make_sampler is None:
            self.ledger = CostLedger()
            provider = OracleCountProvider(sequence, model, ledger=self.ledger)
            self._answer = QueryEngine(provider, ledger=self.ledger).execute
            return
        assignment = config.with_overrides(
            retrieval_predictor=spec.retrieval_predictor,
            predictor_by_operator=dict(spec.predictor_by_operator),
        )
        pipeline = MASTPipeline(assignment)
        self.ledger = pipeline.ledger
        self.sampling = spec.make_sampler(config).sample(
            sequence, model, ledger=self.ledger, engine=pipeline.engine
        )
        pipeline.fit_from_sampling(sequence, model, self.sampling)
        self._answer = pipeline.query

    # ------------------------------------------------------------------
    @overload
    def execute(
        self, query: RetrievalQuery | CompoundRetrievalQuery
    ) -> RetrievalResult: ...
    @overload
    def execute(self, query: AggregateQuery) -> AggregateResult: ...
    def execute(
        self, query: RetrievalQuery | CompoundRetrievalQuery | AggregateQuery
    ) -> RetrievalResult | AggregateResult:
        """Answer one query with the spec's predictor assignment."""
        return self._answer(query)


@dataclass
class OracleTruth:
    """Exact workload answers for one (sequence, model) pair.

    The §7.1 convention is already applied: retrieval queries whose
    oracle cardinality is zero are dropped, so ``retrieval_queries``
    and ``retrieval_results`` are the *kept* pairs.  Everything in here
    is a deterministic function of (sequence, model, workload), which
    is what lets the flow layer checkpoint a truth once and replay it
    under every method step — including the ledger, whose fingerprint
    covers only its run-stable state.
    """

    sequence: str
    model: str
    n_frames: int
    retrieval_queries: list[RetrievalQuery | CompoundRetrievalQuery]
    retrieval_results: list[RetrievalResult]
    aggregate_queries: list[AggregateQuery]
    aggregate_results: list[AggregateResult]
    ledger: CostLedger


def oracle_truth(
    sequence: FrameSequence,
    model: DetectionModel,
    workload: QueryWorkload,
    *,
    recording: DetectionRecording | None = None,
) -> OracleTruth:
    """Run the full-processing Oracle and answer the whole workload.

    With ``recording``, the pass's detections are also recorded there,
    for the same experiment's methods to replay.
    """
    # The provider's own ledger is the detection bill; the truth ledger
    # adds the queries.
    oracle_provider = OracleCountProvider(sequence, model)
    if recording is not None:
        recording.record(
            sequence,
            model,
            {i: oracle_provider.detections_at(i) for i in range(len(sequence))},
        )
    oracle_ledger = CostLedger()
    oracle_ledger.merge(oracle_provider.ledger)
    oracle_engine = QueryEngine(oracle_provider, ledger=oracle_ledger)

    # Oracle answers; drop zero-cardinality retrieval queries (§7.1).
    retrieval_queries: list[RetrievalQuery | CompoundRetrievalQuery] = []
    oracle_retrieval: list[RetrievalResult] = []
    for query in workload.retrieval:
        result = oracle_engine.execute(query)
        if result.cardinality > 0:
            retrieval_queries.append(query)
            oracle_retrieval.append(result)
    oracle_aggregates = [
        oracle_engine.execute(query) for query in workload.aggregates
    ]
    return OracleTruth(
        sequence=sequence.name,
        model=model.name,
        n_frames=len(sequence),
        retrieval_queries=retrieval_queries,
        retrieval_results=oracle_retrieval,
        aggregate_queries=list(workload.aggregates),
        aggregate_results=oracle_aggregates,
        ledger=oracle_ledger,
    )


def evaluate_method(
    spec: MethodSpec,
    sequence: FrameSequence,
    model: DetectionModel,
    config: MASTConfig,
    truth: OracleTruth,
) -> MethodReport:
    """Run one method and score it against precomputed oracle truth.

    Pure over its inputs (detections are deterministic per frame), so
    the flow layer runs one call per method step.  The Oracle method
    detects every frame itself and is billed its own queries, not the
    truth pass's.
    """
    executor = MethodExecutor(spec, sequence, model, config)
    report = MethodReport(
        method=spec.name,
        sequence=sequence.name,
        ledger=executor.ledger,
        sampling=executor.sampling,
    )
    for query, oracle_result in zip(truth.retrieval_queries, truth.retrieval_results):
        predicted = executor.execute(query)
        report.retrieval.append(
            QueryEvaluation(
                query_text=query.describe(),
                kind="retrieval",
                metric=f1_score(predicted.frame_ids, oracle_result.frame_ids),
                oracle_value=float(oracle_result.cardinality),
                predicted_value=float(predicted.cardinality),
                selectivity=oracle_result.selectivity,
            )
        )
    for query, oracle_result in zip(truth.aggregate_queries, truth.aggregate_results):
        predicted = executor.execute(query)
        report.aggregates.append(
            QueryEvaluation(
                query_text=query.describe(),
                kind=query.operator,
                metric=aggregate_accuracy(predicted.value, oracle_result.value),
                oracle_value=oracle_result.value,
                predicted_value=predicted.value,
            )
        )
    return report
