"""Experiment runner: run methods on a sequence and score against Oracle.

This is the harness behind every table and figure bench.  One call to
:func:`run_experiment`:

1. runs the Oracle (full deep-model processing) and answers the whole
   workload exactly;
2. drops retrieval queries whose oracle cardinality is zero (paper §7.1:
   "we omit the generated retrieval queries with a cardinality of 0");
3. for each method spec, runs its sampler, hands the run to a
   :class:`~repro.core.pipeline.MASTPipeline` on the spec's predictor
   assignment, answers the same workload through it, and scores
   F1 / aggregate accuracy against the Oracle's answers;
4. returns a structured report with per-query metrics and cost ledgers.

The Oracle pass of step 1 detects every frame.  The call records those
detections (:class:`~repro.inference.DetectionRecording`) and every
method of step 3 detects through a replaying wrapper of the model, so a
sampled frame is billed exactly as before but simulated only once per
call.  The recording dies with the call.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, overload

from repro.baselines.oracle import OracleCountProvider
from repro.baselines.variants import PAPER_METHODS, MethodSpec
from repro.core.config import MASTConfig
from repro.core.pipeline import MASTPipeline
from repro.core.sampler import SamplingResult
from repro.data.sequence import FrameSequence
from repro.evalx.metrics import aggregate_accuracy, f1_score
from repro.inference import DetectionRecording, DetectionStore, InferenceEngine
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
    "run_experiment",
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
        *,
        oracle_provider: OracleCountProvider | None = None,
        engine: InferenceEngine | None = None,
    ) -> None:
        self.spec = spec
        self.sampling: SamplingResult | None = None
        self._answer: Callable[[Any], RetrievalResult | AggregateResult]
        if spec.make_sampler is None:
            self.ledger = CostLedger()
            provider = oracle_provider or OracleCountProvider(
                sequence, model, ledger=self.ledger, engine=engine
            )
            if oracle_provider is not None:
                self.ledger.merge(oracle_provider.ledger)
            self._answer = QueryEngine(provider, ledger=self.ledger).execute
            return
        assignment = config.with_overrides(
            retrieval_predictor=spec.retrieval_predictor,
            predictor_by_operator=dict(spec.predictor_by_operator),
        )
        pipeline = MASTPipeline(assignment, engine=engine)
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


def run_experiment(
    sequence: FrameSequence,
    model: DetectionModel,
    workload: QueryWorkload,
    *,
    methods: tuple[MethodSpec, ...] = PAPER_METHODS,
    config: MASTConfig | None = None,
    engine: InferenceEngine | None = None,
    detection_store: DetectionStore | None = None,
) -> ExperimentReport:
    """Run ``methods`` on ``sequence`` and score them against the Oracle.

    ``engine`` (or a fresh engine wrapping ``detection_store``) is shared
    by every method's detection passes.  With a store attached, frames
    already detected by an earlier method — or an earlier ``run_experiment``
    call — are served from the store and **not** re-charged to the
    method's ledger, so only pass one when comparing wall-clock cost
    rather than per-method simulated budgets.

    Every method detects through a replay of the Oracle pass's
    detections (see the module docstring): same output, same bill.
    """
    config = config or MASTConfig()

    if engine is None and detection_store is not None:
        engine = InferenceEngine(store=detection_store)
    recording = DetectionRecording()
    truth, oracle_provider = _oracle_pass(
        sequence, model, workload, engine=engine, recording=recording
    )
    replaying = recording.replaying(sequence, model)
    # The Oracle method spec reuses the truth pass instead of re-detecting.
    reports = {
        spec.name: evaluate_method(
            spec, sequence, replaying, config, truth,
            engine=engine, oracle_provider=oracle_provider,
        )
        for spec in methods
    }
    return ExperimentReport(
        sequence=sequence.name,
        model=model.name,
        n_frames=len(sequence),
        oracle_ledger=truth.ledger,
        methods=reports,
        n_retrieval_queries=len(truth.retrieval_queries),
        n_aggregate_queries=len(truth.aggregate_queries),
    )


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
    engine: InferenceEngine | None = None,
    recording: DetectionRecording | None = None,
) -> OracleTruth:
    """Run the full-processing Oracle and answer the whole workload.

    With ``recording``, the pass's detections are also recorded there,
    for the same experiment's methods to replay.
    """
    truth, _ = _oracle_pass(
        sequence, model, workload, engine=engine, recording=recording
    )
    return truth


def _oracle_pass(
    sequence: FrameSequence,
    model: DetectionModel,
    workload: QueryWorkload,
    *,
    engine: InferenceEngine | None,
    recording: DetectionRecording | None,
) -> tuple[OracleTruth, OracleCountProvider]:
    # The provider's own ledger is the detection bill; the truth ledger
    # (and an Oracle method reusing the provider) adds only its queries.
    oracle_provider = OracleCountProvider(sequence, model, engine=engine)
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
    truth = OracleTruth(
        sequence=sequence.name,
        model=model.name,
        n_frames=len(sequence),
        retrieval_queries=retrieval_queries,
        retrieval_results=oracle_retrieval,
        aggregate_queries=list(workload.aggregates),
        aggregate_results=oracle_aggregates,
        ledger=oracle_ledger,
    )
    return truth, oracle_provider


def evaluate_method(
    spec: MethodSpec,
    sequence: FrameSequence,
    model: DetectionModel,
    config: MASTConfig,
    truth: OracleTruth,
    *,
    engine: InferenceEngine | None = None,
    oracle_provider: OracleCountProvider | None = None,
) -> MethodReport:
    """Run one method and score it against precomputed oracle truth.

    Pure over its inputs (detections are deterministic per frame), so
    the flow layer runs one call per method step; :func:`run_experiment`
    calls it in a loop with a shared ``oracle_provider``.
    """
    executor = MethodExecutor(
        spec,
        sequence,
        model,
        config,
        oracle_provider=oracle_provider if spec.is_oracle else None,
        engine=engine,
    )
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
