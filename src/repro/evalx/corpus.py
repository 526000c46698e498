"""Corpus experiment units: score budget policies against the Oracle.

The steps of :func:`~repro.evalx.flows.corpus_flow`, which extends the
single-sequence experiment to a :class:`~repro.corpus.SequenceCatalog`:

1. :func:`corpus_oracle_truth` detects every frame of every sequence once
   and answers the whole workload exactly, corpus-wide — aggregates via
   the concatenated count series, retrievals as ``(sequence, frame_id)``
   sets — dropping retrieval queries whose oracle cardinality is zero,
   matching the paper's §7.1 convention;
2. :func:`score_policy` fits a :class:`~repro.corpus.CorpusPipeline`
   under one budget policy at the *same total budget*, answers the same
   fan-out workload, and scores corpus-wide aggregate error and
   retrieval F1.

This is the harness behind the allocation accuracy comparison (UCB vs
uniform at equal cost) that ``tests/corpus/test_allocator.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.baselines.oracle import OracleCountProvider
from repro.core.config import MASTConfig
from repro.corpus.catalog import SequenceCatalog
from repro.corpus.pipeline import CorpusPipeline
from repro.evalx.metrics import aggregate_accuracy, f1_score
from repro.inference import InferenceEngine
from repro.models.base import DetectionModel
from repro.query.aggregates import aggregate
from repro.query.ast import AggregateQuery, CompoundRetrievalQuery, RetrievalQuery
from repro.query.engine import QueryEngine, evaluate_query
from repro.utils.timing import CostLedger

__all__ = [
    "CorpusPolicyReport",
    "CorpusExperimentReport",
    "CorpusTruth",
    "corpus_oracle_truth",
    "score_policy",
]

#: Queries the corpus harness understands (unscoped; every query fans
#: out over the whole catalog).
CorpusWorkloadQuery = RetrievalQuery | CompoundRetrievalQuery | AggregateQuery

#: The retrieval subset, answered as corpus-wide ``(sequence, id)`` sets.
CorpusRetrievalQuery = RetrievalQuery | CompoundRetrievalQuery


@dataclass
class CorpusPolicyReport:
    """Corpus-wide accuracy of one budget policy at one total budget."""

    policy: str
    total_frames: int
    frames_by_sequence: dict[str, int]
    retrieval_f1: float
    aggregate_error: float  # mean (1 - aggregate accuracy), in [0, 1]
    n_retrieval_queries: int
    n_aggregate_queries: int
    #: The policy's corpus ledger (every shard's, merged); its digest
    #: covers only the run-stable ``deterministic_state()``.
    ledger: CostLedger = field(default_factory=CostLedger)

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "total_frames": self.total_frames,
            "frames_by_sequence": dict(self.frames_by_sequence),
            "retrieval_f1": self.retrieval_f1,
            "aggregate_error": self.aggregate_error,
            "n_retrieval_queries": self.n_retrieval_queries,
            "n_aggregate_queries": self.n_aggregate_queries,
            "ledger_summary": self.ledger.summary(),
        }


@dataclass
class CorpusExperimentReport:
    """Results of every policy on one (catalog, model) pair."""

    sequences: tuple[str, ...]
    model: str
    total_corpus_frames: int
    oracle_ledger: CostLedger
    policies: dict[str, CorpusPolicyReport]
    n_retrieval_queries: int
    n_aggregate_queries: int

    def __getitem__(self, policy: str) -> CorpusPolicyReport:
        return self.policies[policy]

    def as_dict(self) -> dict[str, object]:
        return {
            "sequences": list(self.sequences),
            "model": self.model,
            "total_corpus_frames": self.total_corpus_frames,
            "n_retrieval_queries": self.n_retrieval_queries,
            "n_aggregate_queries": self.n_aggregate_queries,
            "policies": {
                name: report.as_dict() for name, report in self.policies.items()
            },
        }


class _CorpusOracle:
    """Exact corpus-wide answers from full per-sequence detection.

    One engine per sequence keeps each filter's series; queries evaluate
    through it without charging query seconds to the oracle ledger.
    """

    def __init__(
        self,
        catalog: SequenceCatalog,
        model: DetectionModel,
        *,
        engine: InferenceEngine,
    ) -> None:
        self.ledger = CostLedger()
        self._engines = {
            name: QueryEngine(
                OracleCountProvider(
                    catalog.sequence(name), model, ledger=self.ledger, engine=engine
                )
            )
            for name in catalog.names()
        }

    def retrieval_ids(
        self, query: RetrievalQuery | CompoundRetrievalQuery
    ) -> set[tuple[str, int]]:
        matches: set[tuple[str, int]] = set()
        for name, engine in self._engines.items():
            result = evaluate_query(query, engine.count_series, engine.provider.n_frames)
            for frame_id in result.frame_ids:
                matches.add((name, int(frame_id)))
        return matches

    def aggregate_value(self, query: AggregateQuery) -> float:
        combined = np.concatenate(
            [
                engine.count_series(query.object_filter)
                for engine in self._engines.values()
            ]
        )
        return float(aggregate(query.operator, combined, query.count_predicate))


@dataclass
class CorpusTruth:
    """Exact corpus-wide workload answers (§7.1 filtered).

    ``retrieval_truth`` pairs each kept query with its oracle id set of
    ``(sequence, frame_id)`` tuples; ``aggregate_truth`` pairs each
    aggregate query with its exact corpus-wide value.  Deterministic
    over (catalog, model, workload), so the flow layer checkpoints one
    truth and replays it under every policy step.
    """

    sequences: tuple[str, ...]
    model: str
    total_corpus_frames: int
    retrieval_truth: list[tuple[CorpusRetrievalQuery, set[tuple[str, int]]]]
    aggregate_truth: list[tuple[AggregateQuery, float]]
    ledger: CostLedger


def corpus_oracle_truth(
    catalog: SequenceCatalog,
    model: DetectionModel,
    *,
    retrieval_queries: Sequence[CorpusRetrievalQuery],
    aggregate_queries: Sequence[AggregateQuery],
    engine: InferenceEngine,
) -> CorpusTruth:
    """Detect every frame once and answer the whole corpus workload."""
    oracle = _CorpusOracle(catalog, model, engine=engine)

    # Oracle truth; zero-cardinality retrievals are dropped (§7.1).
    retrieval_truth: list[tuple[CorpusRetrievalQuery, set[tuple[str, int]]]] = []
    for query in retrieval_queries:
        truth = oracle.retrieval_ids(query)
        if truth:
            retrieval_truth.append((query, truth))
    aggregate_truth = [
        (query, oracle.aggregate_value(query)) for query in aggregate_queries
    ]
    return CorpusTruth(
        sequences=catalog.names(),
        model=model.name,
        total_corpus_frames=catalog.total_frames(),
        retrieval_truth=retrieval_truth,
        aggregate_truth=aggregate_truth,
        ledger=oracle.ledger,
    )


def score_policy(
    catalog: SequenceCatalog,
    model: DetectionModel,
    config: MASTConfig,
    truth: CorpusTruth,
    *,
    policy: str,
    round_size: int,
    engine: InferenceEngine,
) -> CorpusPolicyReport:
    """Fit one budget policy and score it against corpus oracle truth."""
    corpus = CorpusPipeline(
        catalog,
        config,
        policy=policy,
        round_size=round_size,
        engine=engine,
    ).fit(model)
    f1_scores = [
        f1_score(corpus.query(query).id_set(), expected)
        for query, expected in truth.retrieval_truth
    ]
    errors = [
        1.0 - aggregate_accuracy(corpus.query(query).value, expected)
        for query, expected in truth.aggregate_truth
    ]
    allocation = corpus.allocation
    assert allocation is not None
    return CorpusPolicyReport(
        policy=policy,
        total_frames=allocation.total_frames,
        frames_by_sequence=dict(allocation.frames_by_sequence),
        retrieval_f1=(
            float(np.mean(f1_scores)) if f1_scores else float("nan")
        ),
        aggregate_error=(
            float(np.mean(errors)) if errors else float("nan")
        ),
        n_retrieval_queries=len(truth.retrieval_truth),
        n_aggregate_queries=len(truth.aggregate_truth),
        ledger=corpus.merged_ledger(),
    )
