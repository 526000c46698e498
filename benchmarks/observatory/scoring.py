"""Answer quality against a full-oracle reference.

The reference (every frame of every sequence run through the detector,
the evaluation workload answered exactly) is the benchmark's own work:
it is computed once per run, outside set-up and every timed phase.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from . import api, inputs

__all__ = ["CorpusReference", "corpus_reference", "score_answers"]


@dataclass(frozen=True)
class CorpusReference:
    """Exact corpus-wide answers of the evaluation workload."""

    #: (query, oracle ``(sequence, frame_id)`` set), zero-cardinality dropped (§7.1)
    retrieval: list[tuple[object, set[tuple[str, int]]]]
    #: (query, exact corpus-wide value)
    aggregates: list[tuple[object, float]]


def corpus_reference(catalog: api.SequenceCatalog) -> CorpusReference:
    """Detect every frame once and answer the evaluation workload exactly."""
    workload = inputs.evaluation_workload()
    config = inputs.config()
    with api.InferenceEngine.from_config(
        config, store=api.DetectionStore()
    ) as engine:
        truth = api.corpus_oracle_truth(
            catalog,
            inputs.model(),
            retrieval_queries=list(workload.retrieval),
            aggregate_queries=list(workload.aggregates),
            engine=engine,
        )
    return CorpusReference(
        retrieval=list(truth.retrieval_truth), aggregates=list(truth.aggregate_truth)
    )


def score_answers(
    answer: Callable[[object], object], reference: CorpusReference
) -> tuple[float, float]:
    """``(agg_error, retrieval_f1)`` of ``answer`` over the evaluation workload.

    ``agg_error`` is the mean of ``1 - aggregate_accuracy`` over the 30
    aggregate queries; ``retrieval_f1`` the mean F1 over the retrieval
    queries the oracle gives a non-empty answer to.
    """
    f1_scores = [
        api.f1_score(answer(query).id_set(), expected)
        for query, expected in reference.retrieval
    ]
    errors = [
        1.0 - api.aggregate_accuracy(answer(query).value, expected)
        for query, expected in reference.aggregates
    ]
    return sum(errors) / len(errors), sum(f1_scores) / len(f1_scores)
