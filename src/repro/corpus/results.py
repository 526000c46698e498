"""Fan-out result types and exact cross-shard merging.

Retrieval fan-out merges to per-sequence frame-id sets (frame ids are
only meaningful within their sequence).  Aggregate fan-out concatenates
the per-shard count series (catalog order) and re-applies the operator
— exact for every registered operator, including the non-decomposable
Med: the corpus-wide median of counts is the median of the concatenated
series, and Avg becomes the count-weighted combination of the paper's
per-sequence averages.  Every fan-out path (the serial pipeline, the
served corpus and the process tier's dispatcher) merges through
:func:`merge`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.query.aggregates import aggregate
from repro.query.ast import (
    AggregateQuery,
    AggregateResult,
    CompoundRetrievalQuery,
    RetrievalQuery,
    RetrievalResult,
)
from repro.utils.validation import require

__all__ = [
    "CorpusRetrievalResult",
    "CorpusAggregateResult",
    "merge",
    "merge_retrievals",
    "merge_aggregates",
]


@dataclass(frozen=True)
class CorpusRetrievalResult:
    """Frames satisfying a retrieval query, per sequence."""

    query: RetrievalQuery | CompoundRetrievalQuery
    by_sequence: dict[str, RetrievalResult] = field(repr=False)

    @property
    def cardinality(self) -> int:
        """Matching frames across the whole corpus."""
        return sum(r.cardinality for r in self.by_sequence.values())

    @property
    def n_frames(self) -> int:
        """Total frames across the queried sequences."""
        return sum(r.n_frames for r in self.by_sequence.values())

    @property
    def selectivity(self) -> float:
        """Corpus-wide fraction of frames retrieved, in [0, 1]."""
        total = self.n_frames
        return self.cardinality / total if total else 0.0

    def id_set(self) -> set[tuple[str, int]]:
        """All matches as ``(sequence_name, frame_id)`` pairs."""
        return {
            (name, int(frame_id))
            for name, result in self.by_sequence.items()
            for frame_id in result.frame_ids
        }


@dataclass(frozen=True)
class CorpusAggregateResult:
    """Corpus-wide aggregate value plus the per-sequence answers."""

    query: AggregateQuery
    value: float
    by_sequence: dict[str, AggregateResult] = field(repr=False)


def merge_retrievals(
    query: RetrievalQuery | CompoundRetrievalQuery,
    by_sequence: dict[str, RetrievalResult],
) -> CorpusRetrievalResult:
    """Combine per-shard retrieval answers (frame sets stay per-shard)."""
    require(bool(by_sequence), "cannot merge an empty retrieval fan-out")
    return CorpusRetrievalResult(query=query, by_sequence=dict(by_sequence))


def merge_aggregates(
    query: AggregateQuery, by_sequence: dict[str, AggregateResult]
) -> CorpusAggregateResult:
    """Combine per-shard aggregates via count-series concatenation.

    Every executor populates ``AggregateResult.counts`` (the per-frame
    series the value was reduced from), so the exact corpus-wide value
    is the operator applied to the concatenation — the count-weighted
    combination for Avg, the true global order statistic for Med.
    """
    require(bool(by_sequence), "cannot merge an empty aggregate fan-out")
    parts = []
    for name, result in by_sequence.items():
        require(
            result.counts is not None,
            f"shard {name!r} returned no count series; cannot merge exactly",
        )
        parts.append(np.asarray(result.counts, dtype=float))
    combined = np.concatenate(parts)
    value = aggregate(query.operator, combined, query.count_predicate)
    return CorpusAggregateResult(
        query=query, value=float(value), by_sequence=dict(by_sequence)
    )


def merge(
    query: RetrievalQuery | CompoundRetrievalQuery | AggregateQuery,
    per_shard: dict[str, Any],
) -> CorpusRetrievalResult | CorpusAggregateResult:
    """Merge one fan-out query's per-shard answers (in catalog order).

    Each value is that shard's answer to ``query``: an
    :class:`AggregateResult` for an aggregate, a :class:`RetrievalResult`
    otherwise.
    """
    if isinstance(query, AggregateQuery):
        return merge_aggregates(query, per_shard)
    return merge_retrievals(query, per_shard)
