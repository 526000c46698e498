"""Shared helpers for the streaming differential and stress tests.

The batch reference is the ground truth the streaming service must
converge to: a :class:`~repro.corpus.CorpusPipeline` fit from scratch
on the *final* sequences a drained source will have delivered, served
through the batch :class:`~repro.corpus.CorpusQueryService`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.corpus import CorpusPipeline, CorpusQueryService, SequenceCatalog
from repro.query.ast import AggregateResult, RetrievalResult
from repro.streaming import ScheduledFrameSource


@contextmanager
def batch_reference(
    source: ScheduledFrameSource, config, model, *, policy: str, round_size: int = 8
):
    """A from-scratch batch service on the source's final sequences.

    Context manager so both the serving process tier (if any) and the
    corpus's own inference engine are released when the comparison is done.
    """
    catalog = SequenceCatalog()
    for name in source.names():
        catalog.register_sequence(source.final_sequence(name), dataset="stream")
    with CorpusPipeline(
        catalog, config, policy=policy, round_size=round_size
    ) as corpus:
        corpus.fit(model)
        with CorpusQueryService(corpus) as service:
            yield service


def assert_same_answer(got, want, context: str) -> None:
    """Bit-identical equality for shard-level answers."""
    if isinstance(want, AggregateResult):
        assert got.value == want.value or (
            np.isnan(got.value) and np.isnan(want.value)
        ), context
        assert np.array_equal(got.counts, want.counts, equal_nan=True), context
    else:
        assert isinstance(want, RetrievalResult), context
        assert np.array_equal(got.frame_ids, want.frame_ids), context


def assert_same_corpus_answer(got, want, context: str) -> None:
    """Equality for any corpus answer (shard-level or merged fan-out)."""
    if hasattr(want, "by_sequence"):
        if hasattr(want, "value"):
            assert got.value == want.value or (
                np.isnan(got.value) and np.isnan(want.value)
            ), context
        else:
            assert got.cardinality == want.cardinality, context
            assert got.id_set() == want.id_set(), context
    else:
        assert_same_answer(got, want, context)
