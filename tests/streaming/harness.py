"""Shared helpers for the streaming differential and stress tests.

The batch reference is the ground truth the streaming service must
converge to: a :class:`~repro.corpus.CorpusPipeline` fit from scratch
on the *final* sequences a drained source will have delivered, served
through the batch :class:`~repro.corpus.CorpusQueryService`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.corpus import (
    CorpusPipeline,
    CorpusQueryService,
    SequenceCatalog,
    SequenceSpec,
)
from repro.flow.fingerprint import stable_digest
from repro.models.base import DetectionModel
from repro.query.ast import AggregateResult, RetrievalResult
from repro.streaming import ScheduledFrameSource
from repro.utils.timing import STAGE_MODEL


#: A drive where almost nothing changes — few, long-lived, slow actors.
#: Linear interpolation already nails its count series, so an adaptive
#: frame spent here earns little.
STATIC_WORLD = (
    ("base_spawn_rate", 0.15),
    ("intensity_amplitude", 0.05),
    ("mean_lifetime", 90.0),
    ("ego_speed_mean", 1.5),
    ("ego_speed_amplitude", 0.3),
    ("burst_rate", 0.0),
    ("yaw_rate_sigma", 0.005),
    ("speed_noise", 0.05),
)
#: Dense, bursty, short-lived traffic: the count series is jagged and
#: every adaptive frame pays off.
VOLATILE_WORLD = (
    ("base_spawn_rate", 1.6),
    ("mean_lifetime", 10.0),
    ("intensity_period", 30.0),
    ("burst_rate", 0.15),
    ("ego_speed_mean", 12.0),
    ("yaw_rate_sigma", 0.1),
)


def heterogeneous_specs(long_n: int, short_n: int) -> list[SequenceSpec]:
    """The corpus the allocation results are measured on: a near-static
    drive, a volatile drive and a sparse 2-FPS urban log."""
    return [
        SequenceSpec(
            "semantickitti", 0, n_frames=long_n,
            name="static-drive", world_overrides=STATIC_WORLD,
        ),
        SequenceSpec(
            "semantickitti", 1, n_frames=long_n,
            name="volatile-drive", world_overrides=VOLATILE_WORLD,
        ),
        SequenceSpec("once", 0, n_frames=short_n, name="sparse-urban"),
    ]


class CountingModel(DetectionModel):
    """Records every ``(sequence, frame id)`` its wrapped model detects.

    Detection delegates through ``base`` — the attribute
    :func:`~repro.inference.store.model_fingerprint` follows — so wrapped
    and bare runs share detection-store entries.  ``detect`` only accepts
    the very frame objects of ``sequences``: ingest must hand the model
    the stream's own frames, never re-identified copies.
    """

    def __init__(self, base: DetectionModel, sequences) -> None:
        self.base = base
        self.name = base.name
        self.cost_per_frame = base.cost_per_frame
        self._owner = {
            id(frame): (sequence.name, frame.frame_id)
            for sequence in sequences
            for frame in sequence
        }
        self.detected: list[tuple[str, int]] = []

    def detect(self, frame):
        self.detected.append(self._owner[id(frame)])
        return self.base.detect(frame)


def assert_billed_once(service, model: CountingModel, frames_arrived: int) -> None:
    """No frame detected twice; the ledger bills exactly the store misses."""
    assert len(model.detected) == len(set(model.detected)), "a frame was detected twice"
    invocations = service.cost_ledger().invocations(STAGE_MODEL)
    assert invocations == service.store.stats().misses == len(model.detected)
    assert invocations <= frames_arrived


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


def pipeline_state(pipeline) -> tuple:
    """What a fitted pipeline computed: sampled ids, rewards, the index's
    flat columns, and the sampling run's content digest."""
    sampling = pipeline.sampling_result
    return (
        sampling.sampled_ids.copy(),
        list(sampling.rewards),
        [column.copy() for column in pipeline.index._rows],
        stable_digest(sampling),
    )


def assert_same_pipeline_state(got: tuple, want: tuple, context: str) -> None:
    """Bit-identical equality of two :func:`pipeline_state` snapshots."""
    ids, rewards, columns, digest = got
    want_ids, want_rewards, want_columns, want_digest = want
    assert np.array_equal(ids, want_ids), context
    assert rewards == want_rewards, context
    for column, want_column in zip(columns, want_columns):
        assert np.array_equal(column, want_column), context
    assert digest == want_digest, context
