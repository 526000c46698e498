"""Drain-and-quiesce ≡ batch differential pins.

The streaming service's headline guarantee: once the source is drained
and the service quiesces (buffers flushed, one final re-plan), every
answer — scoped to one sequence or fanned out over the corpus,
retrieval or aggregate — is bit-identical to a batch
:class:`~repro.corpus.CorpusQueryService` fit from scratch on the same
final sequences.  Streaming must be a latency/staleness trade-off,
never an accuracy one.

Pinned for both allocator policies at the two bounded-staleness
extremes: ``max_lag_frames=0`` (every arrival is a 1-frame extend) and a
buffered lag.
"""

from __future__ import annotations

import pytest

from repro.query.workload import generate_workload
from repro.streaming import ArrivalSchedule, ScheduledFrameSource, StreamingCorpusService
from tests.streaming.harness import (
    assert_same_answer,
    assert_same_corpus_answer,
    batch_reference,
)


def _source(sequences, *, batch_frames: int = 2) -> ScheduledFrameSource:
    """Heterogeneous-rate source: the two sequences grow at 3x ratio."""
    names = [sequence.name for sequence in sequences]
    return ScheduledFrameSource(
        sequences,
        initial_frames=10,
        schedule={
            names[0]: ArrivalSchedule(rate=30.0, batch_frames=batch_frames),
            names[1]: ArrivalSchedule(
                rate=10.0, batch_frames=batch_frames, jitter=0.25
            ),
        },
        seed=3,
    )


def _workload(names, seed: int) -> list[str]:
    """Scoped + fan-out texts cycling retrievals and aggregates."""
    base = [q.describe() for q in generate_workload(rng=seed).all_queries()]
    texts: list[str] = []
    for position, text in enumerate(base[:18]):
        which = position % (len(names) + 1)
        if which < len(names):
            texts.append(f"{text} IN SEQUENCE {names[which]}")
        else:
            texts.append(text)  # corpus-wide fan-out
    return texts


@pytest.mark.parametrize("policy", ["uniform", "ucb"])
@pytest.mark.parametrize("max_lag", [0, 3], ids=["lag0", "lag3"])
class TestDrainedBitIdentity:
    def test_streaming_equals_batch(
        self, stream_sequences, config, model, policy, max_lag
    ):
        source = _source(stream_sequences)
        with StreamingCorpusService(
            source,
            model,
            config,
            policy=policy,
            max_lag_frames=max_lag,
            replan_every=16,
        ) as service:
            service.pump()
            assert source.drained
            report = service.quiesce()

            # Post-quiesce the staleness contract collapses to zero lag.
            assert all(lag == 0 for lag in report["staleness"].values())
            for name in service.names:
                assert service.watermarks()[name] == len(
                    source.final_sequence(name)
                )
            assert report["replan_epochs"] >= 1

            with batch_reference(
                source, config, model, policy=policy
            ) as batch:
                names = service.names
                for text in _workload(names, seed=config.seed):
                    answer = service.execute(text)
                    assert answer.max_staleness == 0
                    assert answer.max_lag_frames == max_lag
                    assert_same_corpus_answer(
                        answer.result, batch.execute(text), text
                    )

    def test_sampled_frames_match_batch(
        self, stream_sequences, config, model, policy, max_lag
    ):
        """The final plan itself — not just answers — matches batch."""
        import numpy as np

        source = _source(stream_sequences)
        with StreamingCorpusService(
            source,
            model,
            config,
            policy=policy,
            max_lag_frames=max_lag,
            replan_every=24,
        ) as service:
            service.pump()
            service.quiesce()
            with batch_reference(
                source, config, model, policy=policy
            ) as batch:
                batch_corpus = batch._corpus
                for name in service.names:
                    live = service._corpus.shard(name).sampling_result
                    want = batch_corpus.shard(name).sampling_result
                    assert np.array_equal(live.sampled_ids, want.sampled_ids), name
                    assert live.rewards == want.rewards, name
                assert (
                    service.allocation.frames_by_sequence
                    == batch_corpus.allocation.frames_by_sequence
                )


@pytest.mark.parametrize("policy", ["uniform", "ucb"])
def test_batched_execution_matches_batch_service(
    stream_sequences, config, model, policy
):
    """``execute_batch`` order-preserving equality on the drained corpus."""
    source = _source(stream_sequences, batch_frames=3)
    with StreamingCorpusService(
        source, model, config, policy=policy, max_lag_frames=2, replan_every=20
    ) as service:
        service.pump()
        service.quiesce()
        texts = _workload(service.names, seed=config.seed + 1)
        answers = service.execute_batch(texts)
        with batch_reference(source, config, model, policy=policy) as batch:
            expected = batch.execute_batch(texts)
            for text, answer, want in zip(texts, answers, expected):
                assert answer.max_staleness == 0
                assert_same_corpus_answer(answer.result, want, text)


def test_mid_ingest_answers_respect_staleness_contract(
    stream_sequences, config, model
):
    """Before the drain, answers carry (and respect) the lag bound."""
    max_lag = 4
    source = _source(stream_sequences)
    with StreamingCorpusService(
        source, model, config, policy="ucb", max_lag_frames=max_lag,
        replan_every=16,
    ) as service:
        names = service.names
        scoped = f"SELECT FRAMES WHERE COUNT(Car) >= 1 IN SEQUENCE {names[0]}"
        fanout = "SELECT AVG OF COUNT(Car)"
        seen_watermarks = [service.watermarks()]
        while service.pump(max_events=3):
            for text in (scoped, fanout):
                answer = service.execute(text)
                assert answer.max_staleness <= max_lag, text
                for name, lag in answer.staleness.items():
                    assert lag == answer.arrived[name] - answer.watermarks[name]
                    assert lag >= 0
            seen_watermarks.append(service.watermarks())
        # Watermarks only ever advance as ingest proceeds.
        for before, after in zip(seen_watermarks, seen_watermarks[1:]):
            for name in names:
                assert after[name] >= before[name]
        service.quiesce()
        assert service.staleness() == {name: 0 for name in names}


def test_standing_queries_track_epochs(stream_sequences, config, model):
    """Standing queries snapshot per epoch; the last equals the batch answer."""
    source = _source(stream_sequences)
    with StreamingCorpusService(
        source, model, config, policy="uniform", max_lag_frames=1,
        replan_every=12,
    ) as service:
        text = "SELECT AVG OF COUNT(Car)"
        service.register_standing(text)
        with pytest.raises(ValueError):
            service.register_standing(
                f"{text} IN SEQUENCE {service.names[0]}"
            )
        service.pump()
        service.quiesce()
        snapshots = service.epoch_snapshots()
        assert len(snapshots) == service.epochs
        assert [s.epoch for s in snapshots] == list(
            range(1, len(snapshots) + 1)
        )
        with batch_reference(
            source, config, model, policy="uniform"
        ) as batch:
            want = batch.execute(text)
            assert snapshots[-1].answers[text] == want.value
        # Virtual time and corpus size never move backwards over epochs.
        for before, after in zip(snapshots, snapshots[1:]):
            assert after.virtual_time >= before.virtual_time
            assert after.total_frames >= before.total_frames


def test_region_standing_query_builds_tiles_inside_the_epoch(
    stream_sequences, config, model
):
    """A region-shaped standing query is the one reader that runs under
    the ingest lock: each epoch's fresh indexes build their tiles there,
    on first use, and flushes in between keep them maintained.  Every
    epoch's answer equals the flat scan's; the last equals batch."""
    text = "SELECT MED OF COUNT(*) WITHIN REGION (-30, -30, 30, 30)"

    def run(config):
        source = _source(stream_sequences)
        with StreamingCorpusService(
            source, model, config, policy="uniform", max_lag_frames=1,
            replan_every=12,
        ) as service:
            service.register_standing(text)
            service.pump()
            service.quiesce()
            stats = [
                service._corpus.shard(name).index.spatial_stats()
                for name in service.names
            ]
            (key,) = service.standing_queries
            answers = [s.answers[key] for s in service.epoch_snapshots()]
            return source, answers, stats

    source, tiled, stats = run(config)
    assert all(s is not None and s["queries"] >= 1 for s in stats)
    _, flat, flat_stats = run(config.with_overrides(spatial_index=False))
    assert flat_stats == [None, None]
    assert len(tiled) >= 2 and tiled == flat
    with batch_reference(source, config, model, policy="uniform") as batch:
        assert tiled[-1] == batch.execute(text).value


def test_scoped_answers_are_shard_level(stream_sequences, config, model):
    """A scoped streaming answer is the shard's plain (unmerged) result."""
    source = _source(stream_sequences)
    with StreamingCorpusService(
        source, model, config, policy="ucb", max_lag_frames=0
    ) as service:
        service.pump()
        service.quiesce()
        name = service.names[1]
        text = f"SELECT MED OF COUNT(Car) IN SEQUENCE {name}"
        answer = service.execute(text)
        assert set(answer.staleness) == {name}
        with batch_reference(source, config, model, policy="ucb") as batch:
            assert_same_answer(answer.result, batch.execute(text), text)


def test_unknown_scope_raises_value_error(stream_sequences, config, model):
    """Scoping to a name the stream has never seen is a ValueError, not a
    KeyError out of the watermark snapshot (regression: the CLI catches
    ValueError to report a friendly error and keep streaming)."""
    source = _source(stream_sequences)
    with StreamingCorpusService(
        source, model, config, policy="uniform", max_lag_frames=0
    ) as service:
        service.pump(max_events=4)
        with pytest.raises(ValueError, match="unknown sequence"):
            service.execute("SELECT FRAMES WHERE COUNT(Car) >= 1 IN SEQUENCE nope")
