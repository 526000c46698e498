"""The motion memo under the re-plan path: fewer analyses, the same numbers.

The drain's exact re-plan replays every sequence's sampler from frame 0
over the detections the live sessions paid for, so its ST-PC analyses
and Eq. 1 rewards repeat on the identical objects.  The corpus engine's memo
answers the repeats; here the streaming service and a batch
``CorpusPipeline.fit`` run once with it and once under
``always_computing()`` (every lookup computes), and every sampled id,
reward, flat index column, digest and answer must agree bit for bit.
The report's by-origin detection counters and memo counters are pinned
alongside, because the next streaming PR starts from them.
"""

from __future__ import annotations

import pytest

from repro.corpus import CorpusPipeline, SequenceCatalog
from repro.query.workload import generate_workload
from repro.streaming import ArrivalSchedule, ScheduledFrameSource, StreamingCorpusService
from tests.streaming.harness import (
    assert_same_corpus_answer,
    assert_same_pipeline_state,
    pipeline_state,
)

def _source(sequences) -> ScheduledFrameSource:
    names = [sequence.name for sequence in sequences]
    return ScheduledFrameSource(
        sequences,
        initial_frames=10,
        schedule={
            names[0]: ArrivalSchedule(rate=30.0, batch_frames=2),
            names[1]: ArrivalSchedule(rate=10.0, batch_frames=2, jitter=0.25),
        },
        seed=3,
    )


def _shard_state(corpus: CorpusPipeline) -> dict[str, tuple]:
    return {name: pipeline_state(corpus.shard(name)) for name in corpus.names}


def _assert_same_state(got: dict[str, tuple], want: dict[str, tuple]) -> None:
    assert got.keys() == want.keys()
    for name, state in got.items():
        assert_same_pipeline_state(state, want[name], name)


def _texts(names) -> list[str]:
    base = [q.describe() for q in generate_workload(rng=7).all_queries()][:12]
    return base + [f"{text} IN SEQUENCE {names[k % len(names)]}" for k, text in enumerate(base)]


def _streamed(sequences, config, model, policy):
    """Drain a stream (live answers on the way); return what it left behind."""
    source = _source(sequences)
    with StreamingCorpusService(
        source, model, config, policy=policy, max_lag_frames=2, replan_every=12
    ) as service:
        texts = _texts(service.names)
        live = []
        while service.pump(max_events=5):
            live.append([answer.result for answer in service.execute_batch(texts[:4])])
        report = service.quiesce()
        drained = [answer.result for answer in service.execute_batch(texts)]
        return _shard_state(service._corpus), live, drained, texts, report


@pytest.mark.parametrize("policy", ["uniform", "ucb"])
def test_streaming_service_is_bit_identical_to_always_computing(
    stream_sequences, config, model, policy, always_computing
):
    state, live, drained, texts, report = _streamed(stream_sequences, config, model, policy)
    with always_computing():
        ref_state, ref_live, ref_drained, _, ref_report = _streamed(
            stream_sequences, config, model, policy
        )

    _assert_same_state(state, ref_state)
    for step, (got, want) in enumerate(zip(live, ref_live, strict=True)):
        for text, answer, ref_answer in zip(texts, got, want):
            assert_same_corpus_answer(answer, ref_answer, f"live step {step}: {text}")
    for text, answer, ref_answer in zip(texts, drained, ref_drained, strict=True):
        assert_same_corpus_answer(answer, ref_answer, text)

    # The memo changed how often ST-PC ran — and nothing the run reports.
    memo, ref_memo = report.pop("motion_memo"), ref_report.pop("motion_memo")
    assert memo["hits"] > 0 and memo["misses"] == memo["entries"] > 0
    assert memo["evictions"] == 0
    assert ref_memo == {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
    del report["cost"], ref_report["cost"]  # measured seconds
    assert report == ref_report


@pytest.mark.parametrize("policy", ["uniform", "ucb"])
def test_corpus_fit_and_replan_are_bit_identical_to_always_computing(
    stream_sequences, config, model, policy, always_computing
):
    def fitted():
        catalog = SequenceCatalog()
        for sequence in stream_sequences:
            catalog.register_sequence(sequence, dataset="stream")
        with CorpusPipeline(catalog, config, policy=policy) as corpus:
            corpus.fit(model)
            first = _shard_state(corpus)
            fit_stats = corpus.engine.motion.stats()
            corpus.replan(model)
            return first, _shard_state(corpus), fit_stats, corpus.engine.motion.stats()

    first, second, fit_stats, stats = fitted()
    with always_computing():
        ref_first, ref_second, _, _ = fitted()
    _assert_same_state(first, ref_first)
    _assert_same_state(second, ref_second)
    # Within one fit a gap is analysed either when the sampler splits it
    # or when the index closes it, never both; the re-plan on the same
    # catalog then repeats every triple and every gap, and computes nothing.
    assert fit_stats["hits"] == 0
    assert stats["misses"] == fit_stats["misses"] and stats["hits"] > 0


def test_report_counts_detections_by_origin(stream_sequences, config, model):
    source = _source(stream_sequences)
    with StreamingCorpusService(
        source, model, config, policy="ucb", max_lag_frames=2, replan_every=12
    ) as service:
        by_origin = service.report()["detections_by_origin"]
        assert set(by_origin) == {"initial_fit", "flush", "replan", "drain"}
        assert by_origin["initial_fit"] > 0
        assert by_origin["flush"] == by_origin["replan"] == by_origin["drain"] == 0

        # The first arrivals land before any sequence's next grid point:
        # flushes index them by extrapolation and bill nothing.
        service.pump(max_events=6)
        pumped = service.report()
        assert pumped["detections_by_origin"] == by_origin
        assert pumped["watermarks"] != {name: 10 for name in service.names}

        report = service.quiesce()
        by_origin = report["detections_by_origin"]
        assert by_origin["flush"] > 0 and by_origin["drain"] > 0
        assert by_origin["replan"] > 0 and report["replan_epochs"] >= 2
        assert (
            sum(by_origin.values())
            == report["model_invocations"]
            == report["store"]["misses"]
        )
        assert set(report["motion_memo"]) == {"hits", "misses", "evictions", "entries"}
        assert report["motion_memo"] == service._corpus.engine.motion.stats()
