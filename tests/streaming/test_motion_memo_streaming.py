"""The estimate hand-over under the streaming path: fewer analyses, the same numbers.

Every install hands the live sampling session the estimates of the
index it just built, so a live epoch that splits a gap the index holds
reads that gap's estimate instead of analysing the pair again.  Here
the streaming service and a batch ``CorpusPipeline.fit`` run once with
the hand-over and once under ``without_handover()`` (every reward
analyses its pair), and every sampled id, reward, flat index column,
digest, answer and report field must agree bit for bit.  The report's
by-origin detection counters are pinned alongside.
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
    stream_sequences, config, model, policy, pair_analyses, without_handover
):
    state, live, drained, texts, report = _streamed(stream_sequences, config, model, policy)
    analysed = len(pair_analyses)
    with without_handover():
        ref_state, ref_live, ref_drained, _, ref_report = _streamed(
            stream_sequences, config, model, policy
        )
    ref_analysed = len(pair_analyses) - analysed

    _assert_same_state(state, ref_state)
    for step, (got, want) in enumerate(zip(live, ref_live, strict=True)):
        for text, answer, ref_answer in zip(texts, got, want):
            assert_same_corpus_answer(answer, ref_answer, f"live step {step}: {text}")
    for text, answer, ref_answer in zip(texts, drained, ref_drained, strict=True):
        assert_same_corpus_answer(answer, ref_answer, text)

    # The hand-over changed how often ST-PC ran — and nothing the run reports.
    assert 0 < analysed < ref_analysed
    del report["cost"], ref_report["cost"]  # measured seconds
    assert report == ref_report


@pytest.mark.parametrize("policy", ["uniform", "ucb"])
def test_corpus_fit_and_replan_are_bit_identical_to_always_computing(
    stream_sequences, config, model, policy, pair_analyses, without_handover
):
    def fitted():
        catalog = SequenceCatalog()
        for sequence in stream_sequences:
            catalog.register_sequence(sequence, dataset="stream")
        with CorpusPipeline(catalog, config, policy=policy) as corpus:
            before = len(pair_analyses)
            corpus.fit(model)
            first, fit_analysed = _shard_state(corpus), len(pair_analyses) - before
            corpus.replan(model)
            return first, _shard_state(corpus), fit_analysed, len(pair_analyses) - before

    first, second, fit_analysed, analysed = fitted()
    with without_handover():
        ref_first, ref_second, ref_fit_analysed, ref_analysed = fitted()
    _assert_same_state(first, ref_first)
    _assert_same_state(second, ref_second)
    # A fit and a re-plan sample fresh sessions, which no index has been
    # installed on yet: each reward analyses its pair, as the reference's
    # do, and the re-plan analyses each of them again.
    assert fit_analysed == ref_fit_analysed > 0
    assert analysed == ref_analysed == 2 * fit_analysed


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
