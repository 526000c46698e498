"""Streaming never pays the detector twice for one frame.

Each sequence keeps one live sampling session.  A flush grows it over
the new frames and detects only the uniform-grid points that land in
them; an epoch spends only the budget accrued since the last one; the
drain re-plans exactly, re-entered with every detection already paid
for.  Three consequences are pinned here under the drip-feed harness
(``test_replan_property.py`` pins the first two under arbitrary
interleavings):

* no ``(sequence, frame id)`` is ever handed to ``detect`` twice;
* ``ledger.invocations == store.misses <= frames arrived``;
* the store is never even asked for a frame the stream already holds
  (it sees no hits), and the frames a flush bills are exactly the grid
  points its arrivals reached.
"""

from __future__ import annotations

import pytest

from repro.streaming import ArrivalSchedule, ScheduledFrameSource, StreamingCorpusService
from tests.streaming.harness import CountingModel, assert_billed_once


def _grid(config, initial: int, length: int) -> set[int]:
    """The uniform-grid points a sequence grown from ``initial`` frames
    to ``length`` reaches: the fixed stride on from its last frame."""
    stride = round(1 / (config.beta * config.budget_fraction))
    return set(range(initial - 1 + stride, length, stride))


@pytest.mark.parametrize("policy", ["uniform", "ucb"])
def test_drip_feed_bills_each_frame_at_most_once(
    stream_sequences, config, model, policy
):
    source = ScheduledFrameSource(
        stream_sequences,
        initial_frames=10,
        schedule=ArrivalSchedule(rate=10.0, batch_frames=1),
        seed=3,
    )
    counting = CountingModel(model, stream_sequences)
    frames_arrived = 10 * len(stream_sequences)
    flushed: set[tuple[str, int]] = set()
    with StreamingCorpusService(
        source, counting, config, policy=policy, max_lag_frames=0, replan_every=8
    ) as service:
        # max_lag_frames=0: every arrival is a one-frame flush.
        while True:
            flushes = service.report()["detections_by_origin"]["flush"]
            seen = len(counting.detected)
            if not service.pump(max_events=1):
                break
            frames_arrived += 1
            # A flush runs before the epoch it may trigger, so its
            # detections come first; a one-frame flush reaches at most
            # one grid point.
            billed = service.report()["detections_by_origin"]["flush"] - flushes
            assert billed <= 1
            flushed.update(counting.detected[seen : seen + billed])
            assert service.store.stats().hits == 0
            assert_billed_once(service, counting, frames_arrived)
        assert service.epochs >= 2
        service.quiesce()
        assert service.store.stats().hits == 0
        assert_billed_once(service, counting, frames_arrived)
        assert frames_arrived == sum(len(s) for s in stream_sequences)
    assert flushed == {
        (sequence.name, frame_id)
        for sequence in stream_sequences
        for frame_id in _grid(config, 10, len(sequence))
    }


def test_buffered_flushes_and_replans_bill_each_frame_at_most_once(
    stream_sequences, config, model
):
    names = [sequence.name for sequence in stream_sequences]
    source = ScheduledFrameSource(
        stream_sequences,
        initial_frames=10,
        schedule={
            names[0]: ArrivalSchedule(rate=30.0, batch_frames=2),
            names[1]: ArrivalSchedule(rate=10.0, batch_frames=3, jitter=0.25),
        },
        seed=3,
    )
    counting = CountingModel(model, stream_sequences)
    with StreamingCorpusService(
        source, counting, config, policy="ucb", max_lag_frames=3, replan_every=12
    ) as service:
        service.pump()
        report = service.quiesce()
        assert service.epochs >= 2
        assert service.store.stats().hits == 0
        assert report["detections_by_origin"]["flush"] == sum(
            len(_grid(config, 10, len(sequence))) for sequence in stream_sequences
        )
        assert_billed_once(
            service, counting, sum(len(s) for s in stream_sequences)
        )
