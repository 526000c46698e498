"""Streaming never pays the detector twice for one frame.

:meth:`~repro.MASTPipeline.extend` samples its tail through a view of
the grown sequence that keeps every frame's true id and the sequence's
name, so a tail detection *is* the canonical detection of its frame:
same value, same :class:`~repro.inference.DetectionStore` key as a batch
fit.  Three consequences are pinned here under the drip-feed harness
(``test_replan_property.py`` pins the first two under arbitrary
interleavings):

* no ``(sequence, frame id)`` is ever handed to ``detect`` twice —
  re-plans carry every detection through ``known=``;
* ``ledger.invocations == store.misses <= frames arrived``;
* each flush's seam frame (the last frame of the previous epoch, which
  the tail run samples first) resolves as a store hit, not a bill.
"""

from __future__ import annotations

import pytest

from repro.streaming import ArrivalSchedule, ScheduledFrameSource, StreamingCorpusService
from tests.streaming.harness import CountingModel, assert_billed_once


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
    with StreamingCorpusService(
        source, counting, config, policy=policy, max_lag_frames=0, replan_every=8
    ) as service:
        # max_lag_frames=0: every arrival is a one-frame flush.
        while True:
            before = service.store.stats()
            seen = set(counting.detected)
            if not service.pump(max_events=1):
                break
            frames_arrived += 1
            after = service.store.stats()
            # The flush looked its seam frame up and found it; whatever
            # it (or a re-plan in the same step) detected was new.
            assert after.hits == before.hits + 1
            assert seen.isdisjoint(counting.detected[len(seen):])
            assert_billed_once(service, counting, frames_arrived)
        assert service.epochs >= 2
        service.quiesce()
        assert service.store.stats().hits == source.total_events
        assert_billed_once(service, counting, frames_arrived)
        assert frames_arrived == sum(len(s) for s in stream_sequences)


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
        service.quiesce()
        assert service.epochs >= 2
        assert service.store.stats().hits > 0
        assert_billed_once(
            service, counting, sum(len(s) for s in stream_sequences)
        )
