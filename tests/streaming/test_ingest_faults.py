"""A fault inside streaming ingest loses nothing and wedges nothing.

The detector raises once, under ``_ingest_lock``, either inside a flush
(a live session's ``grow``) or inside an intermediate re-plan epoch,
after it has already returned one frame of that step.  ``pump`` raises;
afterwards

* the catalog, the session tree and the index are at the old epoch:
  every catalog entry has exactly its shard's frames, every arrived
  frame is either indexed or still buffered, every session holds its
  old samples and rewards, and its tree equals the old one node for
  node down to its RNG state, and each shard keeps its old index;
* the frame the failed step did pay for stays in its session's
  detections, and live queries answer at the old epoch;
* the next ``pump`` + ``quiesce`` drains, the drained answers equal a
  batch fit of the final corpus bit for bit, and every frame is billed
  once — the fault is one store miss that was never billed, and the
  retry does not even look the paid frame up again;
* before the drain, the retried step leaves the service where a
  fault-free twin stands whose same step was refused before it began:
  the live answers after every later arrival and the standing answers
  of every later epoch are equal.

The source misdelivers (a duplicated, skipped or swapped arrival): each
event that does not continue its sequence is rejected by ``pump`` and
changes nothing, staleness stays within bound, and the drained answers
equal a batch fit on exactly the accepted frames.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.corpus import CorpusPipeline, CorpusQueryService, SequenceCatalog
from repro.simulation import semantickitti_like
from repro.streaming import (
    ArrivalSchedule,
    FrameSource,
    ScheduledFrameSource,
    StreamingCorpusService,
)
from repro.utils.timing import STAGE_MODEL
from tests.fault_injection import RaisesOnce
from tests.streaming.harness import assert_same_corpus_answer, batch_reference

QUERIES = (
    "SELECT AVG OF COUNT(Car)",
    "SELECT FRAMES WHERE COUNT(Car) >= 2",
    "SELECT MED OF COUNT(Car DIST <= 30) IN SEQUENCE a",
    "SELECT FRAMES WHERE COUNT(*) >= 1 WITHIN REGION (-30, -30, 30, 30)",
)


@pytest.fixture(scope="module")
def drives():
    return [
        semantickitti_like(index, n_frames=60, with_points=False).head(60, name=name)
        for index, name in enumerate("ab")
    ]


def _tree_state(tree) -> tuple | None:
    """Every node's fields, children nested in order, and the tree RNG's state."""
    if tree is None:
        return None

    def walk(node) -> tuple:
        children = None if node.children is None else tuple(map(walk, node.children))
        return (
            node.lo, node.hi, node.depth, node.reward, node.visits, node.exhausted, children
        )

    return walk(tree.root), tree._rng.bit_generator.state


def _epoch_state(service: StreamingCorpusService) -> dict[str, tuple]:
    """Per shard: its index, its live session's result, length and tree,
    its catalog entry."""
    corpus = service._corpus
    return {
        name: (
            corpus.shard(name).index,
            corpus.shard(name).session.result(),
            corpus.shard(name).session.n_frames,
            _tree_state(corpus.shard(name).session._tree),
            corpus.catalog.n_frames(name),
        )
        for name in service.names
    }


def _assert_at_epoch(service: StreamingCorpusService, state: dict[str, tuple]) -> None:
    for name, (index, sampling, n_frames, tree, catalogued) in _epoch_state(service).items():
        want_index, want, want_n, want_tree, want_catalogued = state[name]
        assert index is want_index, name
        assert (n_frames, catalogued) == (want_n, want_catalogued), name
        assert np.array_equal(sampling.sampled_ids, want.sampled_ids), name
        assert sampling.rewards == want.rewards, name
        assert sampling.policy_info == want.policy_info, name
        assert tree is not None and tree == want_tree, name


def _paid_but_unsampled(service: StreamingCorpusService) -> set[tuple[str, int]]:
    paid = set()
    for name in service.names:
        session = service._corpus.shard(name).session
        sampled = set(map(int, session.result().sampled_ids))
        paid |= {(name, frame_id) for frame_id in session.detections if frame_id not in sampled}
    return paid


def _assert_nothing_lost(service: StreamingCorpusService) -> None:
    corpus = service._corpus
    arrived = service.report()["arrived"]
    for name in service.names:
        indexed = corpus.shard(name).sampling_result.n_frames
        assert corpus.catalog.n_frames(name) == indexed
        assert arrived[name] == indexed + len(service._pending[name])


def _assert_drains_to_batch(service, drives, model, config, faulty) -> None:
    service.pump()
    service.quiesce()
    assert all(lag == 0 for lag in service.staleness().values())
    with batch_reference(service.source, config, model, policy="ucb") as batch:
        for text in QUERIES:
            assert_same_corpus_answer(
                service.execute(text).result, batch.execute(text), text
            )
    invocations = service.cost_ledger().invocations(STAGE_MODEL)
    assert invocations == service.store.stats().misses - 1 == faulty.returned
    assert service.store.stats().hits == 0
    assert faulty.calls == faulty.returned + 1
    assert sum(service.report()["detections_by_origin"].values()) == invocations


def test_fault_inside_a_flush(drives, model, config):
    """``a``'s one flush takes all 48 of its arrivals (``b`` streams one
    frame, which stays buffered): the grown session detects two grid
    points, and the second raises."""
    source = ScheduledFrameSource(
        drives, initial_frames={"a": 12, "b": 59},
        schedule=ArrivalSchedule(rate=10.0), seed=3,
    )
    faulty = RaisesOnce(model, at=0)
    with StreamingCorpusService(
        source, faulty, config, policy="ucb", max_lag_frames=47, replan_every=12
    ) as service:
        state = _epoch_state(service)
        before = [service.execute(text).result for text in QUERIES]
        faulty.at = faulty.calls + 2
        with pytest.raises(RuntimeError, match="CUDA"):
            service.pump()
        assert faulty.calls == faulty.at and service.epochs == 0
        _assert_nothing_lost(service)
        _assert_at_epoch(service, state)
        assert service.watermarks() == {"a": 12, "b": 59}
        assert service.staleness()["a"] == 48
        assert len(_paid_but_unsampled(service)) == 1
        for text, want in zip(QUERIES, before):
            assert_same_corpus_answer(service.execute(text).result, want, text)
        _assert_drains_to_batch(service, drives, model, config, faulty)


def test_fault_inside_a_replan(drives, model, config, monkeypatch):
    """The first online epoch that detects two frames raises on its second."""
    faulty = RaisesOnce(model, at=0)
    real = CorpusQueryService.replan
    seen: dict[str, object] = {}

    def armed(self, replan_model, *, exact=False):
        if exact:
            return real(self, replan_model, exact=exact)
        seen.update(state=_epoch_state(service), epochs=service.epochs, paid=faulty.returned)
        faulty.at = faulty.calls + 2
        try:
            return real(self, replan_model)
        finally:
            if faulty.calls < faulty.at:
                faulty.at = 0  # this epoch detected fewer than two frames
            else:
                monkeypatch.setattr(CorpusQueryService, "replan", real)

    source = ScheduledFrameSource(
        drives, initial_frames=12, schedule=ArrivalSchedule(rate=10.0), seed=3
    )
    with StreamingCorpusService(
        source, faulty, config, policy="ucb", max_lag_frames=3, replan_every=12
    ) as service:
        monkeypatch.setattr(CorpusQueryService, "replan", armed)
        with pytest.raises(RuntimeError, match="CUDA"):
            service.pump()
        assert faulty.calls == faulty.at
        assert faulty.returned == seen["paid"] + 1
        assert service.epochs == seen["epochs"]
        _assert_nothing_lost(service)
        _assert_at_epoch(service, seen["state"])
        assert len(_paid_but_unsampled(service)) == 1
        _assert_drains_to_batch(service, drives, model, config, faulty)


STANDING = ("SELECT AVG OF COUNT(Car)", "SELECT FRAMES WHERE COUNT(Car) >= 2")
#: The detection a faulted step raises at.  A flush's grow detects its
#: grid points before it changes anything; an epoch's second detection
#: comes after its first sample has split the tree, and after its second
#: selection has drawn from the tree's RNG.
DETECTIONS = {"extend": 1, "replan": 2}


def _live_run(drives, model, config, monkeypatch, step, refuse=None):
    """Pump one arrival at a time, with one online call of ``step`` (a
    flush's ``extend`` or an epoch's ``replan``) failing.

    With ``refuse=None`` the first such call that makes
    ``DETECTIONS[step]`` detections raises at the last of them;
    otherwise call number ``refuse`` raises before it begins and the
    detector never does.  Returns the live answers after every arrival
    (``"fault"`` where the pump raised), the standing answers of every
    epoch, and the number of the call that failed.
    """
    source = ScheduledFrameSource(
        drives, initial_frames=12, schedule=ArrivalSchedule(rate=10.0), seed=3
    )
    detector = RaisesOnce(model, at=0)
    real = getattr(CorpusQueryService, step)
    calls = 0
    failed: list[int] = []

    def armed(self, *args, **kwargs):
        nonlocal calls
        if kwargs.get("exact"):
            return real(self, *args, **kwargs)
        calls += 1
        if calls == refuse:
            failed.append(calls)
            raise RuntimeError("CUDA error: refused before the step began")
        if refuse is None and not failed:
            detector.at = detector.calls + DETECTIONS[step]
        try:
            return real(self, *args, **kwargs)
        except RuntimeError:
            failed.append(calls)
            raise
        finally:
            detector.at = 0  # a call that detected less is not the faulted one

    timeline: list = []
    with StreamingCorpusService(
        source, detector, config, policy="ucb", max_lag_frames=3, replan_every=12
    ) as service:
        for text in STANDING:
            service.register_standing(text)
        with monkeypatch.context() as patch:
            patch.setattr(CorpusQueryService, step, armed)
            while True:
                try:
                    if not service.pump(max_events=1):
                        break
                except RuntimeError as error:
                    assert "CUDA" in str(error)
                    timeline.append("fault")
                timeline.append(
                    (
                        service.epochs,
                        service.events_processed,
                        [service.execute(text).result for text in QUERIES],
                    )
                )
        epochs = [snapshot.answers for snapshot in service.epoch_snapshots()]
    assert len(failed) == 1 and timeline.count("fault") == 1
    return timeline, epochs, failed[0]


@pytest.mark.parametrize("step", ["extend", "replan"])
def test_live_answers_after_a_fault_equal_a_fault_free_run(
    drives, model, config, monkeypatch, step
):
    """A flush or an online epoch raises mid-way.  A fault-free twin
    refuses the same call before it begins, so both retry at the same
    arrival, and nothing may tell them apart before the drain's
    from-scratch re-plan would hide it."""
    timeline, epochs, failed = _live_run(drives, model, config, monkeypatch, step)
    twin, twin_epochs, _ = _live_run(
        drives, model, config, monkeypatch, step, refuse=failed
    )
    fault = timeline.index("fault")
    assert twin.index("fault") == fault
    # Epochs follow the retry, so live divergence would show.
    assert timeline[-1][0] > timeline[fault - 1][0] + 1
    assert epochs == twin_epochs
    for entry, want in zip(timeline, twin, strict=True):
        if entry == "fault":
            continue
        assert entry[:2] == want[:2]
        for text, got, expected in zip(QUERIES, entry[2], want[2]):
            assert_same_corpus_answer(got, expected, f"{step} after event {entry[1]}: {text}")


class _Misdelivered(FrameSource):
    """``base``'s ``scheduled`` arrival events, reordered by ``alter``;
    ``delivered`` records what :meth:`next_event` handed out."""

    def __init__(self, base: ScheduledFrameSource, alter) -> None:
        self.base = base
        scheduled = []
        while (event := base.next_event()) is not None:
            scheduled.append(event)
        self.scheduled = tuple(scheduled)
        self._events = deque(alter(scheduled))
        self.delivered: list = []

    def names(self):
        return self.base.names()

    def initial_sequence(self, name):
        return self.base.initial_sequence(name)

    def next_event(self):
        if not self._events:
            return None
        self.delivered.append(self._events.popleft())
        return self.delivered[-1]

    @property
    def drained(self) -> bool:
        return not self._events


def _swap_with_next_of_its_sequence(events, k):
    j = next(i for i in range(k + 1, len(events)) if events[i].sequence == events[k].sequence)
    events[k], events[j] = events[j], events[k]
    return events


#: Misdeliveries of event 5: replayed once, skipped, swapped with its
#: sequence's next event.
MISDELIVERIES = {
    "duplicate": lambda events: events[:6] + events[5:],
    "gap": lambda events: events[:5] + events[6:],
    "swap": lambda events: _swap_with_next_of_its_sequence(events, 5),
}


def _published(service):
    report = service.report()
    return report["arrived"], report["virtual_time"], report["events_processed"]


@pytest.mark.parametrize("fault", sorted(MISDELIVERIES))
def test_misdelivered_arrival_is_rejected_without_wedging(fault, model, config):
    drives = [
        semantickitti_like(index, n_frames=40, with_points=False).head(40, name=name)
        for index, name in enumerate("ab")
    ]
    source = _Misdelivered(
        ScheduledFrameSource(drives, initial_frames=12), MISDELIVERIES[fault]
    )
    faulty = source.scheduled[5].sequence
    accepted = {drive.name: 12 for drive in drives}
    rejected = 0
    with StreamingCorpusService(
        source, model, config, policy="ucb", max_lag_frames=1, replan_every=8
    ) as service:
        while not source.drained:
            before = _published(service)
            try:
                service.pump(max_events=1)
            except ValueError as error:
                event = source.delivered[-1]
                expected = accepted[event.sequence]
                assert f"arrival on {event.sequence!r} rejected" in str(error)
                assert f"expected frame {expected} " in str(error)
                assert _published(service) == before
                rejected += 1
            else:
                event = source.delivered[-1]
                accepted[event.sequence] += len(event.frames)
            assert max(service.staleness().values()) <= service.max_lag_frames
        # A replay costs one rejection; a gap stops its sequence for good.
        assert rejected == 1 if fault == "duplicate" else rejected > 1
        assert (accepted[faulty] == 40) == (fault == "duplicate")
        assert accepted[next(n for n in accepted if n != faulty)] == 40
        service.quiesce()
        assert service.report()["arrived"] == accepted
        assert all(lag == 0 for lag in service.staleness().values())

        catalog = SequenceCatalog()
        for drive in drives:
            catalog.register_sequence(drive.head(accepted[drive.name], name=drive.name))
        with CorpusPipeline(catalog, config, policy="ucb") as corpus:
            with CorpusQueryService(corpus.fit(model)) as batch:
                for text in QUERIES:
                    assert_same_corpus_answer(
                        service.execute(text).result, batch.execute(text), text
                    )
