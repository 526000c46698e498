"""A detector fault inside streaming ingest loses nothing and wedges nothing.

The detector raises once, under ``_ingest_lock``, either inside a flush
(the shard extend) or inside a re-plan.  ``pump`` raises; afterwards

* every catalog entry has exactly its shard's frames, and every arrived
  frame is either indexed or still buffered;
* live queries answer at the old epoch;
* the next ``pump`` + ``quiesce`` drains, the drained answers equal a
  batch fit of the final corpus bit for bit, and every frame is billed
  once — the fault is one store miss that was never billed.
"""

from __future__ import annotations

import pytest

from repro.corpus import CorpusQueryService
from repro.simulation import semantickitti_like
from repro.streaming import ArrivalSchedule, ScheduledFrameSource, StreamingCorpusService
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


def _service(drives, model, config) -> StreamingCorpusService:
    source = ScheduledFrameSource(
        drives, initial_frames=12, schedule=ArrivalSchedule(rate=10.0), seed=3
    )
    return StreamingCorpusService(
        source, model, config, policy="ucb", max_lag_frames=3, replan_every=12
    )


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
    assert faulty.calls == faulty.returned + 1
    assert sum(service.report()["detections_by_origin"].values()) == invocations


def test_fault_inside_a_flush(drives, model, config):
    faulty = RaisesOnce(model, at=0)
    with _service(drives, faulty, config) as service:
        faulty.at = faulty.calls + 1  # the first detection after start-up
        watermarks = service.watermarks()
        before = [service.execute(text).result for text in QUERIES]
        with pytest.raises(RuntimeError, match="CUDA"):
            service.pump()
        assert faulty.calls == faulty.at
        _assert_nothing_lost(service)
        assert service.watermarks() == watermarks
        assert sum(service.staleness().values()) > 0
        for text, want in zip(QUERIES, before):
            assert_same_corpus_answer(service.execute(text).result, want, text)
        _assert_drains_to_batch(service, drives, model, config, faulty)


def test_fault_inside_a_replan(drives, model, config, monkeypatch):
    faulty = RaisesOnce(model, at=0)
    real = CorpusQueryService.replan

    def armed(self, replan_model):
        monkeypatch.setattr(CorpusQueryService, "replan", real)
        faulty.at = faulty.calls + 1
        return real(self, replan_model)

    with _service(drives, faulty, config) as service:
        monkeypatch.setattr(CorpusQueryService, "replan", armed)
        with pytest.raises(RuntimeError, match="CUDA"):
            service.pump()
        assert faulty.calls == faulty.at
        assert service.epochs == 0
        _assert_nothing_lost(service)
        _assert_drains_to_batch(service, drives, model, config, faulty)
