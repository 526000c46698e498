"""Unit tests for standing queries and their drift signal (``repro.streaming``)."""

import numpy as np
import pytest

from repro.core import MASTConfig
from repro.models import GroundTruthDetector
from repro.simulation import ScriptedScenario
from repro.streaming import ArrivalSchedule, ScheduledFrameSource, StreamingCorpusService
from repro.streaming.service import drift_zscore

RETRIEVAL = "SELECT FRAMES WHERE COUNT(Car DIST <= 30) >= 1"
AVERAGE = "SELECT AVG OF COUNT(Car DIST <= 30)"


@pytest.fixture(scope="module")
def drained():
    """A service drained over a scripted world that is empty for 30 s and
    then suddenly crowded: 60 frames captured, 341 streamed in tens, a
    re-plan every 60, two standing queries."""
    scenario = ScriptedScenario(fps=10.0, duration=40.0)
    for k in range(8):
        scenario.add_actor("Car", [(30.0, 5.0 + k, 0.0), (40.0, 5.0 + k, 1.0)])
    source = ScheduledFrameSource(
        [scenario.build()],
        initial_frames=60,
        schedule=ArrivalSchedule(rate=10.0, batch_frames=10),
    )
    config = MASTConfig(seed=1, budget_fraction=0.2)
    with StreamingCorpusService(
        source, GroundTruthDetector(), config, replan_every=60
    ) as service:
        service.register_standing(RETRIEVAL)
        service.register_standing(AVERAGE)
        service.quiesce()
        yield service


class TestLifecycle:
    def test_rejects_unsupported_query(self, drained):
        with pytest.raises(TypeError):
            drained.register_standing(12345)

    def test_standing_queries_listed(self, drained):
        assert len(drained.standing_queries) == 2


class TestSnapshots:
    def test_snapshot_sequence(self, drained):
        """One epoch per 60 flushed frames, plus the drain's."""
        snapshots = drained.epoch_snapshots()
        assert [s.epoch for s in snapshots] == [1, 2, 3, 4, 5, 6]
        assert [s.total_frames for s in snapshots] == [120, 180, 240, 300, 360, 401]

    def test_answers_cover_all_queries(self, drained):
        for snapshot in drained.epoch_snapshots():
            assert list(snapshot.answers) == drained.standing_queries
            assert list(snapshot.drift) == drained.standing_queries

    def test_drift_nan_until_history(self, drained):
        for snapshot in drained.epoch_snapshots()[:2]:
            assert all(np.isnan(score) for score in snapshot.drift.values())


class TestDriftDetection:
    def test_traffic_jump_flags_drift(self, drained):
        """The epoch the crowd arrives in drifts; the quiet ones before
        it, with enough history to say so, do not."""
        retrieval = drained.standing_queries[0]
        drift = {s.total_frames: s.drift[retrieval] for s in drained.epoch_snapshots()}
        assert drift[240] == drift[300] == 0.0
        assert drift[360] == float("inf")

    def test_zscore_against_a_varying_history(self):
        assert drift_zscore([1.0, 3.0], 4.0) == pytest.approx(2.0)
        assert drift_zscore([2.0, 2.0], 2.0) == 0.0
