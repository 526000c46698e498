"""Failure-injection and edge-case tests.

A production pipeline must behave sanely when the detector misbehaves,
scenes are empty, sequences are tiny, or the budget is extreme.  These
tests exercise those paths end to end.
"""

import numpy as np
import pytest

from repro.core import MASTConfig, MASTIndex, MASTPipeline, HierarchicalMultiAgentSampler
from repro.data import FrameSequence, ObjectArray, PointCloudFrame
from repro.geometry import Pose2D
from repro.inference import DetectionStore, InferenceEngine
from repro.models import DetectionModel, FrameDetections, GroundTruthDetector
from repro.simulation import semantickitti_like
from repro.utils.timing import STAGE_MODEL, CostLedger


class EmptyDetector(DetectionModel):
    """Never detects anything (worst-case proxy failure)."""

    name = "empty"
    cost_per_frame = 0.01

    def detect(self, frame):
        return FrameDetections(
            frame_id=frame.frame_id,
            timestamp=frame.timestamp,
            objects=ObjectArray.empty(),
            model_name=self.name,
        )


class FlakyDetector(DetectionModel):
    """Raises on a specific frame (hardware fault mid-run)."""

    name = "flaky"
    cost_per_frame = 0.01

    def __init__(self, poison_frame: int):
        self.poison_frame = poison_frame

    def detect(self, frame):
        if frame.frame_id == self.poison_frame:
            raise RuntimeError("CUDA error: device-side assert triggered")
        return GroundTruthDetector().detect(frame)


class RaisesOnce(DetectionModel):
    """Delegates to ``base`` (sharing its store entries) but raises on its
    ``at``-th ``detect`` call, once; ``at=0`` never raises."""

    def __init__(self, base: DetectionModel, at: int):
        self.base = base
        self.name = base.name
        self.cost_per_frame = base.cost_per_frame
        self.at = at
        self.calls = 0
        self.returned = 0

    def detect(self, frame):
        self.calls += 1
        if self.calls == self.at:
            raise RuntimeError("CUDA error: device-side assert triggered")
        detections = self.base.detect(frame)
        self.returned += 1
        return detections


class HallucinatingDetector(DetectionModel):
    """Returns a huge number of random boxes per frame."""

    name = "hallucinating"
    cost_per_frame = 0.01

    def detect(self, frame):
        rng = np.random.default_rng(frame.frame_id)
        n = 60
        objects = ObjectArray(
            labels=np.array(["Car"] * n),
            centers=rng.uniform(-70, 70, (n, 3)),
            sizes=np.ones((n, 3)),
            yaws=np.zeros(n),
            scores=rng.uniform(0.5, 1.0, n),
        )
        return FrameDetections(
            frame_id=frame.frame_id,
            timestamp=frame.timestamp,
            objects=objects,
            model_name=self.name,
        )


def empty_sequence(n=50):
    frames = [
        PointCloudFrame(
            frame_id=i,
            timestamp=i * 0.1,
            ego_pose=Pose2D(0.0, 0.0, 0.0),
            ground_truth=ObjectArray.empty(),
        )
        for i in range(n)
    ]
    return FrameSequence(frames, fps=10.0, name="empty-world")


class TestEmptyDetections:
    def test_pipeline_on_empty_world(self):
        pipeline = MASTPipeline(MASTConfig(seed=1)).fit(
            empty_sequence(), GroundTruthDetector()
        )
        retrieval = pipeline.query("SELECT FRAMES WHERE COUNT(Car) >= 1")
        assert retrieval.cardinality == 0
        assert pipeline.query("SELECT AVG OF COUNT(Car)").value == 0.0
        assert pipeline.query("SELECT MAX OF COUNT(Car)").value == 0.0

    def test_pipeline_with_blind_detector(self, kitti_sequence):
        pipeline = MASTPipeline(MASTConfig(seed=1)).fit(
            kitti_sequence, EmptyDetector()
        )
        result = pipeline.query("SELECT FRAMES WHERE COUNT(Car) >= 1")
        assert result.cardinality == 0

    def test_count_le_matches_everything_on_empty_world(self):
        pipeline = MASTPipeline(MASTConfig(seed=1)).fit(
            empty_sequence(), GroundTruthDetector()
        )
        result = pipeline.query("SELECT FRAMES WHERE COUNT(Car) <= 0")
        assert result.cardinality == 50


class TestDetectorCrash:
    def test_exception_propagates_cleanly(self, kitti_sequence):
        pipeline = MASTPipeline(MASTConfig(seed=1))
        with pytest.raises(RuntimeError, match="CUDA"):
            pipeline.fit(kitti_sequence, FlakyDetector(poison_frame=0))

    def test_pipeline_unusable_after_failed_fit(self, kitti_sequence):
        pipeline = MASTPipeline(MASTConfig(seed=1))
        try:
            pipeline.fit(kitti_sequence, FlakyDetector(poison_frame=0))
        except RuntimeError:
            pass
        with pytest.raises(ValueError, match="fit"):
            pipeline.query("SELECT AVG OF COUNT(Car)")


class TestDetectorRaisesOnce:
    """A fault costs one failed call: every frame the detector returned
    before it stays billed, stored and known, so re-entering with what
    survived finishes the undisturbed run at the undisturbed price."""

    CONFIG = MASTConfig(seed=1)  # 200 frames: budget 20, uniform pass 6
    QUERIES = (
        "SELECT FRAMES WHERE COUNT(Car) >= 3",
        "SELECT AVG OF COUNT(Car)",
        "SELECT MED OF COUNT(Car DIST <= 30)",
    )

    @pytest.fixture(scope="class")
    def sequence(self):
        return semantickitti_like(0, n_frames=200, with_points=False)

    def session(self, sequence, model, *, engine, ledger, known=None):
        return HierarchicalMultiAgentSampler(self.CONFIG).session(
            sequence, model, engine=engine, ledger=ledger, known=known
        )

    def run(self, sequence, model, **kwargs):
        session = self.session(sequence, model, **kwargs)
        session.step(session.remaining)
        return session.result()

    @pytest.fixture(scope="class")
    def clean(self, sequence, detector):
        """The undisturbed run every resumed run must reproduce."""
        return self.run(sequence, detector, engine=InferenceEngine(), ledger=CostLedger())

    def assert_same_run(self, sequence, detector, resumed, clean, model):
        assert np.array_equal(resumed.sampled_ids, clean.sampled_ids)
        assert resumed.rewards == clean.rewards
        got, want = (
            MASTPipeline(self.CONFIG).fit_from_sampling(sequence, detector, sampling)
            for sampling in (resumed, clean)
        )
        for text in self.QUERIES:
            assert repr(got.query(text)) == repr(want.query(text))
        # Each frame billed once: the fault added a call, not a charge.
        assert (
            resumed.ledger.invocations(STAGE_MODEL)
            == clean.ledger.invocations(STAGE_MODEL)
            == model.returned
            == model.calls - 1
        )

    def test_wave_keeps_what_it_paid_for(self, sequence, detector):
        model = RaisesOnce(detector, at=4)
        store, ledger, known = DetectionStore(), CostLedger(), {}
        engine = InferenceEngine(store=store)
        with pytest.raises(RuntimeError, match="CUDA"):
            engine.detect_wave(sequence, range(8), model, ledger=ledger, known=known)
        assert ledger.invocations(STAGE_MODEL) == len(known) == len(store) == 3
        engine.detect_wave(sequence, range(8), model, ledger=ledger, known=known)
        assert ledger.invocations(STAGE_MODEL) == model.returned == len(known) == 8
        assert model.calls == 9  # the fault itself is the only call not billed

    def test_uniform_pass_resumes_from_the_store(self, sequence, detector, clean):
        model = RaisesOnce(detector, at=3)  # inside the 6-frame uniform pass
        engine, ledger = InferenceEngine(store=DetectionStore()), CostLedger()
        with pytest.raises(RuntimeError, match="CUDA"):
            self.session(sequence, model, engine=engine, ledger=ledger)
        assert ledger.invocations(STAGE_MODEL) == len(engine.store) == 2
        resumed = self.run(sequence, model, engine=engine, ledger=ledger)
        self.assert_same_run(sequence, detector, resumed, clean, model)

    def test_adaptive_step_resumes_from_known(self, sequence, detector, clean):
        model = RaisesOnce(detector, at=12)  # the 6th adaptive round
        engine, ledger = InferenceEngine(), CostLedger()  # no store: known= alone
        session = self.session(sequence, model, engine=engine, ledger=ledger)
        with pytest.raises(RuntimeError, match="CUDA"):
            session.step(session.remaining)
        survived = session.result().detections
        assert ledger.invocations(STAGE_MODEL) == len(survived) == 11
        resumed = self.run(
            sequence, model, engine=engine, ledger=ledger, known=survived
        )
        self.assert_same_run(sequence, detector, resumed, clean, model)

    def test_oracle_pass_resumes_from_the_store(self, sequence, detector):
        from repro.baselines import OracleCountProvider
        from repro.query import QueryEngine

        clean = OracleCountProvider(sequence, detector)
        model = RaisesOnce(detector, at=50)
        engine, ledger = InferenceEngine(store=DetectionStore()), CostLedger()
        with pytest.raises(RuntimeError, match="CUDA"):
            OracleCountProvider(sequence, model, ledger=ledger, engine=engine)
        assert ledger.invocations(STAGE_MODEL) == len(engine.store) == 49
        resumed = OracleCountProvider(sequence, model, ledger=ledger, engine=engine)
        assert ledger.invocations(STAGE_MODEL) == model.returned == len(sequence)
        assert clean.ledger.invocations(STAGE_MODEL) == len(sequence)
        for text in self.QUERIES:
            assert repr(QueryEngine(resumed).execute(text)) == repr(
                QueryEngine(clean).execute(text)
            )


class TestHallucination:
    def test_pipeline_survives_box_floods(self):
        sequence = semantickitti_like(0, n_frames=120, with_points=False)
        pipeline = MASTPipeline(MASTConfig(seed=1)).fit(
            sequence, HallucinatingDetector()
        )
        result = pipeline.query("SELECT MAX OF COUNT(Car)")
        assert result.value > 0
        assert pipeline.index.n_indexed_objects > 0


class TestTinySequences:
    @pytest.mark.parametrize("n_frames", [2, 3, 5])
    def test_pipeline_on_tiny_sequences(self, n_frames):
        sequence = semantickitti_like(0, n_frames=n_frames, with_points=False)
        pipeline = MASTPipeline(
            MASTConfig(seed=1, budget_fraction=0.9)
        ).fit(sequence, GroundTruthDetector())
        result = pipeline.query("SELECT FRAMES WHERE COUNT(Car) >= 1")
        assert 0 <= result.cardinality <= n_frames

    def test_single_frame_sequence(self):
        sequence = semantickitti_like(0, n_frames=1, with_points=False)
        sampler = HierarchicalMultiAgentSampler(MASTConfig(seed=1))
        result = sampler.sample(sequence, GroundTruthDetector())
        assert list(result.sampled_ids) == [0]
        index = MASTIndex.build(result)
        assert index.n_frames == 1


class TestExtremeBudgets:
    def test_near_full_budget(self):
        sequence = semantickitti_like(0, n_frames=60, with_points=False)
        pipeline = MASTPipeline(
            MASTConfig(seed=1, budget_fraction=0.99)
        ).fit(sequence, GroundTruthDetector())
        sampled = pipeline.sampling_result.sampled_ids
        assert len(sampled) == round(0.99 * 60)
        # With nearly everything sampled, answers are near-exact.
        from repro.baselines import OracleCountProvider
        from repro.query import QueryEngine

        oracle = QueryEngine(
            OracleCountProvider(sequence, GroundTruthDetector())
        )
        text = "SELECT AVG OF COUNT(Car DIST <= 30)"
        assert pipeline.query(text).value == pytest.approx(
            oracle.execute(text).value, rel=0.05
        )

    def test_minimal_budget(self):
        sequence = semantickitti_like(0, n_frames=300, with_points=False)
        pipeline = MASTPipeline(
            MASTConfig(seed=1, budget_fraction=0.01)
        ).fit(sequence, GroundTruthDetector())
        assert len(pipeline.sampling_result.sampled_ids) >= 2
        pipeline.query("SELECT AVG OF COUNT(Car)")


class TestMalformedInputsAtBoundaries:
    def test_engine_rejects_garbage_query_types(self, kitti_sequence):
        pipeline = MASTPipeline(MASTConfig(seed=1)).fit(
            kitti_sequence.head(50, name="head"), GroundTruthDetector()
        )
        with pytest.raises(TypeError):
            pipeline.query(12345)

    def test_parser_errors_are_value_errors(self, kitti_sequence):
        pipeline = MASTPipeline(MASTConfig(seed=1)).fit(
            kitti_sequence.head(50, name="head2"), GroundTruthDetector()
        )
        with pytest.raises(ValueError):
            pipeline.query("SELECT SOMETHING WEIRD")
