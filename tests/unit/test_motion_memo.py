"""One owner for motion estimates: the index keeps them, the sampler reads them.

An index build analyses every gap it does not carry over (Alg. 1), and
the pipeline hands the live sampling session a read-only view of the
index's gap -> estimate map on every install.  A reward inside such a
gap reads the estimate instead of analysing the pair again, but only
when the estimate's inputs are the reward's own: the same two detection
objects (``is``), the same timestamps and the same matching gate.
Nothing about that may change a number: every differential here runs
the same work under ``without_handover()`` (no session is handed
anything, so every reward analyses its pair) and compares bit for bit.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import HierarchicalMultiAgentSampler, MASTConfig, MASTPipeline
from repro.core.sampler import NOTHING_INSTALLED
from repro.core.stpc import analyze_pair
from repro.data import ObjectArray
from repro.flow.fingerprint import stable_digest
from repro.inference import InferenceEngine
from repro.simulation import semantickitti_like
from tests.streaming.harness import assert_same_pipeline_state, pipeline_state


def scene(positions, scores=None) -> ObjectArray:
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    return ObjectArray(
        labels=np.asarray(["Car"] * n),
        centers=np.column_stack([positions, np.zeros(n)]),
        sizes=np.ones((n, 3)),
        yaws=np.zeros(n),
        scores=np.asarray(scores if scores is not None else [0.9] * n, dtype=float),
    )


def _copy(objects: ObjectArray) -> ObjectArray:
    """An equal set of detections that is another object."""
    return objects.filter(np.arange(len(objects)))


# ----------------------------------------------------------------------
# The reward's reuse rule
# ----------------------------------------------------------------------
class TestRewardReadsOnlyItsOwnEstimate:
    """``_adaptive_reward`` of frame 1 between sampled frames 0 and 2."""

    CONFIG = MASTConfig()
    LEFT = scene([[0, 0], [10, 0]])
    RIGHT = scene([[2, 0], [12, 0]])
    ACTUAL = scene([[1.2, 0], [30, 0]], scores=[0.9, 0.2])
    SEQUENCE = SimpleNamespace(timestamps=np.array([0.0, 0.5, 1.0]))

    def reward(self, installed) -> float:
        sampler = HierarchicalMultiAgentSampler(self.CONFIG)
        detections = {0: self.LEFT, 2: self.RIGHT}
        return sampler._adaptive_reward(
            self.SEQUENCE, [0, 2], detections, 1, self.ACTUAL, "st", installed
        )

    def test_the_installed_estimate_is_read(self, pair_analyses):
        reference = self.reward(NOTHING_INSTALLED)
        assert pair_analyses == [(0.0, 1.0)]
        estimate = analyze_pair(self.LEFT, self.RIGHT, 0.0, 1.0)
        pair_analyses.clear()
        installed = ({(0, 2): estimate}, self.CONFIG.match_max_distance)
        assert self.reward(installed) == reference
        assert pair_analyses == []

    @pytest.mark.parametrize(
        "start, end, t_end, gate",
        [
            pytest.param("copy", "same", 1.0, None, id="equal-copy-of-the-left-set"),
            pytest.param("same", "copy", 1.0, None, id="equal-copy-of-the-right-set"),
            pytest.param("same", "same", 2.0, None, id="other-timestamps"),
            pytest.param("same", "same", 1.0, 5.0, id="other-gate"),
        ],
    )
    def test_each_failed_guard_forces_an_analysis(
        self, pair_analyses, start, end, t_end, gate
    ):
        reference = self.reward(NOTHING_INSTALLED)
        left = _copy(self.LEFT) if start == "copy" else self.LEFT
        right = _copy(self.RIGHT) if end == "copy" else self.RIGHT
        estimate = analyze_pair(left, right, 0.0, t_end, max_distance=gate)
        pair_analyses.clear()
        assert self.reward(({(0, 2): estimate}, gate)) == reference
        assert pair_analyses == [(0.0, 1.0)]


# ----------------------------------------------------------------------
# The hand-over
# ----------------------------------------------------------------------
def _live_epoch(sequence, detector, config, analyses):
    """Install a partly spent session, then spend ten more frames on it.

    Returns the rewards, the ``(t_start, t_end)`` of the gaps the
    installed index held, the pairs the second epoch analysed, and the
    pipeline's state once the session is installed again.
    """
    pipeline = MASTPipeline(config)
    session = HierarchicalMultiAgentSampler(config).session(
        sequence, detector, engine=pipeline.engine, budget=60
    )
    session.step(10)
    pipeline.fit_from_sampling(sequence, detector, session.result(), session=session)
    held = {(e.t_start, e.t_end) for e in pipeline.index._estimates.values()}
    before = len(analyses)
    rewards = session.step(10)
    return rewards, held, analyses[before:], pipeline_state(
        pipeline.fit_from_sampling(sequence, detector, session.result(), session=session)
    )


class TestHandover:
    def test_a_live_epoch_analyses_no_gap_the_installed_index_holds(
        self, detector, pair_analyses, without_handover
    ):
        sequence = semantickitti_like(0, n_frames=240, with_points=False)
        config = MASTConfig(seed=4)
        rewards, held, analysed, state = _live_epoch(
            sequence, detector, config, pair_analyses
        )
        assert len(rewards) == 10
        # Every reward in a held gap read its estimate; only the halves
        # of gaps this epoch split were analysed.
        assert not set(analysed) & held
        assert len(analysed) < len(rewards)

        with without_handover():
            ref_rewards, ref_held, ref_analysed, ref_state = _live_epoch(
                sequence, detector, config, pair_analyses
            )
        assert rewards == ref_rewards and held == ref_held
        assert len(ref_analysed) == len(ref_rewards)
        assert set(ref_analysed) & held
        assert_same_pipeline_state(state, ref_state, "after the live epoch")

    def test_every_install_hands_over_and_a_rollback_keeps_the_entry_view(
        self, detector
    ):
        sequence = semantickitti_like(0, n_frames=160, with_points=False)
        config = MASTConfig(seed=4)
        pipeline = MASTPipeline(config).fit(sequence.head(120, name=sequence.name), detector)
        session = pipeline.session
        estimates, gate = session.installed
        assert dict(estimates) == pipeline.index._estimates and gate == config.match_max_distance
        with pytest.raises(TypeError):
            estimates[(0, 1)] = None  # a read-only view

        entered = session.installed
        with pytest.raises(RuntimeError), session.atomic():
            pipeline.extend(list(sequence[120:]))
            assert session.installed is not entered
            raise RuntimeError("the epoch fails after its install")
        assert session.installed is entered


# ----------------------------------------------------------------------
# Differentials against the no-hand-over reference
# ----------------------------------------------------------------------
def _extend_chain(full, detector, config, analyses):
    """Fit 200 frames, then grow by 1, 30 and 9 frames; snapshot every
    step.  Also returns how many pairs the rewards analysed."""
    before = len(analyses)
    with MASTPipeline(config) as pipeline:
        pipeline.fit(full.head(200, name=full.name), detector)
        snapshots = [pipeline_state(pipeline)]
        for stop in (201, 231, 240):
            pipeline.extend(list(full[len(pipeline.sequence) : stop]))
            snapshots.append(pipeline_state(pipeline))
        return snapshots, len(analyses) - before


def _assert_same_snapshots(got, want):
    assert len(got) == len(want)
    for step, (state, reference) in enumerate(zip(got, want)):
        assert_same_pipeline_state(state, reference, f"step {step}")


class TestDifferential:
    def test_extend_chain_is_bit_identical_to_always_computing(
        self, detector, pair_analyses, without_handover
    ):
        full = semantickitti_like(0, n_frames=240, with_points=False)
        config = MASTConfig(seed=4)
        handed_over, analysed = _extend_chain(full, detector, config, pair_analyses)
        with without_handover():
            reference, ref_analysed = _extend_chain(full, detector, config, pair_analyses)
        assert analysed < ref_analysed
        _assert_same_snapshots(handed_over, reference)

    def test_replanned_session_is_bit_identical(self, detector, without_handover):
        """A re-plan re-enters the sampler from frame 0 over the carried
        detections: its numbers are the first plan's and the reference's."""
        sequence = semantickitti_like(0, n_frames=240, with_points=False)
        config = MASTConfig(seed=4)
        sampler = HierarchicalMultiAgentSampler(config)

        def two_plans():
            with InferenceEngine() as engine:
                first = sampler.sample(sequence, detector, engine=engine)
                session = sampler.session(
                    sequence, detector, engine=engine, known=first.detections
                )
                session.step(session.remaining)
                return first, session.result()

        first, second = two_plans()
        assert np.array_equal(first.sampled_ids, second.sampled_ids)
        assert first.rewards == second.rewards and first.rewards
        with without_handover():
            ref_first, ref_second = two_plans()
        for got, want in ((first, ref_first), (second, ref_second)):
            assert np.array_equal(got.sampled_ids, want.sampled_ids)
            assert got.rewards == want.rewards
            assert stable_digest(got) == stable_digest(want)


# ----------------------------------------------------------------------
# No estimate leaves the index
# ----------------------------------------------------------------------
class TestNothingRidesAlong:
    def test_pickled_sampling_result_is_the_references(self, detector, without_handover):
        sequence = semantickitti_like(0, n_frames=160, with_points=False)
        config = MASTConfig(seed=4)

        def fitted():
            with MASTPipeline(config) as pipeline:
                pipeline.fit(sequence, detector)
                return pipeline.sampling_result, len(pipeline.session.installed[0])

        sampling, handed_over = fitted()
        assert handed_over > 0
        payload = pickle.dumps(sampling, protocol=pickle.HIGHEST_PROTOCOL)
        for marker in (b"MotionEstimate", b"mappingproxy", b"InferenceEngine", b"motion"):
            assert marker not in payload
        with without_handover():
            reference, nothing = fitted()
        assert nothing == 0
        # Measured policy seconds differ run to run; every other byte —
        # and so the length — is the reference's.
        assert len(payload) == len(pickle.dumps(reference, protocol=pickle.HIGHEST_PROTOCOL))
        assert stable_digest(pickle.loads(payload)) == stable_digest(reference)

    def test_flow_checkpoints_are_the_references(self, tmp_path, without_handover):
        from repro.evalx import ExperimentFlowSpec, experiment_flow
        from repro.flow import FlowRunner

        spec = ExperimentFlowSpec(
            dataset="semantickitti",
            sequence_index=0,
            n_frames=120,
            methods=("seiden_pc", "mast"),
            budgets=(0.10,),
        )

        def checkpoints(directory):
            FlowRunner(experiment_flow(spec), checkpoint_dir=directory).run()
            return {path.name: path for path in directory.rglob("*.ckpt")}

        handed_over = checkpoints(tmp_path / "handed_over")
        with without_handover():
            reference = checkpoints(tmp_path / "reference")
        # Checkpoint names are content keys chained through every
        # upstream fingerprint: equal names are equal values.
        assert handed_over.keys() == reference.keys() and handed_over
        for name, path in handed_over.items():
            payload = path.read_bytes()
            assert b"MotionEstimate" not in payload and b"mappingproxy" not in payload
            assert len(payload) == reference[name].stat().st_size, name
