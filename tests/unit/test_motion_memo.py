"""The engine-owned motion memo: bounded, identity-keyed, invisible in results.

ST-PC analysis runs once per pair of detections and the Eq. 1 reward once
per triple, whoever asks — and nothing about that may change a number:
every differential here runs the same work under ``always_computing()``
(each lookup computes) and compares bit for bit.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import HierarchicalMultiAgentSampler, MASTConfig, MASTPipeline
from repro.core import reward as reward_module
from repro.core import stpc as stpc_module
from repro.core.reward import triple_reward
from repro.core.stpc import analyze_pair_once
from repro.data import ObjectArray
from repro.flow.fingerprint import stable_digest
from repro.inference import MOTION_MEMO_ENTRIES, InferenceEngine, MotionMemo
from repro.inference import motion as motion_module
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


class Token:
    """A keyed-on object with no content: only its identity matters."""


# ----------------------------------------------------------------------
# The memo itself
# ----------------------------------------------------------------------
class TestMemo:
    def test_same_objects_and_scalars_hit(self):
        memo, token = MotionMemo(), Token()
        first = memo.get("f", (token,), (1.0, None), object)
        assert memo.get("f", (token,), (1.0, None), object) is first
        assert memo.stats() == {"hits": 1, "misses": 1, "evictions": 0, "entries": 1}

    def test_objects_match_by_identity_scalars_by_value_kinds_apart(self):
        memo, token = MotionMemo(), Token()
        first = memo.get("f", (token,), (1.0,), object)
        assert memo.get("f", (Token(),), (1.0,), object) is not first
        assert memo.get("f", (token,), (2.0,), object) is not first
        assert memo.get("g", (token,), (1.0,), object) is not first
        assert memo.get("f", (token,), (1.0,), object) is first
        assert len(memo) == 4

    def test_entries_never_exceed_the_constant_and_eviction_is_lru(self):
        memo, token = MotionMemo(), Token()
        for k in range(MOTION_MEMO_ENTRIES):
            memo.get("f", (token,), (k,), lambda k=k: k)
        assert len(memo) == MOTION_MEMO_ENTRIES
        assert memo.stats()["evictions"] == 0

        # Touch the oldest entry: the overflow that follows must evict
        # the least recently *used* entries (1, 2, 3), not entry 0.
        assert memo.get("f", (token,), (0,), lambda: "recomputed") == 0
        for k in range(3):
            memo.get("f", (token,), (MOTION_MEMO_ENTRIES + k,), lambda: None)
            assert len(memo) == MOTION_MEMO_ENTRIES
        assert memo.stats()["evictions"] == 3
        assert memo.get("f", (token,), (0,), lambda: "recomputed") == 0
        assert memo.get("f", (token,), (4,), lambda: "recomputed") == 4
        for k in (1, 2, 3):
            assert memo.get("f", (token,), (k,), lambda: "recomputed") == "recomputed"
        assert len(memo) == MOTION_MEMO_ENTRIES

    def test_a_recycled_id_is_never_a_stale_hit(self, monkeypatch):
        """An entry keeps its objects alive, so their ids cannot be
        reused while it exists; once it is evicted, a new object at the
        old address misses."""
        monkeypatch.setattr(motion_module, "MOTION_MEMO_ENTRIES", 1)
        evictor = Token()
        for _ in range(200):
            memo = MotionMemo()
            dropped = Token()
            address, alive = id(dropped), weakref.ref(dropped)
            assert memo.get("f", (dropped,), (), lambda: "old") == "old"
            del dropped
            gc.collect()
            assert alive() is not None

            memo.get("f", (evictor,), (), lambda: None)
            assert alive() is None
            recycled = Token()
            if id(recycled) == address:
                assert memo.get("f", (recycled,), (), lambda: "new") == "new"
                return
        pytest.skip("the allocator never handed the freed address out again")

    def test_racing_threads_lose_no_update_and_share_one_result(self):
        memo, token = MotionMemo(), Token()
        n_threads, n_keys, rounds = 8, 64, 200
        results = [[] for _ in range(n_threads)]
        start = threading.Barrier(n_threads)

        def worker(slot: int) -> None:
            start.wait(timeout=30)
            for step in range(rounds):
                key = (slot * 7 + step) % n_keys
                results[slot].append((key, memo.get("f", (token,), (key,), object)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,)) for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)

        stats = memo.stats()
        assert stats["hits"] + stats["misses"] == n_threads * rounds
        assert stats["entries"] == n_keys and stats["evictions"] == 0
        by_key: dict[int, set[int]] = {}
        for key, value in (pair for slot in results for pair in slot):
            by_key.setdefault(key, set()).add(id(value))
        assert all(len(values) == 1 for values in by_key.values())


# ----------------------------------------------------------------------
# The two memoized functions
# ----------------------------------------------------------------------
@pytest.fixture()
def counted(monkeypatch):
    """Calls of ``analyze_pair`` / ``st_reward`` by name."""
    calls = {"analyze_pair": 0, "st_reward": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(stpc_module, "analyze_pair")
    counting(reward_module, "st_reward")
    return calls


REWARD = dict(confidence_threshold=0.5, d_max=75.0, c_var=0.5, max_distance=None)


class TestOncePerPairOncePerTriple:
    def test_one_estimate_per_pair_of_objects_times_and_gate(self, counted):
        a, b = scene([[0, 0], [10, 0]]), scene([[1, 0], [11, 0]])
        with InferenceEngine() as engine:
            first = analyze_pair_once(engine, a, b, 0.0, 1.0, max_distance=None)
            assert analyze_pair_once(engine, a, b, 0.0, 1.0, max_distance=None) is first
            assert analyze_pair_once(engine, a, b, np.float64(0.0), 1, max_distance=None) is first
            assert counted["analyze_pair"] == 1

            equal_copy = a.filter(np.arange(len(a)))
            others = [
                analyze_pair_once(engine, equal_copy, b, 0.0, 1.0, max_distance=None),
                analyze_pair_once(engine, a, b, 0.0, 2.0, max_distance=None),
                analyze_pair_once(engine, a, b, 0.0, 1.0, max_distance=5.0),
            ]
            assert counted["analyze_pair"] == 4
            assert all(other is not first for other in others)

    def test_without_an_engine_it_simply_computes(self, counted):
        a, b = scene([[0, 0]]), scene([[1, 0]])
        first = analyze_pair_once(None, a, b, 0.0, 1.0)
        second = analyze_pair_once(None, a, b, 0.0, 1.0)
        assert first is not second and counted["analyze_pair"] == 2
        assert triple_reward(None, a, b, a, 0.0, 1.0, 0.5, **REWARD) == triple_reward(
            None, a, b, a, 0.0, 1.0, 0.5, **REWARD
        )
        assert counted["st_reward"] == 2

    def test_a_reward_hit_skips_analysis_and_matching(self, counted):
        left, right = scene([[0, 0], [10, 0]]), scene([[2, 0], [12, 0]])
        actual = scene([[1.2, 0], [30, 0]], scores=[0.9, 0.2])
        with InferenceEngine() as engine:
            first = triple_reward(engine, left, right, actual, 0.0, 1.0, 0.5, **REWARD)
            assert counted == {"analyze_pair": 1, "st_reward": 1}
            assert triple_reward(engine, left, right, actual, 0.0, 1.0, 0.5, **REWARD) == first
            assert counted == {"analyze_pair": 1, "st_reward": 1}
            assert first == triple_reward(None, left, right, actual, 0.0, 1.0, 0.5, **REWARD)
            assert counted == {"analyze_pair": 2, "st_reward": 2}

            # Another frame between the same neighbours: the estimate is
            # shared, only the reward is new — and each parameter is keyed.
            triple_reward(engine, left, right, scene([[1, 0]]), 0.0, 1.0, 0.5, **REWARD)
            triple_reward(engine, left, right, actual, 0.0, 1.0, 0.25, **REWARD)
            triple_reward(engine, left, right, actual, 0.0, 1.0, 0.5, **{**REWARD, "c_var": 0.25})
            assert counted == {"analyze_pair": 2, "st_reward": 5}

    def test_the_index_shares_the_samplers_estimate_object(self, kitti_sequence, detector):
        """What the memo keeps and what the index keeps are one object."""
        config = MASTConfig(seed=2)
        with InferenceEngine() as engine:
            pipeline = MASTPipeline(config, engine=engine)
            pipeline.fit(kitti_sequence.head(160, name=kitti_sequence.name), detector)
            sampling = pipeline.sampling_result
            for (start, end), estimate in pipeline.index._estimates.items():
                again = analyze_pair_once(
                    engine,
                    sampling.detections[start],
                    sampling.detections[end],
                    sampling.timestamps[start],
                    sampling.timestamps[end],
                    max_distance=config.match_max_distance,
                )
                assert again is estimate


# ----------------------------------------------------------------------
# Differentials against the always-computing reference
# ----------------------------------------------------------------------
def _extend_chain(full, detector, config):
    """Fit 200 frames, then grow by 1, 30 and 9 frames; snapshot every step."""
    with MASTPipeline(config) as pipeline:
        pipeline.fit(full.head(200, name=full.name), detector)
        snapshots = [pipeline_state(pipeline)]
        for stop in (201, 231, 240):
            pipeline.extend(list(full[len(pipeline.sequence) : stop]))
            snapshots.append(pipeline_state(pipeline))
        return snapshots, pipeline.engine.motion.stats()


def _assert_same_snapshots(got, want):
    assert len(got) == len(want)
    for step, (state, reference) in enumerate(zip(got, want)):
        assert_same_pipeline_state(state, reference, f"step {step}")


class TestDifferential:
    def test_extend_chain_is_bit_identical_to_always_computing(
        self, detector, always_computing
    ):
        full = semantickitti_like(0, n_frames=240, with_points=False)
        config = MASTConfig(seed=4)
        memoized, stats = _extend_chain(full, detector, config)
        with always_computing():
            reference, untouched = _extend_chain(full, detector, config)
        assert stats["hits"] > 0 and untouched["hits"] == untouched["misses"] == 0
        _assert_same_snapshots(memoized, reference)

    def test_replanned_session_hits_and_is_bit_identical(self, detector, always_computing):
        """A re-plan re-enters the sampler from frame 0 over the carried
        detections: its repeated triples are hits, its numbers the same."""
        sequence = semantickitti_like(0, n_frames=240, with_points=False)
        config = MASTConfig(seed=4)
        sampler = HierarchicalMultiAgentSampler(config)

        def two_plans():
            with InferenceEngine() as engine:
                first = sampler.sample(sequence, detector, engine=engine)
                before = engine.motion.stats()
                session = sampler.session(
                    sequence, detector, engine=engine, known=first.detections
                )
                session.step(session.remaining)
                return first, session.result(), before, engine.motion.stats()

        first, second, before, after = two_plans()
        assert before["hits"] == 0
        assert after["hits"] - before["hits"] == len(second.rewards) > 0
        assert after["misses"] == before["misses"]
        with always_computing():
            ref_first, ref_second, _, _ = two_plans()
        for got, want in ((first, ref_first), (second, ref_second)):
            assert np.array_equal(got.sampled_ids, want.sampled_ids)
            assert got.rewards == want.rewards
            assert stable_digest(got) == stable_digest(want)


# ----------------------------------------------------------------------
# Nothing memo-related leaves the engine
# ----------------------------------------------------------------------
class TestNothingRidesAlong:
    def test_pickled_sampling_result_is_the_references(self, detector, always_computing):
        sequence = semantickitti_like(0, n_frames=160, with_points=False)
        config = MASTConfig(seed=4)

        def fitted():
            with MASTPipeline(config) as pipeline:
                pipeline.fit(sequence, detector)
                return pipeline.sampling_result, len(pipeline.engine.motion)

        sampling, entries = fitted()
        assert entries > 0
        payload = pickle.dumps(sampling, protocol=pickle.HIGHEST_PROTOCOL)
        for marker in (b"MotionMemo", b"MotionEstimate", b"InferenceEngine", b"motion"):
            assert marker not in payload
        with always_computing():
            reference, _ = fitted()
        # Measured policy seconds differ run to run; every other byte —
        # and so the length — is the reference's.
        assert len(payload) == len(pickle.dumps(reference, protocol=pickle.HIGHEST_PROTOCOL))
        assert stable_digest(pickle.loads(payload)) == stable_digest(reference)

    def test_flow_checkpoints_are_the_references(self, tmp_path, always_computing):
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

        memoized = checkpoints(tmp_path / "memo")
        with always_computing():
            reference = checkpoints(tmp_path / "reference")
        # Checkpoint names are content keys chained through every
        # upstream fingerprint: equal names are equal values.
        assert memoized.keys() == reference.keys() and memoized
        for name, path in memoized.items():
            payload = path.read_bytes()
            assert b"MotionMemo" not in payload and b"MotionEstimate" not in payload
            assert len(payload) == reference[name].stat().st_size, name
