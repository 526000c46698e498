"""Differential pins: process backend ≡ thread backend ≡ serial.

Bit-identity is the contract, not approximation: the worker processes
rebuild each shard from the same sampling result over the same store,
run the same provider code, and the parent merges fan-outs with the
same exact merge — so every answer must match the serial reference to
the last bit.  The tier has no write path: ``extend`` and ``replan``
are refused.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus import CorpusQueryService
from repro.simulation import semantickitti_like


def mixed_workload(names: tuple[str, ...]) -> list[str]:
    return [
        f"SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1 IN SEQUENCE {names[0]}",
        "SELECT AVG OF COUNT(Car)",
        f"SELECT MED OF COUNT(Pedestrian) IN SEQUENCE {names[1]}",
        "SELECT FRAMES WHERE COUNT(Car) >= 1 AND COUNT(Truck) >= 1",
        "SELECT MED OF COUNT(Car DIST >= 5)",
        f"SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1 IN SEQUENCE {names[0]}",
        "SELECT COUNT FRAMES WHERE COUNT(Car DIST <= 10) >= 2",
        "SELECT AVG OF COUNT(Car)",
    ]


def assert_same_answer(actual, expected, context: str) -> None:
    """Exact equality across the three result shapes the tier returns."""
    if hasattr(expected, "by_sequence"):
        assert set(actual.by_sequence) == set(expected.by_sequence), context
        for name, want in expected.by_sequence.items():
            assert_same_answer(actual.by_sequence[name], want, f"{context}/{name}")
    if hasattr(expected, "frame_ids"):
        assert np.array_equal(actual.frame_ids, expected.frame_ids), context
    if hasattr(expected, "value"):
        same = actual.value == expected.value or (
            np.isnan(actual.value) and np.isnan(expected.value)
        )
        assert same, context


class TestMixedWorkload:
    def test_process_equals_thread_equals_serial(self, mp_service, mp_corpus):
        texts = mixed_workload(mp_service.names)
        from_process = mp_service.execute_batch(texts)
        serial = [mp_corpus.query(text) for text in texts]
        with CorpusQueryService(mp_corpus) as thread_service:
            from_thread = thread_service.execute_batch(texts)
        for text, p, t, s in zip(texts, from_process, from_thread, serial):
            assert_same_answer(p, s, f"process vs serial: {text}")
            assert_same_answer(t, s, f"thread vs serial: {text}")

    def test_execute_many_equals_execute_batch(self, mp_service):
        texts = mixed_workload(mp_service.names)
        batched = mp_service.execute_batch(texts)
        serial = mp_service.execute_many(texts)
        for text, a, b in zip(texts, batched, serial):
            assert_same_answer(a, b, f"batch vs many: {text}")

    def test_unknown_sequence_rejected(self, mp_service):
        with pytest.raises(ValueError, match="unknown sequence"):
            mp_service.execute("SELECT AVG OF COUNT(Car) IN SEQUENCE nope")


class TestReadOnly:
    def test_extend_and_replan_are_refused(self, mp_service, mp_corpus, mp_model):
        """The tier serves the corpus it was started with: a write is
        refused before it touches the catalog, a shard or the ledger."""
        name = mp_service.names[0]
        frames = len(mp_corpus.catalog.sequence(name))
        invocations = mp_corpus.merged_ledger().invocations("deep_model")
        text = f"SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1 IN SEQUENCE {name}"
        before = mp_service.execute(text)
        tail = list(semantickitti_like(0, n_frames=frames + 12, with_points=False))[frames:]
        with pytest.raises(ValueError, match="extend needs backend='thread'"):
            mp_service.extend(name, tail)
        with pytest.raises(ValueError, match="replan needs backend='thread'"):
            mp_service.replan(mp_model)
        assert len(mp_corpus.catalog.sequence(name)) == frames
        assert mp_corpus.merged_ledger().invocations("deep_model") == invocations
        assert np.array_equal(mp_service.execute(text).frame_ids, before.frame_ids)
