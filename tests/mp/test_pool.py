"""ProcessShardPool: placement, replication, warm-up accounting."""

from __future__ import annotations

import pytest

from repro.serving.mp import ProcessShardPool
from repro.serving.protocol import assign_shards, replicas_of

NAMES = ("alpha", "beta", "gamma")


class TestAssignShards:
    def test_fewer_workers_than_shards_interleaves(self):
        assert assign_shards(NAMES, 2) == [("alpha", "gamma"), ("beta",)]

    def test_equal_counts_is_one_each(self):
        assert assign_shards(NAMES, 3) == [("alpha",), ("beta",), ("gamma",)]

    def test_more_workers_than_shards_replicates(self):
        assignment = assign_shards(NAMES, 5)
        assert assignment == [
            ("alpha",),
            ("beta",),
            ("gamma",),
            ("alpha",),
            ("beta",),
        ]
        # Every shard is owned at least once, in round-robin order.
        for name in NAMES:
            assert replicas_of(assignment, name)

    def test_single_worker_owns_everything(self):
        assert assign_shards(NAMES, 1) == [NAMES]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            assign_shards(NAMES, 0)
        with pytest.raises(ValueError, match="at least one shard"):
            assign_shards((), 2)


class TestReplicasOf:
    def test_owners_in_worker_id_order(self):
        assignment = assign_shards(NAMES, 5)
        assert replicas_of(assignment, "alpha") == (0, 3)
        assert replicas_of(assignment, "gamma") == (2,)

    def test_unassigned_shard_rejected(self):
        with pytest.raises(ValueError, match="not assigned"):
            replicas_of([("alpha",)], "delta")


class _FakeWorker:
    """Routing tests need only the worker *count*, not live processes."""


class TestRouting:
    def test_pick_replica_round_robins_over_owners(self):
        pool = ProcessShardPool(
            [_FakeWorker() for _ in range(5)], NAMES  # type: ignore[list-item]
        )
        picks = [pool.pick_replica("alpha") for _ in range(4)]
        assert picks == [0, 3, 0, 3]
        # Single-owner shards skip the round-robin counter entirely.
        assert [pool.pick_replica("gamma") for _ in range(3)] == [2, 2, 2]

    def test_request_ids_are_unique_and_monotonic(self):
        pool = ProcessShardPool([_FakeWorker()], NAMES)  # type: ignore[list-item]
        ids = [pool.next_request_id() for _ in range(10)]
        assert ids == sorted(set(ids))

    def test_empty_worker_list_rejected(self):
        with pytest.raises(ValueError, match="at least one worker"):
            ProcessShardPool([], NAMES)


class TestWarmup:
    def test_workers_warm_from_disk_with_zero_invocations(self, mp_service):
        """Standing up the fleet never touches the model: the npz export
        resolves every sampled-frame detection as a disk hit."""
        pool = mp_service.pool
        for client in pool.workers:
            assert client.ready.invocations == 0
            assert client.ready.disk_hits > 0
            assert client.ready.error is None

    def test_assignment_covers_every_shard_exactly_once(self, mp_service):
        pool = mp_service.pool
        owned = [name for shards in pool.assignment for name in shards]
        assert sorted(owned) == sorted(mp_service.names)
        for client, shards in zip(pool.workers, pool.assignment):
            assert client.shards == shards
            assert client.ready.shards == shards

    def test_worker_stats_report_per_shard_counters(self, mp_service):
        responses = mp_service.worker_stats()
        assert [r.worker_id for r in responses] == list(
            range(len(mp_service.pool.workers))
        )
        for response, shards in zip(responses, mp_service.pool.assignment):
            assert tuple(response.shards) == shards
            for stats in response.shards.values():
                assert stats.invocations == 0
                assert stats.n_frames > 0
