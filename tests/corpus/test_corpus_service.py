"""CorpusQueryService: routing, batching, rollups, extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus import CorpusPipeline, CorpusQueryService
from repro.query import parse_query, parse_scoped_query
from repro.serving.cache import CacheStats
from repro.simulation import semantickitti_like

RETRIEVAL = "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1"
AGGREGATE = "SELECT AVG OF COUNT(Car)"


@pytest.fixture()
def corpus(catalog, config, model):
    with CorpusPipeline(catalog, config, policy="uniform") as corpus:
        yield corpus.fit(model)


@pytest.fixture()
def service(corpus):
    with CorpusQueryService(corpus) as service:
        yield service


class TestRouting:
    def test_scoped_query_returns_plain_shard_result(self, service, corpus):
        name = corpus.names[0]
        result = service.execute(f"{RETRIEVAL} IN SEQUENCE {name}")
        want = corpus.shard(name).query(parse_query(RETRIEVAL))
        assert np.array_equal(result.frame_ids, want.frame_ids)

    def test_fan_out_merges_all_shards(self, service, corpus):
        result = service.execute(RETRIEVAL)
        assert set(result.by_sequence) == set(corpus.names)
        assert result.cardinality == sum(
            r.cardinality for r in result.by_sequence.values()
        )

    def test_fan_out_aggregate_is_exact(self, service, corpus):
        result = service.execute(AGGREGATE)
        combined = np.concatenate(
            [
                np.asarray(result.by_sequence[name].counts, dtype=float)
                for name in corpus.names
            ]
        )
        assert result.value == pytest.approx(float(np.mean(combined)))

    def test_accepts_parsed_and_scoped_objects(self, service, corpus):
        name = corpus.names[0]
        from_text = service.execute(f"{AGGREGATE} IN SEQUENCE {name}")
        from_obj = service.execute(
            parse_scoped_query(f"{AGGREGATE} IN SEQUENCE {name}")
        )
        assert from_text.value == from_obj.value
        bare = service.execute(parse_query(AGGREGATE))
        assert set(bare.by_sequence) == set(corpus.names)

    def test_unknown_sequence_rejected(self, service):
        with pytest.raises(ValueError, match="unknown sequence"):
            service.execute(f"{RETRIEVAL} IN SEQUENCE nope")
        with pytest.raises(ValueError, match="unknown sequence"):
            service.execute_batch([f"{RETRIEVAL} IN SEQUENCE nope"])


class TestBatching:
    def test_batch_preserves_submission_order(self, service, corpus):
        names = corpus.names
        texts = [
            f"{RETRIEVAL} IN SEQUENCE {names[1]}",
            AGGREGATE,
            f"{AGGREGATE} IN SEQUENCE {names[0]}",
            RETRIEVAL,
        ]
        results = service.execute_batch(texts)
        assert len(results) == len(texts)
        assert hasattr(results[0], "frame_ids")       # shard retrieval
        assert hasattr(results[1], "by_sequence")     # corpus aggregate
        assert hasattr(results[2], "value")
        assert not hasattr(results[2], "by_sequence")  # shard aggregate
        assert hasattr(results[3], "id_set")          # corpus retrieval

    def test_batch_matches_serial_execution(self, service):
        texts = [RETRIEVAL, AGGREGATE, RETRIEVAL]
        batched = service.execute_batch(texts)
        serial = service.execute_many(texts)
        assert batched[0].id_set() == serial[0].id_set()
        assert batched[1].value == serial[1].value

    def test_empty_batch(self, service):
        assert service.execute_batch([]) == []


class TestRollups:
    def test_cache_stats_rollup_is_sum_of_shards(self, service):
        service.execute_batch([RETRIEVAL, AGGREGATE, RETRIEVAL, AGGREGATE])
        per_shard = service.cache_stats_by_sequence()
        total = service.cache_stats()
        assert total.hits == sum(s.hits for s in per_shard.values())
        assert total.misses == sum(s.misses for s in per_shard.values())
        assert total.entries == sum(s.entries for s in per_shard.values())
        assert total.misses > 0
        assert total.hits > 0  # repeated filters hit the shard caches

    def test_cache_stats_add(self):
        a = CacheStats(hits=1, misses=2, entries=3, bytes=10)
        b = CacheStats(hits=4, misses=1, evictions=2, bytes=5)
        combined = a + b
        assert combined.hits == 5
        assert combined.misses == 3
        assert combined.evictions == 2
        assert combined.entries == 3
        assert combined.bytes == 15

    def test_cost_summary_covers_shard_stages(self, service):
        service.execute(RETRIEVAL)
        summary = service.cost_summary()
        assert summary  # sampling/indexing stages rolled up
        assert all(seconds >= 0.0 for seconds in summary.values())

    def test_corpus_cost_summaries(self, corpus):
        by_sequence = corpus.cost_summary_by_sequence()
        assert set(by_sequence) == set(corpus.names)
        total = corpus.cost_summary()
        assert total


class TestExtension:
    def test_extend_one_shard_only(self, service, corpus):
        name = corpus.names[0]
        other = corpus.names[1]
        before = service.execute(f"{RETRIEVAL} IN SEQUENCE {name}").n_frames
        other_before = service.execute(
            f"{RETRIEVAL} IN SEQUENCE {other}"
        ).n_frames
        # Frame ids must continue the shard's sequence: build a longer
        # run of the same world and take the tail.
        full = semantickitti_like(0, n_frames=72, with_points=False)
        tail = list(full)[60:]
        service.extend(name, tail)
        # One grown sequence: the catalog installs the one the shard grew into.
        assert corpus.catalog.sequence(name) is corpus.shard(name).sequence
        assert corpus.catalog.n_frames(name) == len(corpus.shard(name).sequence)
        after = service.execute(f"{RETRIEVAL} IN SEQUENCE {name}").n_frames
        assert after == before + len(tail)
        assert (
            service.execute(f"{RETRIEVAL} IN SEQUENCE {other}").n_frames
            == other_before
        )
        # The fan-out picks up the new frames too.
        fan_out = service.execute(RETRIEVAL)
        assert fan_out.n_frames == after + other_before
