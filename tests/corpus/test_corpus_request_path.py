"""The corpus request path (thread backend): caller's thread, one turn.

``CorpusQueryService.execute_batch`` starts no thread, accounts like a
serial ``execute`` loop, yields once per request however many shards it
touches, and keeps answering memoized query texts from the current
epoch after ``extend`` and ``replan``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.corpus import CorpusPipeline, CorpusQueryService
from repro.query.parser import _Parser
from repro.simulation import semantickitti_like
from repro.streaming import ScheduledFrameSource, StreamingCorpusService
from repro.utils.timing import STAGE_QUERY
from tests.streaming.harness import assert_same_answer

LEDGER_FIELDS = ("counts", "simulated")


def _workload(names: tuple[str, ...]) -> list[str]:
    """Scoped and fan-out texts; filters repeat across queries."""
    bodies = [
        "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1",
        "SELECT AVG OF COUNT(Car)",
        "SELECT MED OF COUNT(Car DIST <= 20)",
        "SELECT FRAMES WHERE COUNT(Car) >= 2 AND COUNT(Pedestrian) >= 1",
        "SELECT COUNT FRAMES WHERE COUNT(Car DIST <= 20) >= 2",
    ]
    texts = list(bodies)
    for name in names:
        texts += [f"{body} IN SEQUENCE {name}" for body in bodies]
    return texts


def _fit(catalog, config, model) -> CorpusPipeline:
    return CorpusPipeline(catalog, config, policy="uniform").fit(model)


def _query_ledgers(service: CorpusQueryService) -> dict[str, dict[str, float]]:
    return {
        name: {
            field: getattr(service.service(name).ledger, field)[STAGE_QUERY]
            for field in LEDGER_FIELDS
        }
        for name in service.names
    }


def _assert_same(got, want, context: str) -> None:
    """Bit-identical corpus answers (merged fan-outs shard by shard)."""
    assert type(got) is type(want), context
    if not hasattr(want, "by_sequence"):
        assert_same_answer(got, want, context)
        return
    assert list(got.by_sequence) == list(want.by_sequence), context
    for name, shard_want in want.by_sequence.items():
        assert_same_answer(got.by_sequence[name], shard_want, f"{context} [{name}]")
    if hasattr(want, "value"):
        assert got.value == want.value or (
            np.isnan(got.value) and np.isnan(want.value)
        ), context


def _assert_answers_current(service: CorpusQueryService, texts: list[str], when: str):
    """Served answers == a serial, unmemoized parse + pipeline query."""
    served = service.execute_batch(texts)
    for text, got in zip(texts, served):
        fresh_ast = _Parser(text).parse_scoped()
        _assert_same(got, service.corpus.query(fresh_ast), f"{when}: {text}")


def test_execute_batch_starts_no_threads(catalog, config, model):
    with _fit(catalog, config, model) as corpus:
        with CorpusQueryService(corpus) as service:
            texts = _workload(service.names)
            before = set(threading.enumerate())
            for _ in range(50):
                service.execute_batch(texts)
            after = set(threading.enumerate())
    assert after == before
    assert not [t.name for t in after if t.name.startswith("repro-serve")]


def test_batch_is_accounted_like_a_serial_execute_loop(catalog, config, model):
    """Same answers, charges and misses; hits differ by the warm pass.

    A batch looks each distinct series of a shard's sub-batch up once
    before the queries read it, so every shard records exactly as many
    extra hits as it has misses (one per distinct series, cold cache).
    The cold batch memoizes no answer (none of its series was cached
    before it), so its ``bytes`` are its series alone.
    """
    # Two fits of one catalog are the same corpus: fresh ledgers and caches.
    with _fit(catalog, config, model) as batch_corpus, _fit(
        catalog, config, model
    ) as serial_corpus:
        batch_service = CorpusQueryService(batch_corpus)
        serial_service = CorpusQueryService(serial_corpus)
        texts = _workload(batch_service.names)
        before = _query_ledgers(batch_service)
        assert before == _query_ledgers(serial_service)

        batched = batch_service.execute_batch(texts)
        serial = [serial_service.execute(text) for text in texts]

        for text, got, want in zip(texts, batched, serial):
            _assert_same(got, want, text)
        batch_ledgers = _query_ledgers(batch_service)
        serial_ledgers = _query_ledgers(serial_service)
        for name in batch_service.names:
            assert batch_ledgers[name] == serial_ledgers[name], name
            assert STAGE_QUERY not in batch_service.service(name).ledger.cache_hits
            batch_cache = batch_service.service(name).cache_stats()
            serial_cache = serial_service.service(name).cache_stats()
            distinct = batch_cache.misses
            assert distinct > 0
            assert batch_cache.hits == serial_cache.hits + distinct
            for field in ("misses", "partial_hits", "evictions", "entries"):
                assert getattr(batch_cache, field) == getattr(serial_cache, field), (
                    name, field
                )
            n_frames = batch_service.service(name).n_frames
            assert batch_cache.bytes == 8 * n_frames * batch_cache.entries
            assert batch_cache.bytes <= serial_cache.bytes


def test_one_scheduling_point_per_request_not_per_shard(
    catalog, config, model, yields
):
    with _fit(catalog, config, model) as corpus:
        with CorpusQueryService(corpus) as service:
            assert len(service.names) == 2
            texts = _workload(service.names)
            service.execute_batch(texts)  # every shard answers a sub-batch
            assert yields == [()]
            service.execute(texts[0])  # fan-out: one execute per shard
            assert yields == [(), ()]
            service.execute_many(texts[:4])
            assert yields == [(), (), ()]
            with pytest.raises(ValueError, match="unknown sequence"):
                service.execute_batch([f"{texts[0]} IN SEQUENCE nope"])
            assert yields == [(), (), (), ()]
            service.execute_batch(texts)  # the failed request unwound its nesting
            assert yields == [(), (), (), (), ()]


def test_streaming_request_is_one_turn(config, model, yields):
    sequences = [
        semantickitti_like(0, n_frames=24, with_points=False),
        semantickitti_like(1, n_frames=24, with_points=False),
    ]
    source = ScheduledFrameSource(sequences, initial_frames=12)
    with StreamingCorpusService(source, model, config, replan_every=4) as stream:
        texts = _workload(stream.names)
        stream.execute_batch(texts)
        assert yields == [()]
        stream.execute(texts[0])
        assert yields == [(), ()]
        # Standing queries run inside a re-plan epoch, outside any
        # request: each is its own outermost call on the pump thread.
        stream.register_standing(texts[1])
        del yields[:]
        stream.quiesce()
        assert stream.epochs > 0
        assert yields == [()] * stream.epochs


def test_memoized_texts_answer_from_the_new_epoch(catalog, config, model):
    """The parse memo holds syntax, never answers."""
    with _fit(catalog, config, model) as corpus:
        with CorpusQueryService(corpus) as service:
            texts = _workload(service.names)
            _assert_answers_current(service, texts, "fit")
            frames_before = service.execute(texts[0]).n_frames

            name = service.names[0]
            full = semantickitti_like(0, n_frames=72, with_points=False)
            service.extend(name, list(full)[60:])
            _assert_answers_current(service, texts, "after extend")
            assert service.execute(texts[0]).n_frames == frames_before + 12

            service.replan(model)
            _assert_answers_current(service, texts, "after replan")
