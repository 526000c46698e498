"""Queries at the epoch boundary: ``extend`` and ``replan`` against client threads.

One writer thread runs three epochs on a :class:`CorpusQueryService` — an
``extend`` of one shard, an online ``replan`` and ``replan(exact=True)``
— while client threads re-ask one repeated pool of scoped and fan-out
queries.  A :class:`threading.Barrier` steps them: the first detection of
each writer step holds the writer mid-step until every client has asked
the pool, then the clients race the rest of the step.

Every shard answer, including each shard part of a fan-out, must be
bit-identical to the serial :meth:`CorpusPipeline.query` reference of an
epoch the client could have seen: exactly the epoch before the step while
the writer is held, that one or the next while it runs on.  A fan-out's
value must be the :func:`merge` of its parts.  Every wait has a deadline,
and a failing thread breaks the barrier, so a failure surfaces as a typed
error in the test rather than a hang.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.corpus import CorpusPipeline, CorpusQueryService
from repro.corpus import service as service_module
from repro.corpus.results import CorpusAggregateResult, merge
from repro.models.base import DetectionModel
from repro.query import AggregateResult, parse_scoped_query
from repro.simulation import semantickitti_like

N_CLIENTS = 3
#: Seconds any one thread may wait at the barrier or be waited for.
DEADLINE_S = 20.0
#: Times each client asks the pool per phase: a repeat is a memoized answer.
REPEATS = 2

POOL = [
    "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1",
    "SELECT AVG OF COUNT(Car)",
    "SELECT MED OF COUNT(Pedestrian)",
    "SELECT COUNT FRAMES WHERE COUNT(Car) >= 2",
    "SELECT FRAMES WHERE COUNT(Car) >= 1 IN SEQUENCE {grown}",
    "SELECT AVG OF COUNT(Car DIST <= 20) IN SEQUENCE {grown}",
    "SELECT MED OF COUNT(Car) IN SEQUENCE {other}",
    "SELECT FRAMES WHERE COUNT(Car) >= 2 AND COUNT(Pedestrian) >= 1 IN SEQUENCE {grown}",
]


class SteppedModel(DetectionModel):
    """Detects like ``base``; an armed detection meets the clients at ``barrier``.

    The writer arms the model before each step, so the step's first
    detection waits twice: once to let the clients ask the pool while the
    step is held, once more to go on after they have.
    """

    def __init__(self, base: DetectionModel, barrier: threading.Barrier) -> None:
        self.base = base
        self.name = base.name
        self.cost_per_frame = base.cost_per_frame
        self.barrier = barrier
        self.armed = False

    def detect(self, frame):
        if self.armed:
            self.armed = False
            self.barrier.wait(DEADLINE_S)
            self.barrier.wait(DEADLINE_S)
        return self.base.detect(frame)


def _parts(scoped, result) -> dict:
    """A served or reference answer as ``{shard name: shard answer}``."""
    if scoped.sequence is not None:
        return {scoped.sequence: result}
    return result.by_sequence


def _same(got, want) -> bool:
    if isinstance(want, AggregateResult):
        same_value = got.value == want.value or (np.isnan(got.value) and np.isnan(want.value))
        return same_value and np.array_equal(got.counts, want.counts, equal_nan=True)
    return got.n_frames == want.n_frames and np.array_equal(got.frame_ids, want.frame_ids)


def test_answers_at_every_epoch_boundary_match_the_serial_reference(catalog, config, model):
    barrier = threading.Barrier(N_CLIENTS + 1)
    stepped = SteppedModel(model, barrier)
    corpus = CorpusPipeline(catalog, config, policy="uniform").fit(stepped)
    grown, other = corpus.names
    pool = [parse_scoped_query(text.format(grown=grown, other=other)) for text in POOL]
    tail = list(semantickitti_like(0, n_frames=84, with_points=False))[60:]
    service = CorpusQueryService(corpus)
    steps = [
        lambda: service.extend(grown, tail),
        lambda: service.replan(stepped),
        lambda: service.replan(stepped, exact=True),
    ]

    references: list[list] = []  # epoch -> the serial answers to the pool
    records: list[tuple[tuple[int, ...], list]] = []  # (epochs allowed, answers)
    errors: list[BaseException] = []

    def fail(error: BaseException) -> None:
        errors.append(error)
        barrier.abort()

    def writer() -> None:
        try:
            references.append(corpus.query_many(pool))
            for step in steps:
                stepped.armed = True
                step()
                assert not stepped.armed, "the step detected nothing, so it was never held"
                references.append(corpus.query_many(pool))
            barrier.wait(DEADLINE_S)
        except BaseException as error:  # noqa: BLE001 - re-raised by the assert below
            fail(error)

    def client(index: int) -> None:
        def ask(epochs: tuple[int, ...]) -> None:
            for repeat in range(REPEATS):
                if (index + repeat) % 2:
                    answers = service.execute_batch(pool)
                else:
                    answers = [service.execute(scoped) for scoped in pool]
                records.append((epochs, answers))

        try:
            for epoch in range(len(steps)):
                barrier.wait(DEADLINE_S)
                ask((epoch,))  # the writer is held mid-step
                barrier.wait(DEADLINE_S)
                ask((epoch, epoch + 1))  # racing the rest of the step
            barrier.wait(DEADLINE_S)
            ask((len(steps),))
        except BaseException as error:  # noqa: BLE001 - re-raised by the assert below
            fail(error)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=client, args=(index,)) for index in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=2 * DEADLINE_S)
    assert not any(thread.is_alive() for thread in threads), "a thread hung"
    assert not errors, f"a thread raised: {errors!r}"
    assert len(references) == len(steps) + 1
    assert len(records) == N_CLIENTS * REPEATS * (2 * len(steps) + 1)

    for epochs, answers in records:
        for position, (scoped, answer) in enumerate(zip(pool, answers)):
            text = POOL[position]
            if scoped.sequence is None:
                assert list(answer.by_sequence) == [grown, other], text
                merged = merge(scoped.query, answer.by_sequence)
                if isinstance(merged, CorpusAggregateResult):
                    assert merged.value == answer.value or (
                        np.isnan(merged.value) and np.isnan(answer.value)
                    ), text
            for name, part in _parts(scoped, answer).items():
                assert any(
                    _same(part, _parts(scoped, references[epoch][position])[name])
                    for epoch in epochs
                ), f"{text} on {name}: matches no reference of epochs {epochs}"


FANOUT = ["SELECT AVG OF COUNT(Car)", "SELECT MED OF COUNT(Pedestrian DIST <= 20)"]


def test_a_reused_fanout_merge_reads_the_new_epoch(catalog, config, model, monkeypatch):
    """The merge memo keys on the shard answers, so ``extend`` retires it."""
    merged: list = []
    real = service_module.merge_aggregates

    def counting(query, by_sequence):
        merged.append(query)
        return real(query, by_sequence)

    monkeypatch.setattr(service_module, "merge_aggregates", counting)
    corpus = CorpusPipeline(catalog, config, policy="uniform").fit(model)
    grown = corpus.names[0]
    service = CorpusQueryService(corpus)

    def ask_thrice() -> None:
        del merged[:]
        for ask in range(3):
            for text, got in zip(FANOUT, service.execute_batch(FANOUT)):
                want = corpus.query(text)
                assert got.value == want.value, f"ask {ask}: {text}"
                for name, part in want.by_sequence.items():
                    assert _same(got.by_sequence[name], part), f"ask {ask}: {text} on {name}"
        # Asks 1 and 2 merge (the second admits it); ask 3 reuses it.
        assert len(merged) == 2 * len(FANOUT)

    ask_thrice()
    before = service.execute(FANOUT[0]).by_sequence[grown].counts
    tail = list(semantickitti_like(0, n_frames=84, with_points=False))[60:]
    service.extend(grown, tail)
    ask_thrice()
    after = service.execute(FANOUT[0]).by_sequence[grown].counts
    assert len(after) == len(before) + len(tail)


def test_clients_never_share_a_merged_result(catalog, config, model):
    corpus = CorpusPipeline(catalog, config, policy="uniform").fit(model)
    service = CorpusQueryService(corpus)
    for _ in range(2):
        service.execute_batch(FANOUT)  # the merge memo now holds both
    barrier = threading.Barrier(N_CLIENTS)
    results: list[list] = [[] for _ in range(N_CLIENTS)]

    def client(index: int) -> None:
        barrier.wait(DEADLINE_S)
        for _ in range(REPEATS):
            results[index] += service.execute_batch(FANOUT)

    threads = [threading.Thread(target=client, args=(index,)) for index in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=DEADLINE_S)
    assert not any(thread.is_alive() for thread in threads), "a client hung"
    served = [result for mine in results for result in mine]
    assert len(served) == N_CLIENTS * REPEATS * len(FANOUT)
    assert len({id(result) for result in served}) == len(served)
    assert len({id(result.by_sequence) for result in served}) == len(served)
    served[0].by_sequence.clear()  # one client's dict is its own to change
    assert all(list(result.by_sequence) == list(corpus.names) for result in served[1:])


def test_merge_memo_churns_safely_under_threads(catalog, config, model):
    """More clients than cores, a tiny switch interval, a memo smaller than the pool.

    Four fan-out aggregates cycle through a merge memo of three, so
    admissions, reuses and evictions race each other; every merged value
    must still be the serial one, and the memo must hold its bound.
    """
    texts = FANOUT + ["SELECT COUNT FRAMES WHERE COUNT(Car) >= 2", "SELECT AVG OF COUNT(Pedestrian)"]
    corpus = CorpusPipeline(catalog, config, policy="uniform").fit(model)
    bound = 3
    service = CorpusQueryService(corpus, max_cache_entries=bound)
    want = {text: corpus.query(text).value for text in texts}
    errors: list[BaseException] = []
    barrier = threading.Barrier(2 * N_CLIENTS)

    def client(index: int) -> None:
        try:
            barrier.wait(DEADLINE_S)
            for round_index in range(40):
                shift = (index + round_index) % len(texts)
                asked = texts[shift:] + texts[:shift]
                for text, got in zip(asked, service.execute_batch(asked)):
                    assert got.value == want[text] or (
                        np.isnan(got.value) and np.isnan(want[text])
                    ), text
        except BaseException as error:  # noqa: BLE001 - re-raised by the assert below
            errors.append(error)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=client, args=(index,)) for index in range(2 * N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=2 * DEADLINE_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a client hung"
    assert not errors, f"a client raised: {errors!r}"
    assert len(service._merged) <= bound
