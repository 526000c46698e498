"""The request's scheduling point hands the GIL over, not only gets called.

``test_corpus_request_path.py`` counts the ``os.sched_yield()`` calls;
this test checks what they are for.  Two closed-loop clients share one
CPU and send ``drive_hot``-shaped requests (16 scoped and fan-out texts
that hit the shard caches).  With the scheduling point they take turns
request by request (runs of 2-3); without it CPython switches threads
only every 5 ms switch interval, so one client finishes ~15-30 requests
in a row while the other waits.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.corpus import CorpusPipeline, CorpusQueryService, SequenceCatalog, SequenceSpec

WAVES = 300
WAVE_SIZE = 16
#: longest run of one client's completed requests while the other waits
MAX_RUN = 8

BODIES = (
    "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1",
    "SELECT AVG OF COUNT(Car)",
    "SELECT MED OF COUNT(Car DIST <= 20)",
    "SELECT FRAMES WHERE COUNT(Car) >= 2 AND COUNT(Pedestrian) >= 1",
    "SELECT COUNT FRAMES WHERE COUNT(Car DIST <= 20) >= 2",
    "SELECT MAX OF COUNT(Pedestrian)",
)


def _longest_contended_run(log: list[int]) -> int:
    """Longest run of one client in ``log`` before either client is done."""
    contended = log[: min(max(k for k, c in enumerate(log) if c == i) for i in (0, 1)) + 1]
    longest = run = 1
    for before, after in zip(contended, contended[1:]):
        run = run + 1 if before == after else 1
        longest = max(longest, run)
    return longest


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_two_clients_take_turns_request_by_request(config, model):
    catalog = SequenceCatalog()
    catalog.register(SequenceSpec("semantickitti", 0, n_frames=60))
    catalog.register(SequenceSpec("once", 0, n_frames=48))
    catalog.register(SequenceSpec("semantickitti", 1, n_frames=60))
    corpus = CorpusPipeline(catalog, config, policy="uniform").fit(model)
    with CorpusQueryService(corpus) as service:
        pool = list(BODIES) + [
            f"{body} IN SEQUENCE {name}" for name in service.names for body in BODIES
        ]
        rng = np.random.default_rng(50)
        waves = [
            [[pool[j] for j in rng.integers(0, len(pool), WAVE_SIZE)] for _ in range(WAVES)]
            for _ in range(2)
        ]
        for _ in range(3):  # every series and answer cached: the drive_hot path
            service.execute_batch(pool)
        log: list[int] = []
        start = threading.Barrier(2)

        def client(index: int) -> None:
            start.wait()
            for wave in waves[index]:
                service.execute_batch(wave)
                log.append(index)

        mask = os.sched_getaffinity(0)
        # Threads inherit the affinity of the thread that starts them.
        os.sched_setaffinity(0, {min(mask)})
        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            os.sched_setaffinity(0, mask)
    assert len(log) == 2 * WAVES
    longest = _longest_contended_run(log)
    assert longest <= MAX_RUN, f"one client completed {longest} requests in a row"
