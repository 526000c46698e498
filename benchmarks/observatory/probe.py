"""Process-tier probe (traced runs only; evidence for ROADMAP item 3).

Serves one window of the workload through
``CorpusQueryService(backend="process")`` at 1 and ``min(2, nproc)``
workers and reads the dispatcher's counters.  Never gated: the numbers
say whether process sharding pays on this traffic, nothing else.  If the
backend is rejected (item 3 may delete it) every probe metric is ``null``
with the reason.
"""

from __future__ import annotations

import os
import time

from . import api
from .loadgen import client_count, run_window
from .results import Recorder, answers_equal
from .stats import percentile
from .trace import Tracer

__all__ = ["PROBE_METRICS", "process_probe"]

PROBE_METRICS = (
    "serving.mp.start_s",
    "serving.mp.warmup_invocations",
    "serving.mp.qps_w1",
    "serving.mp.qps_w2",
    "serving.mp.p99_ms_w2",
    "serving.dispatcher.coalesced",
    "serving.dispatcher.batches",
    "serving.dispatcher.shed",
)


def process_probe(
    corpus: api.CorpusPipeline,
    waves_by_client: list[list[list[str]]],
    check_texts: list[str],
    rec: Recorder,
    cpus: frozenset[int],
) -> None:
    """Fill the ``serving.mp.*`` / ``serving.dispatcher.*`` surfaces.

    Spawned workers inherit this process's CPU mask, so the probe runs
    with the mask widened to ``cpus`` and narrows it again afterwards.
    """
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        _probe(corpus, waves_by_client, check_texts, rec)
    finally:
        os.sched_setaffinity(0, pinned)


def _probe(
    corpus: api.CorpusPipeline,
    waves_by_client: list[list[list[str]]],
    check_texts: list[str],
    rec: Recorder,
) -> None:
    idle = Tracer()  # the probe's numbers are its own; no spans, no phase walls
    start_s = invocations = coalesced = batches = shed = 0.0
    for workers in dict.fromkeys((1, client_count())):
        start = time.perf_counter()
        try:
            service = api.CorpusQueryService(corpus, backend="process", workers=workers)
        except (TypeError, ValueError) as error:
            for metric in PROBE_METRICS:
                rec.surface(metric, None, f"backend='process' rejected: {error}")
            return
        try:
            start_s += time.perf_counter() - start
            for text, got in zip(check_texts, service.execute_batch(check_texts)):
                rec.check(
                    answers_equal(got, corpus.query(text)),
                    f"process tier ({workers} workers) != serial: {text}",
                )
            window = run_window(service.execute_batch, waves_by_client, idle, None)
            for error in window.errors:
                rec.op(False, f"process-tier request raised: {error}")
            counters = service.dispatcher.counters()
            invocations += sum(c.ready.invocations for c in service.pool.workers)
            coalesced += counters["coalesced"]
            batches += counters["dispatched_batches"]
            shed += counters["shed"]
            rec.surface(f"serving.mp.qps_w{workers}", window.queries_per_s)
            if workers == client_count():
                rec.surface("serving.mp.qps_w2", window.queries_per_s)
                rec.surface(
                    "serving.mp.p99_ms_w2",
                    1e3 * percentile(window.latencies, 99.0) if window.latencies else 0.0,
                )
        finally:
            service.close()
    rec.surface("serving.mp.start_s", start_s)
    rec.surface("serving.mp.warmup_invocations", invocations)
    rec.surface("serving.dispatcher.coalesced", coalesced)
    rec.surface("serving.dispatcher.batches", batches)
    rec.surface("serving.dispatcher.shed", shed)
