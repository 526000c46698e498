"""Closed-loop load generator.

Each client thread sends its next request only after the previous one
returned, so a slower system is offered less load; the operation count
is fixed (not the duration), which is what makes the program's counters
repeat from run to run.  One request = one ``execute_batch`` call on one
wave of query texts.
"""

from __future__ import annotations

import gc
import os
import threading
import time
import traceback
from collections.abc import Callable, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field

from .trace import Tracer

__all__ = ["WindowResult", "client_count", "run_window"]


def client_count() -> int:
    """Client threads of every serving window: ``min(2, nproc)``."""
    return min(2, os.cpu_count() or 1)


@dataclass
class WindowResult:
    """What one closed-loop window measured."""

    #: ``perf_counter`` when the first client started / the last one ended
    start: float
    end: float
    queries: int
    #: seconds per request, all clients pooled
    latencies: list[float] = field(default_factory=list)
    #: one entry per request that raised (shed requests included)
    errors: list[str] = field(default_factory=list)
    #: per client, the answers to its first wave (None if that wave raised)
    first_answers: list[Sequence[object] | None] = field(default_factory=list)

    @property
    def queries_per_s(self) -> float:
        """Raw rate (the probe's own numbers; the workloads scale by speed)."""
        return self.queries / (self.end - self.start)


def run_window(
    execute: Callable[[list[str]], Sequence[object]],
    waves_by_client: Sequence[Sequence[list[str]]],
    tracer: Tracer,
    phase: str | None,
) -> WindowResult:
    """Run one window: client ``i`` sends ``waves_by_client[i]`` in order.

    ``phase=None`` is an untimed warm-up: same load, no phase wall, no spans.
    """
    latencies: list[list[float]] = [[] for _ in waves_by_client]
    errors: list[list[str]] = [[] for _ in waves_by_client]
    answered = [0] * len(waves_by_client)
    first_answers: list[Sequence[object] | None] = [None] * len(waves_by_client)

    def client(index: int) -> None:
        mine, failed = latencies[index], errors[index]
        with tracer.root():
            for position, wave in enumerate(waves_by_client[index]):
                start = time.perf_counter()
                try:
                    answers = execute(wave)
                except Exception:  # a failed or shed request is a counted outcome, not a crash
                    failed.append(traceback.format_exc(limit=3))
                    continue
                mine.append(time.perf_counter() - start)
                answered[index] += len(answers)
                if position == 0:
                    first_answers[index] = answers

    threads = [
        threading.Thread(target=client, args=(index,), name=f"obs-client-{index}")
        for index in range(len(waves_by_client))
    ]
    gc.collect()
    with tracer.phase(phase, rooted=False) if phase else nullcontext():
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
    return WindowResult(
        start=start,
        end=end,
        queries=sum(answered),
        latencies=[value for mine in latencies for value in mine],
        errors=[text for failed in errors for text in failed],
        first_answers=first_answers,
    )
