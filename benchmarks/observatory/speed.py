"""Machine-speed probe: wall seconds to reference-speed seconds.

The sandboxes this benchmark runs in share their cores.  The same fit
takes 1.5 or 2.6 s depending on what a neighbouring tenant is doing, the
regime flips every few seconds to tens of minutes, and guest CPU time
inflates with wall time (it is not steal).  Raw wall-clock medians of
identical runs therefore differ by 20-35 % — wider than any bound a
regression gate could use (README, "Noise").

So every timed sample is scaled by how fast the machine was *while it
ran*.  A daemon thread, on the same CPU as the program, runs a fixed
~0.13 ms kernel up to fifty times a second and times it with the thread's
own CPU clock, which does not advance while the thread waits for the GIL
or the CPU, so the reading is valid beside busy client threads.  A sample
over ``[start, end]`` is multiplied by the mean of ``REFERENCE_KERNEL_S /
kernel_seconds`` over the probes inside that interval — mean of speeds,
because work done is the integral of speed over time.  The result reads
in seconds of a machine on which the kernel takes ``REFERENCE_KERNEL_S``
(this sandbox while its neighbours are idle).

What the kernel does and where it runs were chosen by measurement:
ninety minutes of fits and serving windows alternating with candidate
kernels (integer arithmetic, numpy on small arrays, a random gather over
32 MB, a walk over a linked list of Python objects), one-minute medians
regressed on each other.

* The kernel is numpy on small arrays, which is what the program mostly
  does.  Per unit of log slow-down of the kernel the program slowed by
  0.89-1.11 (correlation 0.90-0.96); against an integer loop it slowed by
  1.45-2.23, so scaling by the loop left most of a slow regime in the
  numbers (ten identical runs then spread up to 29 %).
* The probe shares the program's CPU (the thread inherits the pin of
  :func:`pin_to_one_cpu`).  The two vCPUs change regime independently: an
  unpinned probe mostly ran on the idle one and correlated 0.64-0.84 with
  the program where the same loop pinned correlated 0.78-0.98.

Simulated on those traces (a run = median of five repetitions), ten runs
spread 2-5 % (worst 8 %) scaled against 7-12 % (worst 23 %) raw.

The kernel is the benchmark's own code on the benchmark's own 8 KB of
data and never touches the program.  It wakes with cold caches beside any
busy program, which is what makes it as sensitive to the neighbours as
the program is; it costs ~1 % of the core in every run alike.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

import numpy as np

__all__ = ["REFERENCE_KERNEL_S", "SpeedProbe", "pin_to_one_cpu"]

#: Kernel CPU seconds on the reference machine (beside a busy program).
REFERENCE_KERNEL_S = 0.00013
KERNEL_ARRAYS = 16
KERNEL_ARRAY_SIZE = 64
PERIOD_S = 0.02
#: Probes this close outside a sample's interval still describe it.
PAD_S = 0.05
MIN_PROBES = 3

_ARRAYS = [
    array
    for array in np.random.default_rng(5).random((KERNEL_ARRAYS, KERNEL_ARRAY_SIZE))
]


def pin_to_one_cpu() -> set[int]:
    """Confine this thread to one CPU; returns the set it was allowed before.

    Call it before any other thread starts: threads inherit the mask, so
    the program's pools, the load generator's clients and the speed probe
    all land on the one CPU.

    Under the GIL the request path cannot use a second core, but the OS
    may still spread the services' pool threads over two vCPUs, and every
    GIL hand-off then pays a cross-CPU wake-up: the same window reads
    2.5x slower, and which of the two regimes a run lands in changes from
    window to window (README, "Findings").  One CPU makes the numbers a
    function of the code.  The process-tier probe, the one part built to
    use more cores, widens the mask again for its workers.

    The highest-numbered CPU is the quiet one: interrupts and whatever
    launched the benchmark favour CPU 0 (4 s blocks of a fixed loop had an
    inter-quartile spread of 12 % there against 4 % on the last CPU).
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return set(allowed)


def _kernel() -> float:
    """Mask, gather, multiply and reduce sixteen 64-element arrays.

    The program's own mix: numpy dispatch, small temporaries, a few
    kilobytes of data.  It wakes every 20 ms to caches the program has
    refilled, so it runs cold beside any busy program — 0.12-0.15 ms
    beside the four timed phases against 0.06 ms alone — and a program
    that evicts more cannot make it colder.  A kernel that walks a table
    or allocates has no such ceiling and would read the program's own
    footprint as machine slowness (tried: a dict-building kernel ran
    2.3x slower beside the city fit than alone, and flipped between two
    speeds 4x apart by itself).
    """
    total = 0.0
    for array in _ARRAYS:
        mask = array > 0.5
        total += float((array[mask] * 2.0).sum()) + float(np.minimum(array, 0.3).max())
    return total


class SpeedProbe:
    """Samples machine speed in the background; see the module docstring."""

    def __init__(self) -> None:
        #: probe timestamps (``perf_counter``) and speeds, appended in time
        #: order by the probe thread only; readers bisect a snapshot length
        self._times: list[float] = []
        self._speeds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="obs-speed-probe", daemon=True
        )

    def start(self) -> SpeedProbe:
        self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            started = time.thread_time()
            _kernel()
            spent = time.thread_time() - started
            if spent > 0:
                self._speeds.append(REFERENCE_KERNEL_S / spent)
                self._times.append(time.perf_counter())

    def speed(self, start: float, end: float) -> float:
        """Mean machine speed over ``[start, end]`` (1.0 = reference).

        Uses the probes inside the padded interval; an interval too short
        to hold ``MIN_PROBES`` takes the probes nearest to it instead.
        """
        count = len(self._times)  # _speeds is appended first: never shorter
        if count == 0:
            return 1.0
        times = self._times
        low = bisect.bisect_left(times, start - PAD_S, 0, count)
        high = bisect.bisect_right(times, end + PAD_S, 0, count)
        if high - low < MIN_PROBES:
            middle = bisect.bisect_left(times, (start + end) / 2.0, 0, count)
            low = max(0, min(middle - MIN_PROBES // 2 - 1, count - MIN_PROBES))
            high = min(count, low + MIN_PROBES)
        window = self._speeds[low:high]
        return sum(window) / len(window)

    def series(self) -> list[tuple[float, float]]:
        """Every probe so far as ``(timestamp, speed)``."""
        count = len(self._times)
        return list(zip(self._times[:count], self._speeds[:count]))
