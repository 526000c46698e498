"""The command ``BENCHMARK.json`` names: one workload, one result line.

``python3 benchmarks/observatory/driver.py --workload NAME --seed N
--seconds S --trace 0|1`` runs from the root of a checkout, builds the
workload's inputs from the seed, measures, checks the answers and prints
one JSON object — ``correct``, ``attempted``, ``failed``, ``metrics`` — as
the last line of standard output.  ``--trace 0`` reports every end-to-end
metric, ``--trace 1`` every per-layer metric.

Nothing runs at import: the process-tier probe spawns workers that
re-import this module as ``__main__``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path


def _child_pids() -> list[int]:
    """Live or unreaped direct children of this process, read from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we were listing
        # "pid (comm) state ppid ..." — comm may hold spaces and brackets.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_children(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The process-tier probe's workers are joined by ``service.close()``, but
    ``multiprocessing`` also starts a resource-tracker process that ends only
    once this process closes its pipe — by default at interpreter exit, so it
    outlives the run.  Close it here, then wait for whatever child is left,
    killing any that ignores the grace period.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except OSError:
            pass  # already gone; the sweep below waits for the rest
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid == 0:
            if time.monotonic() > deadline:
                for child in _child_pids():
                    try:
                        os.kill(child, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline = float("inf")
            time.sleep(0.02)


def _terminated(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)  # unwind through the ``finally`` blocks


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 4, one repetition; never recorded")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for run details (default: .observatory/)")
    args = parser.parse_args(argv)

    root = str(Path(__file__).resolve().parents[2])
    if root not in sys.path:
        sys.path.insert(0, root)
    # One CPU for the program, the load generator and the speed probe alike:
    # pin first, so every thread started from here on inherits the mask.
    from benchmarks.observatory.speed import SpeedProbe, pin_to_one_cpu

    allowed_cpus = pin_to_one_cpu()
    probe = SpeedProbe().start()
    try:
        # The program's imports (numpy, scipy, repro) are part of set-up.
        from benchmarks.observatory import runner
        from benchmarks.observatory.spec import DEFAULT_OUT, load_benchmark

        imported = time.perf_counter()
        seconds = args.seconds if args.seconds else float(load_benchmark().run_seconds)
        result = runner.run_one(
            args.workload,
            seed=args.seed,
            seconds=seconds,
            trace=bool(args.trace),
            smoke=args.smoke,
            out=args.out if args.out is not None else DEFAULT_OUT,
            probe=probe,
            import_span=(started, imported),
            allowed_cpus=allowed_cpus,
        )
    finally:
        probe.close()
        reap_children()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
