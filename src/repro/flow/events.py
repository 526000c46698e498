"""Structured observability stream for flow runs (JSONL).

Every run appends one JSON object per line to its events file:

=================  ==========================================================
``event``          Fields (beyond ``seq``, a per-file monotonic counter)
=================  ==========================================================
``run_start``      ``flow``, ``steps`` (topological order), ``resumed``
``step_start``     ``step``, ``key``
``step_finish``    ``step``, ``key``, ``fingerprint``, ``seconds``
                   (measured through the run ledger), ``ledger`` (the
                   step ledger's deterministic state: simulated seconds,
                   invocation counts, cache hit/miss deltas)
``step_cached``    ``step``, ``key``, ``fingerprint`` — replayed from a
                   checkpoint, **not** re-executed ("skip-cached")
``run_interrupt``  ``after`` — a crash-drill interruption point
``run_error``      ``step``, ``error``
``run_finish``     ``steps``, ``cached`` (names replayed from checkpoints)
=================  ==========================================================

Events deliberately carry no wall-clock timestamps: ordering is the
``seq`` counter and durations come from the run ledger's blessed
``measure`` channel, so two bit-identical runs produce event streams
that differ only in ``seconds``.  ``repro flow tail`` renders the
stream human-readably and can follow a live file.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Iterator

__all__ = ["EventLog", "format_event", "read_events", "tail_events"]


class EventLog:
    """Append-only JSONL event sink (no-op when constructed with ``None``)."""

    def __init__(self, path: str | Path | None) -> None:
        self.path = Path(path) if path is not None else None
        self._seq = 0
        self._handle: IO[str] | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
            if self._handle.tell():
                # A resumed run appends: number on from the file's last
                # event, on a fresh line if a crash tore the final one.
                for record in read_events(self.path):
                    seq = record.get("seq")
                    if isinstance(seq, int):
                        self._seq = seq
                if not self.path.read_bytes().endswith(b"\n"):
                    self._handle.write("\n")

    def emit(self, event: str, **fields: object) -> None:
        """Append one event; flushed immediately so tails see it live."""
        self._seq += 1
        if self._handle is None:
            return
        record: dict[str, object] = {"event": event, "seq": self._seq}
        record.update(fields)
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_events(path: str | Path) -> list[dict[str, object]]:
    """Parse every event currently in ``path`` (skipping partial lines)."""
    records: list[dict[str, object]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # a crash can truncate the final line
            if isinstance(record, dict):
                records.append(record)
    return records


def format_event(record: dict[str, object]) -> str:
    """One human-readable line per event, for ``repro flow tail``."""
    kind = record.get("event", "?")
    seq = record.get("seq", "?")
    prefix = f"[{seq:>4}] "
    if kind == "run_start":
        steps = record.get("steps", [])
        n = len(steps) if isinstance(steps, list) else "?"
        mode = "resume" if record.get("resumed") else "run"
        return f"{prefix}{mode} {record.get('flow')} ({n} steps)"
    if kind == "step_start":
        return f"{prefix}> {record.get('step')}"
    if kind == "step_finish":
        seconds = record.get("seconds")
        timing = f" ({seconds:.2f}s)" if isinstance(seconds, float) else ""
        return f"{prefix}+ {record.get('step')}{timing}"
    if kind == "step_cached":
        return f"{prefix}= {record.get('step')} (skip-cached)"
    if kind == "run_interrupt":
        return f"{prefix}! interrupted after {record.get('after')}"
    if kind == "run_error":
        return f"{prefix}! {record.get('step')}: {record.get('error')}"
    if kind == "run_finish":
        cached = record.get("cached", [])
        n_cached = len(cached) if isinstance(cached, list) else 0
        return f"{prefix}done ({n_cached} steps replayed from checkpoints)"
    return f"{prefix}{kind} {json.dumps(record)}"


def tail_events(
    path: str | Path,
    out: IO[str],
    *,
    follow: bool = False,
    poll_seconds: float = 0.5,
) -> int:
    """Print events from ``path``; with ``follow``, keep watching.

    Following stops when a ``run_finish``/``run_error``/``run_interrupt``
    event arrives.  Returns the number of events printed.
    """
    printed = 0
    for record in _iter_events(path, follow=follow, poll_seconds=poll_seconds):
        print(format_event(record), file=out)
        printed += 1
        if follow and record.get("event") in (
            "run_finish",
            "run_error",
            "run_interrupt",
        ):
            break
    return printed


def _iter_events(
    path: str | Path, *, follow: bool, poll_seconds: float
) -> Iterator[dict[str, object]]:
    position = 0
    while True:
        with open(path, encoding="utf-8") as handle:
            handle.seek(position)
            chunk = handle.read()
            position = handle.tell()
        for line in chunk.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record
        if not follow:
            return
        time.sleep(poll_seconds)
