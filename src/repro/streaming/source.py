"""Frame sources: where a streaming corpus's frames come from.

A :class:`FrameSource` abstracts continuous arrival over many named
sequences: each sequence starts from a small already-captured prefix
(:meth:`~FrameSource.initial_sequence`) and the rest of its frames
arrive as timestamped :class:`ArrivalEvent` batches, interleaved across
sequences.  Time is *virtual* — event times come from the source, never
from the wall clock — so every run of a schedule is exactly
reproducible.

:class:`ScheduledFrameSource` is the simulated implementation: it takes
fully built sequences, holds back everything past the initial prefix,
and replays the remainder on per-sequence :class:`ArrivalSchedule`
rates (frames per virtual second, batch sizes, optional seeded jitter).
Sequences with different rates grow at different speeds, which is what
makes online budget re-planning interesting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.data.frame import PointCloudFrame
from repro.data.sequence import FrameSequence
from repro.utils.rng import ensure_rng
from repro.utils.validation import require, require_positive

__all__ = [
    "ArrivalEvent",
    "ArrivalSchedule",
    "FrameSource",
    "ScheduledFrameSource",
]


@dataclass(frozen=True)
class ArrivalEvent:
    """One batch of frames arriving on one sequence at a virtual time."""

    time: float
    sequence: str
    frames: tuple[PointCloudFrame, ...]

    def __post_init__(self) -> None:
        require(bool(self.frames), "an ArrivalEvent needs at least one frame")


@dataclass(frozen=True)
class ArrivalSchedule:
    """How one sequence's held-back frames arrive.

    ``rate`` is frames per virtual second; ``batch_frames`` arrive
    together per event; ``start_time`` delays the first event; ``jitter``
    (a fraction in ``[0, 1)`` of the inter-batch gap) perturbs each
    event time by a seeded uniform draw while preserving per-sequence
    event order.
    """

    rate: float = 10.0
    batch_frames: int = 1
    start_time: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.rate, "rate")
        require(
            self.batch_frames >= 1,
            f"batch_frames must be >= 1, got {self.batch_frames}",
        )
        require(self.start_time >= 0.0, "start_time must be >= 0")
        require(
            0.0 <= self.jitter < 1.0,
            f"jitter must be in [0, 1), got {self.jitter}",
        )


class FrameSource(ABC):
    """Abstract continuous frame arrival over named sequences."""

    @abstractmethod
    def names(self) -> tuple[str, ...]:
        """The sequence names this source feeds."""

    @abstractmethod
    def initial_sequence(self, name: str) -> FrameSequence:
        """The already-captured prefix a service should bootstrap from."""

    @abstractmethod
    def next_event(self) -> ArrivalEvent | None:
        """The next arrival across all sequences (``None`` when drained).

        Events come back in nondecreasing virtual-time order, and each
        sequence's frames arrive in id order, continuing its prefix.
        """

    @property
    @abstractmethod
    def drained(self) -> bool:
        """Whether every scheduled frame has been delivered."""


class ScheduledFrameSource(FrameSource):
    """Replays built sequences on deterministic arrival schedules.

    Parameters
    ----------
    sequences:
        Fully built sequences; everything past the initial prefix is
        held back and delivered through :meth:`next_event`.
    initial_frames:
        Prefix length every sequence starts with — one int for all, or
        a per-name mapping.  Must be >= 2 (an index needs two frames)
        and < the sequence length (otherwise there is nothing to
        stream).
    schedule:
        One :class:`ArrivalSchedule` for all sequences, or a per-name
        mapping (missing names fall back to the default schedule).
    seed:
        Seeds the jitter stream (unused when every schedule has
        ``jitter=0``).
    """

    def __init__(
        self,
        sequences: Iterable[FrameSequence],
        *,
        initial_frames: int | Mapping[str, int] = 8,
        schedule: ArrivalSchedule | Mapping[str, ArrivalSchedule] | None = None,
        seed: int = 0,
    ) -> None:
        self._full: dict[str, FrameSequence] = {}
        for sequence in sequences:
            require(
                sequence.name not in self._full,
                f"duplicate sequence name {sequence.name!r}",
            )
            self._full[sequence.name] = sequence
        require(bool(self._full), "a ScheduledFrameSource needs sequences")

        default_schedule = (
            schedule if isinstance(schedule, ArrivalSchedule) else None
        ) or ArrivalSchedule()
        schedules: Mapping[str, ArrivalSchedule] = (
            schedule if isinstance(schedule, Mapping) else {}
        )
        self._initial: dict[str, FrameSequence] = {}
        events: list[ArrivalEvent] = []
        rng = ensure_rng(seed, "frame-source")
        for name, sequence in self._full.items():
            if isinstance(initial_frames, Mapping):
                prefix = int(initial_frames[name])
            else:
                prefix = int(initial_frames)
            require(
                2 <= prefix < len(sequence),
                f"initial_frames for {name!r} must be in [2, {len(sequence)}), "
                f"got {prefix}",
            )
            self._initial[name] = sequence.head(prefix, name=name)
            plan = schedules.get(name, default_schedule)
            gap = plan.batch_frames / plan.rate
            held = list(sequence[prefix:])
            for batch_index, offset in enumerate(
                range(0, len(held), plan.batch_frames)
            ):
                jitter = (
                    plan.jitter * gap * float(rng.uniform())
                    if plan.jitter > 0.0
                    else 0.0
                )
                events.append(
                    ArrivalEvent(
                        time=plan.start_time + (batch_index + 1) * gap + jitter,
                        sequence=name,
                        frames=tuple(held[offset : offset + plan.batch_frames]),
                    )
                )
        events.sort(key=lambda event: (event.time, event.sequence))
        self._events = events
        self._cursor = 0

    # ------------------------------------------------------------------
    # FrameSource interface
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        return tuple(self._full)

    def initial_sequence(self, name: str) -> FrameSequence:
        require(name in self._initial, f"unknown sequence {name!r}")
        return self._initial[name]

    def next_event(self) -> ArrivalEvent | None:
        if self._cursor >= len(self._events):
            return None
        event = self._events[self._cursor]
        self._cursor += 1
        return event

    @property
    def drained(self) -> bool:
        return self._cursor >= len(self._events)

    # ------------------------------------------------------------------
    # Introspection (simulated sources know their own future)
    # ------------------------------------------------------------------
    def final_sequence(self, name: str) -> FrameSequence:
        """The complete sequence a drained service will have ingested.

        This is what makes drain-and-quiesce differential tests exact:
        a batch pipeline fit on :meth:`final_sequence` sees precisely
        the frames the stream delivered.
        """
        require(name in self._full, f"unknown sequence {name!r}")
        return self._full[name]

    @property
    def total_events(self) -> int:
        """Number of arrival events the schedule produces in total."""
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduledFrameSource(sequences={list(self._full)}, "
            f"events={self._cursor}/{len(self._events)})"
        )
