"""Named sequence catalog with lazy construction.

A :class:`SequenceCatalog` maps sequence names to
:class:`~repro.data.sequence.FrameSequence` objects.  Entries register
either as a :class:`SequenceSpec` — a recipe over the dataset factories
of :mod:`repro.simulation.datasets`, built on first access — or as an
already-built sequence.  Lazy construction matters at corpus scale: a
catalog of paper-length sequences only simulates the ones a pipeline or
experiment actually touches.

Names are the routing keys of the corpus layer (``IN SEQUENCE <name>``
resolves against the catalog), so they are unique and stable in
registration order.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass

from repro.data.frame import PointCloudFrame
from repro.data.sequence import FrameSequence
from repro.simulation.datasets import (
    DatasetSpec,
    build_sequence,
    dataset_spec,
    with_world_overrides,
)
from repro.utils.validation import require, require_positive

__all__ = ["SequenceSpec", "SequenceCatalog"]


@dataclass(frozen=True)
class SequenceSpec:
    """Recipe for one catalog sequence (lazily built).

    ``world_overrides`` is a tuple of ``(field, value)`` pairs applied
    to the dataset's :class:`~repro.simulation.world.WorldConfig` —
    kept as a tuple so specs stay hashable.  ``name=None`` derives the
    same name :func:`~repro.simulation.datasets.build_sequence` would
    give the sequence, so default-named specs and their built sequences
    agree (which keeps one-sequence corpora bit-identical to the
    single-sequence pipeline: the sampler seeds its RNG stream from the
    sequence name).
    """

    dataset: str
    index: int = 0
    n_frames: int | None = None
    length_scale: float = 1.0
    seed: int | None = None
    with_points: bool = False
    name: str | None = None
    world_overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        dataset_spec(self.dataset)  # validates the dataset name
        if self.n_frames is not None:
            require_positive(self.n_frames, "n_frames")
        require_positive(self.length_scale, "length_scale")

    def _dataset_spec(self) -> DatasetSpec:
        spec = dataset_spec(self.dataset)
        if self.world_overrides:
            spec = with_world_overrides(spec, **dict(self.world_overrides))
        return spec

    def resolved_length(self) -> int:
        """Frame count this spec will build."""
        spec = self._dataset_spec()
        if self.n_frames is not None:
            return int(self.n_frames)
        return spec.sequence_length(self.index, self.length_scale)

    def resolved_name(self) -> str:
        """The catalog name: explicit, or the factory's derived name."""
        if self.name is not None:
            return self.name
        spec = self._dataset_spec()
        n_frames = self.resolved_length()
        derived = f"{self.dataset}-{self.index:02d}"
        if n_frames != spec.lengths[self.index]:
            derived += f"-n{n_frames}"
        return derived

    def build(self) -> FrameSequence:
        """Simulate the sequence (renamed when ``name`` is explicit)."""
        sequence = build_sequence(
            self._dataset_spec(),
            self.index,
            n_frames=self.resolved_length(),
            seed=self.seed,
            with_points=self.with_points,
        )
        if self.name is not None and sequence.name != self.name:
            sequence = FrameSequence(
                list(sequence), fps=sequence.fps, name=self.name
            )
        return sequence


class _Entry:
    __slots__ = ("spec", "sequence", "metadata")

    def __init__(
        self,
        spec: SequenceSpec | None,
        sequence: FrameSequence | None,
        metadata: dict[str, object],
    ) -> None:
        self.spec = spec
        self.sequence = sequence
        self.metadata = metadata


class SequenceCatalog:
    """Ordered registry of named sequences with lazy builds.

    Safe for concurrent shard workers: registration, lookup, and the
    first-access build all run under one lock, so a sequence is only
    ever simulated once and later accesses reuse the built object.

    # guarded-by: _lock: _entries
    """

    def __init__(self) -> None:
        self._entries: dict[str, _Entry] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, spec: SequenceSpec) -> str:
        """Register a lazily-built sequence; returns its catalog name."""
        name = spec.resolved_name()
        entry = _Entry(
            spec,
            None,
            {
                "name": name,
                "dataset": spec.dataset,
                "index": spec.index,
                "n_frames": spec.resolved_length(),
                "fps": spec._dataset_spec().fps,
            },
        )
        with self._lock:
            require(
                name not in self._entries, f"sequence {name!r} already registered"
            )
            self._entries[name] = entry
        return name

    def register_sequence(
        self, sequence: FrameSequence, *, dataset: str = "prebuilt"
    ) -> str:
        """Register an already-built sequence under its own name."""
        name = sequence.name
        entry = _Entry(
            None,
            sequence,
            {
                "name": name,
                "dataset": dataset,
                "index": None,
                "n_frames": len(sequence),
                "fps": sequence.fps,
            },
        )
        with self._lock:
            require(
                name not in self._entries, f"sequence {name!r} already registered"
            )
            self._entries[name] = entry
        return name

    def extend_sequence(
        self, name: str, new_frames: list[PointCloudFrame]
    ) -> FrameSequence:
        """Append frames to a registered sequence (building it if lazy)."""
        require(bool(new_frames), "extend_sequence needs at least one frame")
        return self.grow_sequence(name, self.sequence(name).extended(new_frames))

    def grow_sequence(self, name: str, grown: FrameSequence) -> FrameSequence:
        """Install ``grown``, the registered sequence followed by new frames.

        The metadata frame count tracks the growth and the lazy spec, if
        any, is dropped.  This is the catalog half of streaming ingest: the
        corpus layer grows the owning shard into ``grown`` first, so the
        entry and the shard share one sequence and routing metadata
        (``n_frames``, ``total_frames``) never lags the live indexes.
        """
        with self._lock:
            entry = self._entry(name)
            current = entry.sequence
            require(
                current is not None
                and len(grown) > len(current)
                and grown[len(current) - 1] is current[-1],
                f"{grown.name!r} ({len(grown)} frames) does not continue "
                f"sequence {name!r}",
            )
            entry.sequence = grown
            entry.spec = None
            entry.metadata["n_frames"] = len(grown)
            return grown

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def _entry(self, name: str) -> _Entry:  # repro: locked[_lock]
        require(
            name in self._entries,
            f"unknown sequence {name!r}; catalog has {sorted(self._entries)}",
        )
        return self._entries[name]

    def sequence(self, name: str) -> FrameSequence:
        """The named sequence, building it on first access."""
        with self._lock:
            entry = self._entry(name)
            if entry.sequence is None:
                assert entry.spec is not None
                entry.sequence = entry.spec.build()
                require(
                    entry.sequence.name == name,
                    f"spec for {name!r} built a sequence named "
                    f"{entry.sequence.name!r}",
                )
            return entry.sequence

    def metadata(self, name: str) -> dict[str, object]:
        """Per-sequence metadata (name, dataset, frame count, fps, built)."""
        with self._lock:
            entry = self._entry(name)
            return {**entry.metadata, "built": entry.sequence is not None}

    def n_frames(self, name: str) -> int:
        """Frame count of the named sequence (without building it)."""
        with self._lock:
            return int(self._entry(name).metadata["n_frames"])  # type: ignore[arg-type]

    def total_frames(self) -> int:
        """Frames across the whole corpus (without building anything)."""
        return sum(self.n_frames(name) for name in self.names())

    def describe(self) -> str:
        """One line per sequence: name, dataset, frames, build state."""
        lines = []
        for name in self.names():
            meta = self.metadata(name)
            state = "built" if meta["built"] else "lazy"
            lines.append(
                f"{name}: {meta['dataset']} n={meta['n_frames']} "
                f"fps={meta['fps']:g} [{state}]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SequenceCatalog({self.names()!r})"
