"""Content-addressed checkpoint store for flow steps.

Each completed step is persisted as one pickle file named by its
checkpoint key (``<key>.ckpt``), wrapped in a small envelope recording
the step name and the result fingerprint computed at save time.  Loads
re-digest the unpickled value and refuse to return anything whose
fingerprint drifted — a checkpoint replay is *verified* bit-identical,
not assumed.

Writes go through a temp file + :func:`os.replace` so a crash mid-write
never leaves a truncated checkpoint that a resume would trust, and a
write that fails removes its temp file.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path

from repro.flow.fingerprint import stable_digest

__all__ = ["Checkpoint", "CheckpointCorrupted", "CheckpointStore"]

_SUFFIX = ".ckpt"
#: The envelope's fields; a flipped byte can rename one inside the pickle.
_FIELDS = {"key", "step", "fingerprint", "value"}


class CheckpointCorrupted(RuntimeError):
    """A checkpoint could not be read back, or failed its verification."""


@dataclass(frozen=True)
class Checkpoint:
    """One persisted step result."""

    key: str
    step: str
    fingerprint: str
    value: object


class CheckpointStore:
    """Directory of content-addressed step checkpoints."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    def __contains__(self, key: str) -> bool:
        return self.path(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*{_SUFFIX}"))

    def save(self, key: str, step: str, value: object) -> str:
        """Persist ``value`` under ``key``; returns its fingerprint."""
        fingerprint = stable_digest(value)
        envelope = Checkpoint(
            key=key, step=step, fingerprint=fingerprint, value=value
        )
        target = self.path(key)
        scratch = target.with_suffix(_SUFFIX + ".tmp")
        try:
            with open(scratch, "wb") as handle:
                pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:
            # A value that digests but does not pickle (or an interrupt)
            # leaves no scratch file behind; the error is the caller's.
            scratch.unlink(missing_ok=True)
            raise
        os.replace(scratch, target)
        return fingerprint

    def load(self, key: str) -> Checkpoint:
        """Load and *verify* the checkpoint stored under ``key``.

        Raises :class:`CheckpointCorrupted` when the file does not unpickle
        to a whole envelope for ``key``, or when the re-digested value
        does not match the fingerprint recorded at save time (a flipped
        or truncated file, an incompatible environment, or a
        non-deterministic value that should never have been checkpointed).
        """
        with open(self.path(key), "rb") as handle:
            try:
                envelope = pickle.load(handle)
            except Exception as error:  # a corrupt stream raises any type
                raise CheckpointCorrupted(
                    f"checkpoint {self.path(key)} is unreadable: "
                    f"{type(error).__name__}: {error}"
                ) from error
        if (
            not isinstance(envelope, Checkpoint)
            or not _FIELDS <= vars(envelope).keys()
            or envelope.key != key
        ):
            raise CheckpointCorrupted(
                f"checkpoint {self.path(key)} does not contain a valid "
                f"envelope for key {key}"
            )
        replayed = stable_digest(envelope.value)
        if replayed != envelope.fingerprint:
            raise CheckpointCorrupted(
                f"checkpoint {self.path(key)} (step {envelope.step!r}) "
                f"replayed with fingerprint {replayed} but was saved as "
                f"{envelope.fingerprint}; delete the checkpoint directory "
                "to recompute"
            )
        return envelope
