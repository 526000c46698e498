"""Content fingerprints for checkpoint keys and bit-identity pins.

A flow step's checkpoint key is a digest of *what the step computes
from*: its name, its static parameters, and the fingerprints of its
upstream results (the same seed + config + content chaining the
DetectionStore uses per frame, lifted to whole experiment stages).  A
step's own fingerprint is a digest of *what it computed*, so any
downstream key transitively pins the entire upstream value chain.

:func:`stable_digest` therefore has to be deterministic across runs,
processes, and pickle round-trips.  It canonicalizes recursively:
containers by structure, numpy arrays by dtype/shape/bytes, floats by
``repr`` (exact for IEEE doubles), numpy scalars as the Python scalar
they hold, dataclasses by field name/value, and
:class:`~repro.utils.timing.CostLedger` by its
:meth:`~repro.utils.timing.CostLedger.deterministic_state` — measured
wall-clock seconds are *excluded* by construction, which is what makes
"bit-identical reports" a meaningful cross-run statement.

Unknown object types raise ``TypeError`` instead of guessing: a silent
fallback (``repr``, pickle bytes) would turn an unnoticed cache or
memory address into a key that never matches again.  Object-dtype
arrays are refused for the same reason: their buffer holds pointers.

The canonical byte stream is built with one handler per exact type,
resolved once from the ``isinstance`` order below and cached, and is
appended to one buffer that reaches blake2b in chunks of at least
:data:`_CHUNK` bytes (large array buffers go to it directly).  blake2b
is streaming, so how the stream is chunked never changes a digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable

import numpy as np

from repro.utils.timing import CostLedger

__all__ = ["stable_digest"]

#: Hex digest length (blake2b, 16 bytes -> 32 hex chars).
_DIGEST_SIZE = 16
#: Buffered bytes that trigger a hash update; arrays this large skip the buffer.
_CHUNK = 1 << 16


class _Stream(bytearray):
    """The pending canonical bytes of one digest, and the hash they feed."""

    __slots__ = ("hash",)

    def __init__(self) -> None:
        super().__init__()
        self.hash = hashlib.blake2b(digest_size=_DIGEST_SIZE)

    def flush(self) -> None:
        self.hash.update(self)
        del self[:]

    def hexdigest(self) -> str:
        self.flush()
        return self.hash.hexdigest()


_Handler = Callable[[_Stream, Any], None]
#: Exact type -> handler; filled lazily by :func:`_resolve`.
_HANDLERS: dict[type, _Handler] = {}
#: Array dtype -> its ``b"A" + dtype.str`` tag.
_DTYPE_TAGS: dict[np.dtype, bytes] = {}


def stable_digest(value: object) -> str:
    """A run-stable hex digest of ``value`` (see module docstring)."""
    return _digest(value)


def _digest(value: object) -> str:
    # Nested digests (dict keys, set items) come here, not through the
    # public name, so a wrapper around stable_digest sees one call per
    # top-level value.
    out = _Stream()
    _feed(out, value)
    return out.hexdigest()


def _feed(out: _Stream, value: object) -> None:
    cls = type(value)
    (_HANDLERS.get(cls) or _resolve(cls))(out, value)


def _resolve(cls: type) -> _Handler:
    """The handler for instances of ``cls``, in canonicalization order."""
    handler: _Handler
    if cls is type(None):
        handler = _feed_none
    elif issubclass(cls, np.generic):
        # Before the Python scalars: np.float64 subclasses float, and its
        # repr names the numpy type.
        handler = _feed_numpy_scalar
    elif issubclass(cls, bool):
        handler = _feed_bool
    elif issubclass(cls, int):
        handler = _feed_int
    elif issubclass(cls, float):
        handler = _feed_float
    elif issubclass(cls, str):
        handler = _feed_str
    elif issubclass(cls, bytes):
        handler = _feed_bytes
    elif issubclass(cls, np.ndarray):
        handler = _feed_array
    elif issubclass(cls, tuple):
        handler = _sequence_handler(b"T(")
    elif issubclass(cls, list):
        handler = _sequence_handler(b"L(")
    elif issubclass(cls, dict):
        handler = _feed_dict
    elif issubclass(cls, (set, frozenset)):
        handler = _feed_set
    elif issubclass(cls, CostLedger):
        handler = _feed_ledger
    elif dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        handler = _dataclass_handler(cls)
    else:
        handler = _feed_opaque
    _HANDLERS[cls] = handler
    return handler


def _feed_none(out: _Stream, value: None) -> None:
    out += b"N"


def _feed_numpy_scalar(out: _Stream, value: np.generic) -> None:
    _feed(out, value.item())


def _feed_bool(out: _Stream, value: bool) -> None:
    out += b"B1" if value else b"B0"


def _feed_int(out: _Stream, value: int) -> None:
    out += b"I"
    out += repr(value).encode("ascii")


def _feed_float(out: _Stream, value: float) -> None:
    # repr() round-trips doubles exactly; NaN payloads collapse to the
    # one canonical 'nan', which is what equality wants anyway.
    out += b"F"
    out += repr(value).encode("ascii")


def _feed_str(out: _Stream, value: str) -> None:
    encoded = value.encode("utf-8")
    out += b"S%d:" % len(encoded)
    out += encoded


def _feed_bytes(out: _Stream, value: bytes) -> None:
    out += b"Y%d:" % len(value)
    out += value


def _feed_array(out: _Stream, value: np.ndarray) -> None:
    dtype = value.dtype
    tag = _DTYPE_TAGS.get(dtype)
    if tag is None:
        if dtype.hasobject:
            raise TypeError(
                f"stable_digest cannot canonicalize an array of dtype {dtype}: "
                "its buffer holds object pointers, not values"
            )
        tag = _DTYPE_TAGS[dtype] = b"A" + dtype.str.encode("ascii")
    out += tag
    out += repr(value.shape).encode("ascii")
    if value.nbytes < _CHUNK:
        out += value.tobytes()
    else:
        out.flush()
        out.hash.update(np.ascontiguousarray(value).reshape(-1).view(np.uint8))


def _sequence_handler(head: bytes) -> _Handler:
    def feed(out: _Stream, value: tuple | list) -> None:
        out += head
        get = _HANDLERS.get
        for item in value:
            cls = type(item)
            (get(cls) or _resolve(cls))(out, item)
            out += b","
        out += b")"
        if len(out) >= _CHUNK:
            out.flush()

    return feed


def _feed_dict(out: _Stream, value: dict) -> None:
    out += b"D("
    for key_digest, item_key in sorted(
        (_digest(item_key), item_key) for item_key in value
    ):
        out += key_digest.encode("ascii")
        out += b"="
        _feed(out, value[item_key])
        out += b","
    out += b")"
    if len(out) >= _CHUNK:
        out.flush()


def _feed_set(out: _Stream, value: set | frozenset) -> None:
    out += b"E("
    for item_digest in sorted(_digest(item) for item in value):
        out += item_digest.encode("ascii")
        out += b","
    out += b")"


def _feed_ledger(out: _Stream, value: CostLedger) -> None:
    out += b"G"
    _feed(out, value.deterministic_state())


def _dataclass_handler(cls: type) -> _Handler:
    head = b"C" + cls.__qualname__.encode("utf-8") + b"("
    fields = tuple(
        (field.name, field.name.encode("utf-8") + b"=")
        for field in dataclasses.fields(cls)
    )

    def feed(out: _Stream, value: object) -> None:
        out += head
        get = _HANDLERS.get
        for name, label in fields:
            out += label
            item = getattr(value, name)
            item_cls = type(item)
            (get(item_cls) or _resolve(item_cls))(out, item)
            out += b","
        out += b")"
        if len(out) >= _CHUNK:
            out.flush()

    return feed


def _feed_opaque(out: _Stream, value: object) -> None:
    fingerprint: Any = getattr(value, "__flow_fingerprint__", None)
    if not callable(fingerprint):
        raise TypeError(
            f"stable_digest cannot canonicalize {type(value).__qualname__!r}; "
            "add a __flow_fingerprint__() method or restrict the step "
            "output to digestible types"
        )
    out += b"O" + type(value).__qualname__.encode("utf-8")
    _feed(out, fingerprint())
