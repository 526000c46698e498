"""Field hashes computed once per object, for the frozen query dataclasses.

A served request hashes its filters and queries on every dict operation
(cache keys, answer keys, batch dedup).  A frozen dataclass's generated
``__hash__`` re-hashes every field on each call, recursing into nested
filters; :class:`HashOnce` keeps the value on the instance after the
first call.  It is the generated value — the hash of the field tuple —
so sets and dicts behave exactly as before, and ``==`` and
``dataclasses.fields`` are untouched.

``dataclass`` replaces an inherited ``__hash__`` with a generated one
unless the class body defines ``__hash__`` itself, so every user says
``__hash__ = HashOnce.__hash__`` in its body.

The kept value depends on the process's ``PYTHONHASHSEED`` (string
hashes do), so pickling drops it: a ``spawn`` worker or a loaded
checkpoint recomputes it on first use.
"""

from __future__ import annotations

from dataclasses import fields
from functools import cache
from operator import attrgetter
from typing import Any, Callable

__all__ = ["HashOnce"]


@cache
def _field_values(cls: type) -> Callable[[Any], tuple]:
    """The values a generated ``__hash__`` of ``cls`` hashes, as one getter."""
    names = [
        spec.name
        for spec in fields(cls)  # type: ignore[arg-type]
        if (spec.compare if spec.hash is None else spec.hash)
    ]
    if len(names) > 1:
        return attrgetter(*names)
    (name,) = names
    return lambda obj: (getattr(obj, name),)


class HashOnce:
    """Mixin of a frozen dataclass: its field hash, computed once."""

    __slots__ = ()

    #: The field hash, set on first use (absent until then and after unpickling).
    _hash: int

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        value = self.__dict__["_hash"] = hash(_field_values(type(self))(self))
        return value

    def __getstate__(self) -> dict[str, Any]:
        """The instance's fields, without the process-local hash."""
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state
