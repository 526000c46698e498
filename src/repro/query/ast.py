"""Query objects (abstract syntax) and result types.

Two query shapes, matching the paper's §2.1 definitions:

* :class:`RetrievalQuery` — return the ids of all frames whose filtered
  object count satisfies the semantic predicate;
* :class:`AggregateQuery` — reduce the per-frame counts with one of the
  registered aggregate operators.

Both carry an :class:`~repro.query.predicates.ObjectFilter`; queries are
frozen/hashable so engines can memoize per-query work.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.query.aggregates import AGGREGATE_OPERATORS, requires_count_predicate
from repro.query.hashing import HashOnce
from repro.query.predicates import CountPredicate, ObjectFilter

__all__ = [
    "RetrievalQuery",
    "AggregateQuery",
    "RetrievalResult",
    "AggregateResult",
    "Condition",
    "ConditionAnd",
    "ConditionOr",
    "CompoundRetrievalQuery",
    "ScopedQuery",
]


@dataclass(frozen=True)
class Condition:
    """One frame-level condition: ``COUNT(<filter>) op num``."""

    object_filter: ObjectFilter
    count_predicate: CountPredicate

    def describe(self) -> str:
        return (
            f"COUNT({self.object_filter.describe()}) "
            f"{self.count_predicate.op} {self.count_predicate.threshold:g}"
        )


@dataclass(frozen=True)
class ConditionAnd:
    """Conjunction of conditions (all must hold per frame)."""

    children: tuple

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("ConditionAnd needs at least two children")

    def describe(self) -> str:
        return " AND ".join(_child_text(c) for c in self.children)


@dataclass(frozen=True)
class ConditionOr:
    """Disjunction of conditions (any may hold per frame)."""

    children: tuple

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("ConditionOr needs at least two children")

    def describe(self) -> str:
        return " OR ".join(_child_text(c) for c in self.children)


def _child_text(condition) -> str:
    text = condition.describe()
    if isinstance(condition, (ConditionAnd, ConditionOr)):
        return f"({text})"
    return text


@dataclass(frozen=True)
class RetrievalQuery(HashOnce):
    """``SELECT FRAMES WHERE COUNT(<filter>) op num``."""

    __hash__ = HashOnce.__hash__

    object_filter: ObjectFilter
    count_predicate: CountPredicate

    def describe(self) -> str:
        return (
            f"SELECT FRAMES WHERE COUNT({self.object_filter.describe()}) "
            f"{self.count_predicate.op} {self.count_predicate.threshold:g}"
        )


@dataclass(frozen=True)
class CompoundRetrievalQuery:
    """Retrieval over a boolean combination of count conditions.

    The "join-query" extension of the paper's future work (§8): frames
    satisfying e.g. *>= 3 cars within 10 m AND >= 1 pedestrian within
    15 m*.  Each leaf condition evaluates its own count series; the
    engine combines the per-frame boolean masks.
    """

    condition: object  # Condition | ConditionAnd | ConditionOr

    def describe(self) -> str:
        return f"SELECT FRAMES WHERE {self.condition.describe()}"

    def leaf_conditions(self) -> list[Condition]:
        """All leaf conditions in evaluation order."""
        leaves: list[Condition] = []

        def walk(node) -> None:
            if isinstance(node, Condition):
                leaves.append(node)
            elif isinstance(node, (ConditionAnd, ConditionOr)):
                for child in node.children:
                    walk(child)
            else:
                raise TypeError(f"unsupported condition type {type(node).__name__}")

        walk(self.condition)
        return leaves


@dataclass(frozen=True)
class AggregateQuery(HashOnce):
    """``SELECT <op> OF COUNT(<filter>)`` (plus the Count-operator form)."""

    __hash__ = HashOnce.__hash__

    object_filter: ObjectFilter
    operator: str
    count_predicate: CountPredicate | None = None

    def __post_init__(self) -> None:
        if self.operator not in AGGREGATE_OPERATORS:
            raise ValueError(
                f"unknown aggregate operator {self.operator!r}; "
                f"options: {sorted(AGGREGATE_OPERATORS)}"
            )
        if requires_count_predicate(self.operator) and self.count_predicate is None:
            raise ValueError(f"{self.operator} requires a count predicate")

    def describe(self) -> str:
        if self.count_predicate is not None:
            return (
                f"SELECT {self.operator.upper()} FRAMES WHERE "
                f"COUNT({self.object_filter.describe()}) "
                f"{self.count_predicate.op} {self.count_predicate.threshold:g}"
            )
        return f"SELECT {self.operator.upper()} OF COUNT({self.object_filter.describe()})"


def _quote_sequence_name(name: str) -> str:
    """Render a sequence name for the scope clause (quoted if needed).

    Names that tokenize back to themselves (identifier optionally
    followed by ``-``-joined alphanumeric runs, like
    ``semantickitti-00`` or ``once-01-n64``) stay bare; anything else
    is single-quoted so ``describe()`` output round-trips through
    :func:`repro.query.parser.parse_scoped_query`.
    """
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*(-[A-Za-z0-9_]+)*", name):
        return name
    if "'" not in name:
        return f"'{name}'"
    return f'"{name}"'


@dataclass(frozen=True)
class ScopedQuery:
    """A query plus an optional corpus sequence scope.

    ``sequence`` names one registered sequence of a
    :class:`~repro.corpus.SequenceCatalog` (``IN SEQUENCE <name>``);
    ``None`` means the query fans out over every sequence (the default,
    also written explicitly as ``IN ALL SEQUENCES``).  Single-sequence
    executors reject scoped queries — the scope only means something to
    the corpus layer.
    """

    query: RetrievalQuery | CompoundRetrievalQuery | AggregateQuery
    sequence: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(
            self.query, (RetrievalQuery, CompoundRetrievalQuery, AggregateQuery)
        ):
            raise TypeError(
                f"ScopedQuery wraps a parsed query, got {type(self.query).__name__}"
            )
        if self.sequence is not None and not self.sequence:
            raise ValueError("sequence scope must be a non-empty name or None")

    def describe(self) -> str:
        if self.sequence is None:
            return self.query.describe()
        return f"{self.query.describe()} IN SEQUENCE {_quote_sequence_name(self.sequence)}"


@dataclass(frozen=True)
class RetrievalResult:
    """Frame ids satisfying a retrieval query."""

    query: RetrievalQuery
    frame_ids: np.ndarray
    #: Number of frames in the queried sequence (for selectivity).
    n_frames: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "frame_ids", np.asarray(self.frame_ids, dtype=np.int64)
        )

    @property
    def cardinality(self) -> int:
        return int(len(self.frame_ids))

    @property
    def selectivity(self) -> float:
        """Fraction of frames retrieved, in [0, 1]."""
        return self.cardinality / self.n_frames if self.n_frames else 0.0

    def id_set(self) -> set[int]:
        return set(int(i) for i in self.frame_ids)


@dataclass(frozen=True)
class AggregateResult:
    """Numeric answer of an aggregate query."""

    query: AggregateQuery
    value: float
    #: Optional per-frame counts the value was computed from (diagnostics).
    counts: np.ndarray | None = field(default=None, repr=False, compare=False)
