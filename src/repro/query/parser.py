"""A small SQL-ish query language for PC analytics.

The paper expresses its queries as nested SQL over ``f_M(frame)``
subqueries.  This module provides an equivalent flat surface syntax that
compiles to the same :mod:`repro.query.ast` objects:

Retrieval (paper's PC retrieval query)::

    SELECT FRAMES WHERE COUNT(Car DIST <= 10) >= 3

Aggregates (paper's PC aggregate query)::

    SELECT AVG OF COUNT(Car DIST <= 10)
    SELECT MED OF COUNT(* DIST >= 5)
    SELECT MIN OF COUNT(Car)
    SELECT COUNT FRAMES WHERE COUNT(Car DIST <= 10) >= 3

Object filters accept an optional ``DIST <cmp> <meters>`` spatial
predicate, an optional ``CONF <threshold>`` confidence cut, and ``*`` for
"any label".  Keywords are case-insensitive; labels are case-sensitive.

Extensions beyond the paper's templates:

* additional spatial operators from the registry in
  :mod:`repro.query.spatial` — ``SECTOR <start_deg> <end_deg>``,
  ``REGION <xmin> <ymin> <xmax> <ymax>``, plus any operator registered
  at runtime; several spatial clauses in one ``COUNT(...)`` conjoin::

      SELECT FRAMES WHERE COUNT(Car DIST <= 20 SECTOR -45 45) >= 2

* the canonical-tile clause ``TILE <path>`` (quadrant digits 0-3
  descending from the fixed root grid of :mod:`repro.spatial.tiles`)::

      SELECT FRAMES WHERE COUNT(Car TILE 0231) >= 2

* a spatial scope that conjoins one region onto *every* object filter
  in the query — the surface syntax the spatial index accelerates::

      SELECT FRAMES WHERE COUNT(Car) >= 3 WITHIN TILE 02
      SELECT MED OF COUNT(*) WITHIN REGION (-50, -50, 50, 50)

  ``WITHIN ...`` desugars at parse time (the resulting query objects
  carry ordinary spatial filters, so ``describe()`` shows the conjoined
  form); when combined with a sequence scope, ``WITHIN`` comes first:
  ``... WITHIN TILE 02 IN SEQUENCE city-00``.

* compound retrieval conditions with ``AND`` / ``OR`` (``AND`` binds
  tighter), the paper's future-work "join queries"::

      SELECT FRAMES WHERE COUNT(Car DIST <= 10) >= 3
                      AND COUNT(Pedestrian DIST <= 15) >= 1

* an optional corpus sequence scope, parsed by
  :func:`parse_scoped_query` (the sharded corpus layer routes on it;
  :func:`parse_query` — the single-sequence surface — rejects it)::

      SELECT FRAMES WHERE COUNT(Car) >= 3 IN SEQUENCE semantickitti-00
      SELECT AVG OF COUNT(Car DIST <= 10) IN ALL SEQUENCES

  Bare scope names may chain identifiers and ``-<digits>`` runs; any
  other name must be quoted: ``IN SEQUENCE 'city/rush-hour.v2'``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, NamedTuple

from repro.query.aggregates import AGGREGATE_OPERATORS, requires_count_predicate
from repro.query.ast import (
    AggregateQuery,
    CompoundRetrievalQuery,
    Condition,
    ConditionAnd,
    ConditionOr,
    RetrievalQuery,
    ScopedQuery,
)
from repro.query.predicates import (
    DEFAULT_CONFIDENCE,
    CountPredicate,
    ObjectFilter,
    SpatialPredicate,
)
from repro.query.spatial import (
    AllOf,
    RegionPredicate,
    TilePredicate,
    build_spatial_operator,
    conjoin_spatial,
    is_spatial_operator,
    spatial_operator_arg_count,
    spatial_operator_epoch,
)

__all__ = ["parse_query", "parse_scoped_query", "QuerySyntaxError"]


class QuerySyntaxError(ValueError):
    """Raised when query text cannot be parsed."""


#: One match per token: leading whitespace is skipped inside the match,
#: and ``BAD`` takes any other character that is not whitespace.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<STRING>'[^']*'|"[^"]*")
    | (?P<NUMBER>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<CMP><=|>=|<|>)
    | (?P<DASH>-)
    | (?P<COMMA>,)
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<STAR>\*)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<BAD>\S)
    )
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        assert kind is not None
        value = match[kind]
        position = match.end() - len(value)
        if kind == "BAD":
            raise QuerySyntaxError(
                f"unexpected character {value!r} at position {position}"
            )
        tokens.append(_Token(kind, value, position))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.position = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------
    def _peek(self) -> _Token | None:
        return self.tokens[self.position] if self.position < len(self.tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise QuerySyntaxError(f"unexpected end of query: {self.text!r}")
        self.position += 1
        return token

    def _expect_keyword(self, keyword: str) -> None:
        token = self._next()
        if token.kind != "IDENT" or token.text.upper() != keyword:
            raise QuerySyntaxError(
                f"expected {keyword!r} at position {token.position}, got {token.text!r}"
            )

    def _match_keyword(self, keyword: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "IDENT" and token.text.upper() == keyword:
            self.position += 1
            return True
        return False

    def _expect_kind(self, kind: str, what: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise QuerySyntaxError(
                f"expected {what} at position {token.position}, got {token.text!r}"
            )
        return token

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------
    def parse(self) -> RetrievalQuery | CompoundRetrievalQuery | AggregateQuery:
        query, scope = self._parse_with_scope(allow_scope=False)
        assert scope is None
        return query

    def parse_scoped(self) -> ScopedQuery:
        query, scope = self._parse_with_scope(allow_scope=True)
        return ScopedQuery(query, sequence=scope)

    def _parse_with_scope(
        self, *, allow_scope: bool
    ) -> tuple[RetrievalQuery | CompoundRetrievalQuery | AggregateQuery, str | None]:
        self._expect_keyword("SELECT")
        if self._match_keyword("FRAMES"):
            self._expect_keyword("WHERE")
            condition = self._condition_expr()
            if isinstance(condition, Condition):
                query: RetrievalQuery | CompoundRetrievalQuery | AggregateQuery = (
                    RetrievalQuery(condition.object_filter, condition.count_predicate)
                )
            else:
                query = CompoundRetrievalQuery(condition)
        else:
            query = self._aggregate()
        query = _apply_spatial_scope(query, self._within_scope())
        scope = self._sequence_scope() if allow_scope else None
        if self._peek() is not None:
            trailing = self._peek()
            raise QuerySyntaxError(
                f"unexpected trailing input {trailing.text!r} "
                f"at position {trailing.position}"
            )
        return query, scope

    # ------------------------------------------------------------------
    # Spatial scope: ``WITHIN TILE <path>`` / ``WITHIN REGION (...)``.
    # ------------------------------------------------------------------
    def _within_scope(self):
        if not self._match_keyword("WITHIN"):
            return None
        if self._match_keyword("TILE"):
            return self._tile_predicate()
        self._expect_keyword("REGION")
        self._expect_kind("LPAREN", "'('")
        coordinates = [self._number()]
        for _ in range(3):
            token = self._peek()
            if token is not None and token.kind == "COMMA":
                self.position += 1
            coordinates.append(self._number())
        self._expect_kind("RPAREN", "')'")
        try:
            return RegionPredicate(*coordinates)
        except ValueError as error:
            raise QuerySyntaxError(str(error)) from error

    def _tile_predicate(self) -> TilePredicate:
        """A canonical tile path, read from the raw token text.

        Paths are digit strings, so they tokenize as NUMBER — but they
        must *not* go through ``float`` (leading zeros are quadrant
        digits: ``float("0231")`` would destroy the path).
        """
        token = self._expect_kind("NUMBER", "a tile path")
        try:
            return TilePredicate(token.text)
        except ValueError as error:
            raise QuerySyntaxError(
                f"{error} (at position {token.position})"
            ) from error

    def _number(self) -> float:
        return float(self._expect_kind("NUMBER", "a number").text)

    # ------------------------------------------------------------------
    # Corpus scope: ``IN SEQUENCE <name>`` / ``IN ALL SEQUENCES``.
    # ------------------------------------------------------------------
    def _sequence_scope(self) -> str | None:
        if not self._match_keyword("IN"):
            return None
        if self._match_keyword("ALL"):
            self._expect_keyword("SEQUENCES")
            return None
        self._expect_keyword("SEQUENCE")
        return self._sequence_name()

    def _sequence_name(self) -> str:
        """A scope name: a quoted string, or adjacent bare tokens.

        Bare names join consecutive IDENT / NUMBER / ``-`` tokens with
        no whitespace between them, so ``semantickitti-00`` (tokenized
        as ``semantickitti`` + ``-00``) and ``once-01-n64`` read back as
        one name.
        """
        token = self._next()
        if token.kind == "STRING":
            name = token.text[1:-1]
            if not name:
                raise QuerySyntaxError(
                    f"empty sequence name at position {token.position}"
                )
            return name
        if token.kind != "IDENT":
            raise QuerySyntaxError(
                f"expected a sequence name at position {token.position}, "
                f"got {token.text!r}"
            )
        name = token.text
        end = token.position + len(token.text)
        while True:
            following = self._peek()
            if (
                following is None
                or following.kind not in ("IDENT", "NUMBER", "DASH")
                or following.position != end
            ):
                break
            self.position += 1
            name += following.text
            end = following.position + len(following.text)
        return name

    def _aggregate(self) -> AggregateQuery:
        token = self._expect_kind("IDENT", "an aggregate operator")
        operator = _resolve_operator(token.text)
        if operator is None:
            raise QuerySyntaxError(
                f"unknown aggregate operator {token.text!r} at position "
                f"{token.position}; options: {sorted(AGGREGATE_OPERATORS)}"
            )
        if requires_count_predicate(operator):
            self._expect_keyword("FRAMES")
            self._expect_keyword("WHERE")
            condition = self._condition_expr()
            if not isinstance(condition, Condition):
                raise QuerySyntaxError(
                    f"the {operator} aggregate takes a single condition; "
                    f"for compound conditions use a retrieval query and "
                    f"its cardinality"
                )
            return AggregateQuery(
                condition.object_filter, operator, condition.count_predicate
            )
        self._expect_keyword("OF")
        object_filter = self._count_expr()
        return AggregateQuery(object_filter, operator)

    # ------------------------------------------------------------------
    # Conditions: OR over ANDs over leaf conditions (AND binds tighter).
    # ------------------------------------------------------------------
    def _condition_expr(self):
        terms = [self._and_expr()]
        while self._match_keyword("OR"):
            terms.append(self._and_expr())
        if len(terms) == 1:
            return terms[0]
        return ConditionOr(tuple(terms))

    def _and_expr(self):
        terms = [self._condition_term()]
        while self._match_keyword("AND"):
            terms.append(self._condition_term())
        if len(terms) == 1:
            return terms[0]
        return ConditionAnd(tuple(terms))

    def _condition_term(self):
        """A leaf condition or a parenthesized condition group.

        ``describe()`` parenthesizes nested AND/OR groups, so the
        grammar must accept them back for round-tripping.
        """
        token = self._peek()
        if token is not None and token.kind == "LPAREN":
            self.position += 1
            inner = self._condition_expr()
            self._expect_kind("RPAREN", "')'")
            return inner
        return self._leaf_condition()

    def _leaf_condition(self) -> Condition:
        object_filter = self._count_expr()
        op = self._expect_kind("CMP", "a comparison operator").text
        threshold = float(self._expect_kind("NUMBER", "a number").text)
        return Condition(object_filter, CountPredicate(op, threshold))

    def _count_expr(self) -> ObjectFilter:
        self._expect_keyword("COUNT")
        self._expect_kind("LPAREN", "'('")
        token = self._next()
        if token.kind == "STAR":
            label = None
        elif token.kind == "IDENT":
            label = token.text
        else:
            raise QuerySyntaxError(
                f"expected a label or '*' at position {token.position}, "
                f"got {token.text!r}"
            )
        spatial_filters: list = []
        confidence = DEFAULT_CONFIDENCE
        while True:
            if self._match_keyword("DIST"):
                op = self._expect_kind("CMP", "a comparison operator").text
                threshold = float(self._expect_kind("NUMBER", "a number").text)
                spatial_filters.append(SpatialPredicate(op, threshold))
            elif self._match_keyword("CONF"):
                confidence = float(self._expect_kind("NUMBER", "a number").text)
            elif self._match_keyword("TILE"):
                spatial_filters.append(self._tile_predicate())
            elif self._peek_spatial_operator() is not None:
                keyword = self._next().text.upper()
                n_args = spatial_operator_arg_count(keyword)
                args = [
                    float(self._expect_kind("NUMBER", "a number").text)
                    for _ in range(n_args)
                ]
                try:
                    spatial_filters.append(build_spatial_operator(keyword, args))
                except ValueError as error:
                    raise QuerySyntaxError(str(error)) from error
            else:
                break
        self._expect_kind("RPAREN", "')'")
        if not spatial_filters:
            spatial = None
        elif len(spatial_filters) == 1:
            spatial = spatial_filters[0]
        else:
            spatial = AllOf(tuple(spatial_filters))
        return ObjectFilter(label=label, spatial=spatial, confidence=confidence)

    def _peek_spatial_operator(self) -> str | None:
        token = self._peek()
        if (
            token is not None
            and token.kind == "IDENT"
            and is_spatial_operator(token.text)
        ):
            return token.text.upper()
        return None


def _apply_spatial_scope(query, region):
    """Conjoin a ``WITHIN ...`` region onto every object filter of a query."""
    if region is None:
        return query
    if isinstance(query, RetrievalQuery):
        return RetrievalQuery(
            _scope_object_filter(query.object_filter, region), query.count_predicate
        )
    if isinstance(query, CompoundRetrievalQuery):
        return CompoundRetrievalQuery(_scope_condition(query.condition, region))
    assert isinstance(query, AggregateQuery)
    return AggregateQuery(
        _scope_object_filter(query.object_filter, region),
        query.operator,
        query.count_predicate,
    )


def _scope_object_filter(object_filter: ObjectFilter, region) -> ObjectFilter:
    return ObjectFilter(
        label=object_filter.label,
        spatial=conjoin_spatial(object_filter.spatial, region),
        confidence=object_filter.confidence,
    )


def _scope_condition(condition, region):
    if isinstance(condition, Condition):
        return Condition(
            _scope_object_filter(condition.object_filter, region),
            condition.count_predicate,
        )
    if isinstance(condition, ConditionAnd):
        return ConditionAnd(
            tuple(_scope_condition(child, region) for child in condition.children)
        )
    assert isinstance(condition, ConditionOr)
    return ConditionOr(
        tuple(_scope_condition(child, region) for child in condition.children)
    )


def _resolve_operator(text: str) -> str | None:
    """Case-insensitive lookup of an aggregate operator name."""
    lowered = text.lower()
    for name in AGGREGATE_OPERATORS:
        if name.lower() == lowered:
            return name
    return None


def _require_text(text: str) -> None:
    if not isinstance(text, str) or not text.strip():
        raise QuerySyntaxError("query text must be a non-empty string")


@lru_cache(maxsize=4096)
def _parse(text: str, scoped: bool, operators: int) -> Any:
    """The tree's one parse memo: ``(text, entry point) -> frozen AST``.

    Query ASTs are immutable, so a repeated text shares one tree.  The
    memo holds syntax only — never an answer, so nothing here goes stale
    when a sequence is extended or re-planned.  A raising parse is not
    cached, and ``operators`` (the spatial-operator registry's epoch)
    retires entries parsed under a since-replaced operator.
    """
    parser = _Parser(text)
    return parser.parse_scoped() if scoped else parser.parse()


def parse_query(text: str) -> RetrievalQuery | AggregateQuery:
    """Parse query text into a query object.

    Raises :class:`QuerySyntaxError` (a ``ValueError``) on malformed
    input — including a sequence scope, which only the corpus layer
    (via :func:`parse_scoped_query`) knows how to route.
    """
    _require_text(text)
    return _parse(text, False, spatial_operator_epoch())


def parse_scoped_query(text: str) -> ScopedQuery:
    """Parse query text that may carry a corpus sequence scope.

    Always returns a :class:`~repro.query.ast.ScopedQuery`;
    ``.sequence`` is ``None`` for unscoped text and for an explicit
    ``IN ALL SEQUENCES``.  Raises :class:`QuerySyntaxError` (a
    ``ValueError``) on malformed input.
    """
    _require_text(text)
    return _parse(text, True, spatial_operator_epoch())
