"""Differential: one cache walk per sub-batch counts what lookups one by one counted.

``QueryService`` answers a sub-batch with one
:meth:`~repro.serving.cache.CountSeriesCache.lookup_many` walk and one
ledger update, and ``CorpusQueryService`` reuses a fan-out aggregate
merged from the same shard answers.  :class:`_LookupByLookup` keeps the
path they replaced — a warm pass and a per-query pass, each lookup its
own critical section and ledger call — as the specification.

Hypothesis draws pools of scoped and fan-out queries (single-filter,
Avg / Med / Count and compound retrievals), batches and serial asks of
them with repeats, cache bounds small enough to evict inside a batch,
and ``extend`` / ``replan(exact=True)`` (each shard's ``adopt``) /
``cache.clear()`` between requests.  After every request both corpora
must agree on every answer, every shard's ``CacheStats`` counters, and
its ledger's run-stable state (cache hits and misses, invocation counts
and simulated seconds per stage), to the last bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import MASTConfig
from repro.core.pipeline import predictor_kind
from repro.corpus import CorpusPipeline, CorpusQueryService, SequenceCatalog, SequenceSpec
from repro.corpus.results import merge
from repro.models import pv_rcnn
from repro.query import (
    AggregateQuery,
    AggregateResult,
    CompoundRetrievalQuery,
    Condition,
    ConditionAnd,
    CountPredicate,
    ObjectFilter,
    RetrievalQuery,
    ScopedQuery,
    SpatialPredicate,
)
from repro.query.engine import evaluate_query
from repro.query.parser import parse_query
from repro.serving import QueryService
from repro.serving.batching import base_kind
from repro.serving.service import _freeze
from repro.simulation import semantickitti_like
from repro.utils.timing import STAGE_QUERY

#: Frames the grown shard is fitted on; ``extend`` appends ``CHUNK`` at a time.
N_FIT, CHUNK = 60, 8


class _LookupByLookup(QueryService):
    """The service's request path before one walk per sub-batch."""

    def _resolve(self, state, kind, object_filter):
        (series,) = self._warm_kind(state, base_kind(kind), [object_filter])
        if kind == "linear_floor":
            return np.floor(series)
        return series

    def _warm_kind(self, state, kind, filters):
        series: list = []
        prefixes: list = []
        for object_filter in filters:
            cached, prefix = self.cache.lookup((kind, object_filter), state.generation)
            self.ledger.record_cache(STAGE_QUERY, hit=cached is not None)
            series.append(cached)
            prefixes.append(prefix)
        return self._complete(state, kind, filters, series, prefixes)

    def execute(self, query):
        if isinstance(query, str):
            query = parse_query(query)
        return self._execute_on(self._state, query)

    def _execute_on(self, state, query):
        kind = predictor_kind(self._pipeline.config, query)
        series_kind = base_kind(kind)
        provider = state.provider(series_kind)
        ledger = self.ledger
        with ledger.measure(STAGE_QUERY):
            ledger.charge(
                STAGE_QUERY,
                provider.simulated_query_cost_per_frame * state.n_frames,
                count=0,
            )
            if isinstance(query, CompoundRetrievalQuery):
                return evaluate_query(
                    query,
                    lambda object_filter: self._resolve(state, kind, object_filter),
                    state.n_frames,
                )
            key = (series_kind, query.object_filter)
            cached, prefix, answer = self.cache.lookup_answer(
                key, state.generation, (kind, query)
            )
            ledger.record_cache(STAGE_QUERY, hit=cached is not None)
            if answer is not None:
                return answer
            (series,) = self._complete(
                state, series_kind, [query.object_filter], [cached], [prefix]
            )
            if kind == "linear_floor":
                series = np.floor(series)
            answer = evaluate_query(query, lambda _: series, state.n_frames)
            self.cache.remember(key, state.generation, (kind, query), answer, _freeze(answer))
            return answer

    def execute_batch(self, queries):
        config = self._pipeline.config
        parsed = []
        distinct: dict = {}
        for query in queries:
            if isinstance(query, str):
                query = parse_query(query)
            parsed.append(query)
            filters = distinct.setdefault(base_kind(predictor_kind(config, query)), {})
            leaves = (
                [c.object_filter for c in query.leaf_conditions()]
                if isinstance(query, CompoundRetrievalQuery)
                else [query.object_filter]
            )
            for object_filter in leaves:
                filters.setdefault(object_filter, None)
        state = self._state
        for kind, filters in distinct.items():
            self._warm_kind(state, kind, list(filters))
        return [self._execute_on(state, query) for query in parsed]


class _MergeEveryTime(CorpusQueryService):
    """The corpus route with ``_LookupByLookup`` shards and no merge memo."""

    def __init__(self, corpus, *, max_cache_entries):
        super().__init__(corpus, max_cache_entries=max_cache_entries)
        self._services = {
            name: _LookupByLookup(shard, max_cache_entries=max_cache_entries)
            for name, shard in corpus.shards.items()
        }

    def _merge(self, query, per_shard):
        return merge(query, per_shard)


@pytest.fixture(scope="module")
def model():
    return pv_rcnn(seed=5)


@pytest.fixture(scope="module")
def catalog_specs():
    return [
        SequenceSpec("semantickitti", 0, n_frames=N_FIT),
        SequenceSpec("once", 0, n_frames=48),
    ]


@pytest.fixture(scope="module")
def tail():
    """Frames the grown shard's ``extend`` steps append, in order."""
    return list(semantickitti_like(0, n_frames=N_FIT + 3 * CHUNK, with_points=False))[N_FIT:]


#: Few filters, so requests share series and the small caches evict inside one.
object_filters = st.builds(
    ObjectFilter,
    label=st.sampled_from(["Car", "Pedestrian"]),
    spatial=st.sampled_from([None, SpatialPredicate("<=", 20.0)]),
)
count_predicates = st.builds(
    CountPredicate, op=st.sampled_from([">=", "<"]), threshold=st.sampled_from([1.0, 2.0])
)
queries = st.one_of(
    st.builds(RetrievalQuery, object_filter=object_filters, count_predicate=count_predicates),
    st.builds(AggregateQuery, object_filter=object_filters, operator=st.sampled_from(["Avg", "Med"])),
    st.builds(
        AggregateQuery,
        object_filter=object_filters,
        operator=st.just("Count"),
        count_predicate=count_predicates,
    ),
    st.builds(
        lambda a, b: CompoundRetrievalQuery(ConditionAnd((a, b))),
        st.builds(Condition, object_filter=object_filters, count_predicate=count_predicates),
        st.builds(Condition, object_filter=object_filters, count_predicate=count_predicates),
    ),
)
#: One request: how it is sent, and (pool index, scope index) per query.
requests = st.tuples(
    st.sampled_from(["batch", "execute"]),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)), min_size=1, max_size=10),
)
#: What happens between two requests.
between = st.sampled_from([None, None, "clear", "extend", "replan"])


def _same(got, want) -> bool:
    if isinstance(want, AggregateResult):
        same = got.value == want.value or (np.isnan(got.value) and np.isnan(want.value))
        return same and np.array_equal(got.counts, want.counts)
    return got.n_frames == want.n_frames and np.array_equal(got.frame_ids, want.frame_ids)


def _assert_same_answer(got, want) -> None:
    parts = getattr(want, "by_sequence", None)
    if parts is None:
        assert _same(got, want)
        return
    assert list(got.by_sequence) == list(parts)
    assert all(_same(got.by_sequence[name], part) for name, part in parts.items())
    if hasattr(want, "value"):
        assert got.value == want.value or (np.isnan(got.value) and np.isnan(want.value))


def _counters(service: CorpusQueryService) -> dict:
    """Every counter the walk must keep, per shard.

    The ledger's run-stable state holds its cache hits and misses,
    invocation counts and simulated seconds per stage (a stage it never
    touched is absent, not zero); the query stage's simulated seconds
    are also compared by ``repr``, to the last bit.
    """
    counters = {}
    for name in service.names:
        stats = service.service(name).cache_stats()
        ledger = service.service(name).ledger.deterministic_state()
        counters[name] = (
            stats.hits,
            stats.misses,
            stats.partial_hits,
            stats.evictions,
            stats.invalidations,
            ledger,
            repr(ledger["simulated"].get(STAGE_QUERY)),
        )
    return counters


CAR, PEDESTRIAN = (ObjectFilter(label) for label in ("Car", "Pedestrian"))


@example(  # a put inside one warm group evicts the group's next series
    pool=[
        RetrievalQuery(CAR, CountPredicate(">=", 1.0)),
        RetrievalQuery(PEDESTRIAN, CountPredicate(">=", 1.0)),
    ],
    steps=[(("batch", [(1, 0)]), None), (("batch", [(0, 0), (1, 0)]), None)],
    max_entries=1,
)
@given(
    pool=st.lists(queries, min_size=1, max_size=6),
    steps=st.lists(st.tuples(requests, between), min_size=1, max_size=5),
    max_entries=st.sampled_from([1, 2, 3, 512]),
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_one_walk_counts_like_lookups_one_by_one(
    model, catalog_specs, tail, pool, steps, max_entries
):
    sides = []
    for cls in (CorpusQueryService, _MergeEveryTime):
        catalog = SequenceCatalog()
        for spec in catalog_specs:
            catalog.register(spec)
        corpus = CorpusPipeline(
            catalog, MASTConfig(budget_fraction=0.15, seed=7), policy="uniform"
        ).fit(model)
        sides.append(cls(corpus, max_cache_entries=max_entries))
    served, spec = sides
    grown = served.names[0]
    scopes = (*served.names, None)
    extended = 0
    for (how, picks), step in steps:
        asked = [ScopedQuery(pool[i % len(pool)], scopes[s]) for i, s in picks]
        if how == "batch":
            got, want = served.execute_batch(asked), spec.execute_batch(asked)
        else:
            got = [served.execute(q) for q in asked]
            want = [spec.execute(q) for q in asked]
        for one, other in zip(got, want):
            _assert_same_answer(one, other)
        assert _counters(served) == _counters(spec)
        if step == "clear":
            for side in sides:
                side.service(grown).cache.clear()
        elif step == "extend" and extended < len(tail):
            frames = tail[extended : extended + CHUNK]
            extended += CHUNK
            for side in sides:
                side.extend(grown, frames)
        elif step == "replan":
            for side in sides:
                side.replan(model, exact=True)
