"""Differential: every answer path equals the executable spec of the paper.

Hypothesis draws a small world (60-200 frames), a config (budget,
``beta``, branching, depth cap, UCB constant, gate, seed, predictor
assignment) and a workload over random filters, and compares the sampled
ids, per-frame ST and linear counts, deep-model invocations billed and
every answer, bit for bit, with :mod:`tests.spec.mast` on four paths:
``MASTPipeline.fit(...).query`` (each query asked three times: computed,
admitted, memo hit), ``QueryService`` over a prefix and after every
``extend``, a corpus-of-one ``CorpusQueryService`` (scoped and fanned
out) and ``StreamingCorpusService`` after ``quiesce()``.  Every sampled
``MethodSpec`` of §7.1 (MAST, its ablations, Seiden-PC(ST), Random and
Uniform) is checked the same way against the spec's method of that name:
sampled ids, invocations billed and every answer.  A disagreement is a
bug or a choice to name in the spec, never a reason to edit the spec
until it agrees.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MASTConfig, MASTPipeline, QueryService
from repro.baselines import available_methods, get_method
from repro.corpus import CorpusPipeline, CorpusQueryService, SequenceCatalog
from repro.evalx.runner import MethodExecutor
from repro.models import pv_rcnn
from repro.models.base import DetectionModel
from repro.query import (
    AggregateQuery,
    CompoundRetrievalQuery,
    Condition,
    ConditionAnd,
    ConditionOr,
    CountPredicate,
    ObjectFilter,
    RetrievalQuery,
    ScopedQuery,
    SpatialPredicate,
)
from repro.query.spatial import AllOf, RegionPredicate, SectorPredicate, TilePredicate
from repro.simulation import city_like, once_like, semantickitti_like
from repro.streaming import ArrivalSchedule, ScheduledFrameSource, StreamingCorpusService
from repro.utils.timing import STAGE_MODEL
from tests.spec import mast

MODEL = pv_rcnn(seed=5)


class CountingModel(DetectionModel):
    """``MODEL``, counting the frames it is asked to detect."""

    def __init__(self, base: DetectionModel) -> None:
        self.base = base
        self.name = base.name
        self.cost_per_frame = base.cost_per_frame
        self.asked: Counter[int] = Counter()

    def detect(self, frame):
        self.asked[frame.frame_id] += 1
        return self.base.detect(frame)


# ----------------------------------------------------------------------
# What Hypothesis draws
# ----------------------------------------------------------------------
OPERATORS = ("Avg", "Med", "Count", "Min", "Max")
PREDICTORS = st.sampled_from(["st", "linear"])


@st.composite
def configs(draw) -> MASTConfig:
    assignment = {op: draw(PREDICTORS) for op in OPERATORS if draw(st.integers(0, 5))}
    return MASTConfig(
        budget_fraction=draw(st.sampled_from([0.05, 0.1, 0.15, 0.25, 0.4])),
        beta=draw(st.sampled_from([0.2, 0.3, 0.5, 0.8])),
        branching=draw(st.sampled_from([2, 2, 3, 4])),
        max_depth=draw(st.sampled_from([1, 2, 3, 10])),
        ucb_c=draw(st.sampled_from([0.5, 2.0])),
        alpha_r=draw(st.sampled_from([0.3, 1.0])),
        match_max_distance=draw(st.sampled_from([None, None, 2.0])),
        predictor_by_operator=assignment,
        retrieval_predictor=draw(PREDICTORS),
        seed=draw(st.integers(0, 2**16)),
    )


COORD = st.floats(-60.0, 60.0)
SIZE = st.floats(1.0, 80.0)
SIMPLE_SPATIAL = st.one_of(
    st.builds(SpatialPredicate, st.sampled_from(["<=", ">=", "<", ">"]), st.floats(0.0, 60.0)),
    st.builds(lambda start, span: SectorPredicate(start, start + span), st.floats(-180.0, 180.0), st.floats(1.0, 360.0)),
    st.builds(lambda x, y, w, h: RegionPredicate(x, y, x + w, y + h), COORD, COORD, SIZE, SIZE),
    # A canonical tile 16-128 m wide at a corner of the sensor origin.
    st.builds(
        lambda corner, depth, rest: TilePredicate(str(corner) + str(3 - corner) * depth + rest),
        st.integers(0, 3), st.integers(5, 8), st.text("0123", max_size=2),
    ),
)
SPATIAL = st.one_of(
    st.none(), SIMPLE_SPATIAL, st.builds(lambda a, b: AllOf((a, b)), SIMPLE_SPATIAL, SIMPLE_SPATIAL)
)
FILTERS = st.builds(
    ObjectFilter,
    label=st.sampled_from(["Car", "Pedestrian", "Cyclist", None]),
    spatial=SPATIAL,
    confidence=st.sampled_from([0.0, 0.3, 0.5, 0.7]),
)
COUNTS = st.builds(
    CountPredicate,
    op=st.sampled_from(["<=", ">=", "<", ">"]),
    threshold=st.sampled_from([0.0, 1.0, 2.0, 3.5]),
)


@st.composite
def workloads(draw):
    """3-8 queries of every shape over a pool of 1-4 filters, so that
    queries share series and answers share a series' memo."""
    filters = st.sampled_from(draw(st.lists(FILTERS, min_size=1, max_size=4)))
    conditions = st.builds(Condition, object_filter=filters, count_predicate=COUNTS)
    queries = st.one_of(
        st.builds(RetrievalQuery, object_filter=filters, count_predicate=COUNTS),
        st.builds(
            AggregateQuery, object_filter=filters, operator=st.sampled_from(["Avg", "Med", "Min", "Max"])
        ),
        st.builds(AggregateQuery, object_filter=filters, operator=st.just("Count"), count_predicate=COUNTS),
        st.builds(
            lambda kind, leaves: CompoundRetrievalQuery(kind(tuple(leaves))),
            st.sampled_from([ConditionAnd, ConditionOr]),
            st.lists(conditions, min_size=2, max_size=3),
        ),
    )
    return draw(st.lists(queries, min_size=3, max_size=8))


@st.composite
def cases(draw, max_frames: int = 200):
    dataset = draw(st.sampled_from([semantickitti_like, once_like]))
    n_frames = draw(st.integers(60, max_frames))
    sequence = dataset(draw(st.integers(0, 1)), n_frames=n_frames, with_points=False)
    workload = draw(workloads())
    return sequence, draw(configs()), workload


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------
def filters_of(workload) -> list[ObjectFilter]:
    found: dict[ObjectFilter, None] = {}
    for query in workload:
        if isinstance(query, CompoundRetrievalQuery):
            found.update(dict.fromkeys(c.object_filter for c in query.leaf_conditions()))
        else:
            found[query.object_filter] = None
    return list(found)


def assert_same_answer(got, want, what) -> None:
    if want[0] == "frames":
        assert np.array_equal(got.frame_ids, want[1]), what
        return
    assert got.value == want[1], what
    assert got.counts is None or np.array_equal(got.counts, want[2]), what


def assert_same_fit(pipeline, fitted, workload, billed, what) -> None:
    """Sampled ids, per-frame counts of every filter and the bill."""
    assert pipeline.sampling_result.sampled_ids.tolist() == fitted.sampler.sampled, what
    assert billed == fitted.sampler.billed, what
    providers = pipeline.providers
    for object_filter in filters_of(workload):
        assert np.array_equal(
            providers["linear"].count_series(object_filter),
            mast.linear_counts(fitted.sampler, object_filter),
        ), (what, "linear", object_filter)
        if "st" in providers:
            assert np.array_equal(
                providers["st"].count_series(object_filter),
                mast.st_counts(fitted.frames, object_filter),
            ), (what, "st", object_filter)


def spec_fit(sequence, config, *, frames=None):
    """The spec fitted on ``sequence``; ``frames`` (default: the sequence)
    is what the deep model reads, so a prefix can grow into it."""
    frames = sequence if frames is None else frames
    return mast.fit(sequence, lambda frame_id: MODEL.detect(frames[frame_id]).objects, config)


# ----------------------------------------------------------------------
# The four paths
# ----------------------------------------------------------------------
def check_pipeline(sequence, config, workload, fitted) -> None:
    pipeline = MASTPipeline(config).fit(sequence, MODEL)
    billed = pipeline.ledger.invocations(STAGE_MODEL)
    assert_same_fit(pipeline, fitted, workload, billed, "pipeline")
    want = [mast.answer(fitted, query) for query in workload]
    for ask in range(3):
        for query, expected in zip(workload, want):
            assert_same_answer(pipeline.query(query), expected, ("pipeline", ask, query))


def check_service(sequence, config, workload, chunks) -> None:
    """A service over a prefix, then after each batch of arriving frames."""
    cuts = [len(sequence) - sum(chunks[i:]) for i in range(len(chunks))] + [len(sequence)]
    prefix = sequence.head(cuts[0], name=sequence.name)
    pipeline = MASTPipeline(config).fit(prefix, MODEL)
    fitted = spec_fit(prefix, config, frames=sequence)
    service = QueryService(pipeline, max_cache_entries=3)
    for step, (lo, hi) in enumerate(zip(cuts, cuts[1:] + [None])):
        billed = pipeline.ledger.invocations(STAGE_MODEL)
        assert_same_fit(pipeline, fitted, workload, billed, ("service", step))
        want = [mast.answer(fitted, query) for query in workload]
        for how in ("batch", "serial", "batch"):
            got = service.execute_batch(workload) if how == "batch" else [service.execute(q) for q in workload]
            for query, one, expected in zip(workload, got, want):
                assert_same_answer(one, expected, ("service", step, how, query))
        if hi is None:
            break
        service.extend(list(sequence[lo:hi]))
        fitted = mast.grow(fitted, sequence.head(hi, name=sequence.name))


def check_corpus(sequence, config, workload, fitted, policy) -> None:
    catalog = SequenceCatalog()
    name = catalog.register_sequence(sequence)
    corpus = CorpusPipeline(catalog, config, policy=policy).fit(MODEL)
    billed = corpus.merged_ledger().invocations(STAGE_MODEL)
    assert_same_fit(corpus.shard(name), fitted, workload, billed, "corpus")
    service = CorpusQueryService(corpus)
    want = [mast.answer(fitted, query) for query in workload]
    scoped = [ScopedQuery(query, name) for query in workload]
    fanned = [ScopedQuery(query, None) for query in workload]
    for got in (service.execute_batch(scoped + fanned), [service.execute(q) for q in scoped + fanned]):
        for query, one, expected in zip(workload + workload, got, want + want):
            if hasattr(one, "by_sequence"):
                assert list(one.by_sequence) == [name]
                if expected[0] == "value":
                    assert one.value == expected[1], ("corpus", query)
                one = one.by_sequence[name]
            assert_same_answer(one, expected, ("corpus", query))


def check_stream(sequence, config, workload, fitted, policy, batch_frames, max_lag) -> None:
    model = CountingModel(MODEL)
    source = ScheduledFrameSource(
        [sequence],
        initial_frames=10,
        schedule=ArrivalSchedule(rate=10.0, batch_frames=batch_frames),
    )
    service = StreamingCorpusService(
        source, model, config, policy=policy, max_lag_frames=max_lag, replan_every=16
    )
    service.pump()
    service.quiesce()
    shard = service._corpus.shard(sequence.name)
    # The stream detects frames the final plan no longer samples, but
    # never one frame twice, and it bills exactly the frames it detected.
    billed = service.cost_ledger().invocations(STAGE_MODEL)
    assert max(model.asked.values()) == 1
    assert billed == len(model.asked)
    assert set(fitted.sampler.sampled) <= set(model.asked)
    assert_same_fit(shard, fitted, workload, fitted.sampler.billed, "stream")
    want = [mast.answer(fitted, query) for query in workload]
    answers = service.execute_batch([ScopedQuery(q, sequence.name) for q in workload])
    for query, one, expected in zip(workload, answers, want):
        assert one.max_staleness == 0
        assert_same_answer(one.result, expected, ("stream", query))


SAMPLED_METHODS = [name for name in available_methods() if not get_method(name).is_oracle]


def check_method(sequence, config, workload, name) -> None:
    """One §7.1 method as the experiment harness runs it, against the spec's."""
    executor = MethodExecutor(get_method(name), sequence, MODEL, config)
    fitted = mast.fit_method(name, sequence, lambda frame_id: MODEL.detect(sequence[frame_id]).objects, config)
    assert executor.sampling.sampled_ids.tolist() == fitted.sampler.sampled, name
    assert executor.ledger.invocations(STAGE_MODEL) == fitted.sampler.billed, name
    for query in workload:
        assert_same_answer(executor.execute(query), mast.answer(fitted, query), (name, query))


def check_all(case, data) -> None:
    sequence, config, workload = case
    fitted = spec_fit(sequence, config)
    check_pipeline(sequence, config, workload, fitted)
    chunks = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=3), label="chunks")
    chunks = chunks if sum(chunks) <= len(sequence) - 10 else [len(sequence) // 3]
    check_service(sequence, config, workload, chunks)
    policy = data.draw(st.sampled_from(["uniform", "ucb"]), label="policy")
    check_corpus(sequence, config, workload, fitted, policy)
    check_stream(
        sequence, config, workload, fitted, policy,
        batch_frames=data.draw(st.integers(1, 12), label="batch_frames"),
        max_lag=data.draw(st.sampled_from([0, 3]), label="max_lag"),
    )


@given(cases(), st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_path_equals_the_spec(case, data):
    check_all(case, data)


@pytest.mark.stress
@given(cases(max_frames=1000), st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_path_equals_the_spec_at_length(case, data):
    check_all(case, data)


def test_the_spec_names_every_sampled_method():
    assert sorted(SAMPLED_METHODS) == sorted(mast.METHODS)


@pytest.mark.parametrize("name", SAMPLED_METHODS)
@given(case=cases())
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_method_equals_its_spec(name, case):
    check_method(*case, name)


def test_a_city_world_equals_the_spec():
    """A 300 m city world: hundreds of boxes a label, so Alg. 1's matrices
    take the assignment's wide scan and a misclassified tile moves a count."""
    sequence = city_like(0, n_frames=60, with_points=False)
    config = MASTConfig(budget_fraction=0.15, branching=3, seed=1)
    region = ObjectFilter("Car", RegionPredicate(-40.0, -40.0, 40.0, 40.0), confidence=0.3)
    workload = [
        RetrievalQuery(region, CountPredicate(">=", 12.0)),
        AggregateQuery(ObjectFilter("Pedestrian", SpatialPredicate("<=", 60.0)), "Avg"),
        AggregateQuery(region, "Med"),
        AggregateQuery(ObjectFilter("Car", SectorPredicate(30.0, 290.0)), "Max"),  # reflex
    ]
    fitted = spec_fit(sequence, config)
    check_pipeline(sequence, config, workload, fitted)
    check_stream(sequence, config, workload, fitted, "uniform", batch_frames=10, max_lag=3)
