"""End-to-end MAST pipeline facade.

``MASTPipeline`` wires the paper's Fig. 2 architecture together: the
sampling module (Alg. 2), the deep model, the indexing module (Alg. 3),
and the query-processing module with the paper's per-operator predictor
assignment (§7.1: ST-based prediction for retrieval / Count / Med,
linear prediction for Avg).  Queries are answered by
:meth:`~repro.query.engine.SeriesState.answer`, the one answer path
:class:`~repro.serving.QueryService` and
:class:`~repro.query.engine.QueryEngine` share, over a cache of this
index epoch's series.

Typical use::

    from repro import MASTPipeline, MASTConfig
    from repro.models import pv_rcnn
    from repro.simulation import semantickitti_like

    sequence = semantickitti_like(0, length_scale=0.1)
    pipeline = MASTPipeline(MASTConfig(budget_fraction=0.10))
    pipeline.fit(sequence, pv_rcnn())
    result = pipeline.query("SELECT FRAMES WHERE COUNT(Car DIST <= 10) >= 3")
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import MASTConfig
from repro.core.index import LinearCountProvider, MASTIndex
from repro.core.sampler import (
    NOTHING_INSTALLED,
    AdaptiveSamplingSession,
    HierarchicalMultiAgentSampler,
    SamplingResult,
)
from repro.data.frame import PointCloudFrame
from repro.data.sequence import FrameSequence
from repro.inference import DetectionStore, InferenceEngine
from repro.models.base import DetectionModel
from repro.query.ast import (
    AggregateQuery,
    AggregateResult,
    CompoundRetrievalQuery,
    RetrievalQuery,
    RetrievalResult,
)
from repro.query.engine import CountProvider, SeriesState, base_kind
from repro.query.parser import parse_query
from repro.serving.batching import Query, plan_batch
from repro.serving.cache import CountSeriesCache
from repro.utils.timing import CostLedger
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.corpus.allocator import BudgetAllocator

__all__ = ["MASTPipeline", "predictor_kind", "router"]


def predictor_kind(config: MASTConfig, query) -> str:
    """The provider kind (§7.1 assignment) answering ``query``.

    Returns ``"st"`` (motion-predicted index), ``"linear"`` (continuous
    interpolation, used for aggregates), or ``"linear_floor"`` (floored
    interpolation, used for retrieval when ``retrieval_predictor`` is
    linear).  An aggregate operator the assignment does not name follows
    ``retrieval_predictor``.  Every answer path routes through it
    (:func:`router`), so all of them answer through the same provider.
    """
    if isinstance(query, (RetrievalQuery, CompoundRetrievalQuery)):
        if config.retrieval_predictor == "linear":
            return "linear_floor"
        return "st"
    if isinstance(query, AggregateQuery):
        return config.predictor_by_operator.get(
            query.operator, config.retrieval_predictor
        )
    raise TypeError(f"unsupported query type {type(query).__name__}")


def router(config: MASTConfig) -> Callable[[Query], str]:
    """:func:`predictor_kind` under ``config``, memoized on the query's shape.

    A route is a function of the query's class and aggregate operator
    only: a handful of entries whatever the traffic, never one per query
    text.
    """
    kinds: dict[type | str, str] = {}

    def route(query: Query) -> str:
        shape = query.operator if isinstance(query, AggregateQuery) else type(query)
        kind = kinds.get(shape)
        if kind is None:
            kind = kinds[shape] = predictor_kind(config, query)
        return kind

    return route


def _unchanged_prefix(old: SamplingResult | None, new: SamplingResult) -> int | None:
    """The last frame whose counts installing ``new`` over ``old`` leaves unchanged.

    Counts at frame ``t`` depend only on the detections at the samples
    bracketing ``t`` (past the last sample, on the last two).  If every
    old sample is still sampled with the very same detection object, that
    is the last old sample before the earliest new one (the last old
    frame when nothing was added); otherwise -1.  ``None`` with no ``old``.
    """
    if old is None:
        return None
    old_ids, new_ids = old.sampled_ids, new.sampled_ids
    # Equal ids (a flush that adds no sample) need no membership test.
    same = np.array_equal(old_ids, new_ids)
    if not (same or np.isin(old_ids, new_ids, assume_unique=True).all()) or any(
        new.detections[i] is not old.detections[i] for i in old_ids.tolist()
    ):
        return -1
    if same:
        return min(old.n_frames, new.n_frames) - 1
    # Both lists are sorted, so the earliest new sample is where they first differ.
    differ = np.flatnonzero(new_ids[: len(old_ids)] != old_ids)
    first = int(differ[0]) if len(differ) else len(old_ids)
    return int(old_ids[first - 1]) if first else -1


def _routes_to_st(config: MASTConfig) -> bool:
    """Whether :func:`predictor_kind` can answer any query with ``"st"``."""
    return (
        config.retrieval_predictor == "st"
        or "st" in config.predictor_by_operator.values()
    )


class MASTPipeline:
    """Sampling + indexing + query processing in one object."""

    def __init__(
        self,
        config: MASTConfig | None = None,
        *,
        engine: InferenceEngine | None = None,
        detection_store: DetectionStore | None = None,
    ) -> None:
        self.config = config or MASTConfig()
        self.ledger = CostLedger()
        self.engine = engine or InferenceEngine(store=detection_store)
        self._sequence: FrameSequence | None = None
        self._model: DetectionModel | None = None
        self._sampling: SamplingResult | None = None
        #: The sampling session that produced ``_sampling`` and that
        #: :meth:`extend` grows (``None`` for an external sampling run).
        self._session: AdaptiveSamplingSession | None = None
        self._index: MASTIndex | None = None
        #: The current index epoch's providers and the cache of their
        #: series (a fresh cache per install).
        self._state: SeriesState | None = None
        self._route = (self.config, router(self.config))
        #: Highest frame id whose count series the most recent install
        #: (:meth:`fit_from_sampling`, which :meth:`extend` ends in) left
        #: provably unchanged: -1 when nothing was, ``None`` on the first.
        #: Serving caches keep the prefix ``[0, boundary]`` of each series.
        self.last_extend_boundary: int | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, sequence: FrameSequence, model: DetectionModel) -> MASTPipeline:
        """Run the sampling and indexing procedures on ``sequence``."""
        session = HierarchicalMultiAgentSampler(self.config).session(
            sequence, model, engine=self.engine, ledger=self.ledger
        )
        session.step(session.remaining)
        return self.fit_from_sampling(sequence, model, session.result(), session=session)

    def fit_from_sampling(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        sampling: SamplingResult,
        *,
        session: AdaptiveSamplingSession | None = None,
    ) -> MASTPipeline:
        """Install an externally produced sampling run and build the index.

        The corpus layer samples through shared
        :class:`~repro.core.sampler.AdaptiveSamplingSession` objects (so
        a root allocator can move budget between sequences) and then
        adopts each session's result here; everything downstream —
        index, providers, ``query()`` — is identical to a
        :meth:`fit` that produced the same ``sampling``.  ``session`` is
        the live session ``sampling`` is a result of; only a pipeline
        that holds one can :meth:`extend`.  Every install ends here and
        sets :attr:`last_extend_boundary`.
        """
        require(
            sampling.n_frames == len(sequence),
            f"sampling covers {sampling.n_frames} frames but sequence "
            f"{sequence.name!r} has {len(sequence)}",
        )
        self.last_extend_boundary = _unchanged_prefix(self._sampling, sampling)
        self._sequence = sequence
        self._model = model
        self._sampling = sampling
        self._session = session
        self._rebuild_index()
        return self

    def extend(
        self,
        new_frames: list[PointCloudFrame],
        *,
        extended: FrameSequence | None = None,
        allocator: BudgetAllocator | None = None,
    ) -> MASTPipeline:
        """Ingest a new batch of frames (periodic arrival, Problem 1).

        The live sampling session grows over the new frames
        (:meth:`~repro.core.sampler.AdaptiveSamplingSession.grow`): the
        uniform-stride points that land in them are detected, nothing
        already sampled moves, and frames past the last sample are
        extrapolated by the index.  Query results afterwards cover the
        extended sequence.

        ``allocator`` is the root allocator that owns the session (a
        corpus's): the session takes its cap and the adaptive budget the
        frames accrued is left for that allocator's next run.  Without
        one the pipeline spends its own accrual here, as
        :class:`~repro.corpus.UniformAllocator` would for one session.
        The frames are detected with the model the pipeline was fit
        with.  If the detector raises, the session and the index stay as
        they were; each frame it paid for is kept.

        ``extended`` is the grown sequence when the caller has already
        built it (the corpus layer builds it once, and its catalog
        installs this very sequence after the shard); it must be this
        pipeline's sequence followed by ``new_frames``.
        """
        sequence = self.sequence  # raises before fit()
        session = self._session
        require(
            session is not None,
            "extend() grows the sampling session of fit(); this pipeline "
            "installed a sampling run without one",
        )
        assert session is not None
        if extended is None:
            extended = sequence.extended(new_frames)
        require(
            extended.name == sequence.name
            and len(extended) == len(sequence) + len(new_frames),
            f"extended sequence {extended.name!r} ({len(extended)} frames) is "
            f"not {sequence.name!r} ({len(sequence)} frames) plus {len(new_frames)}",
        )
        if allocator is not None:
            session.grow(extended, budget=allocator.session_budget(len(extended)))
        else:
            with session.atomic():
                session.grow(extended)
                session.step(max(0, session.base_budget - session.frames_sampled))
        return self.fit_from_sampling(extended, self.model, session.result(), session=session)

    @property
    def session(self) -> AdaptiveSamplingSession | None:
        """The live sampling session :meth:`extend` grows, if any."""
        return self._session

    def _rebuild_index(self) -> None:
        assert self._sampling is not None
        providers: dict[str, CountProvider] = {"linear": LinearCountProvider(self._sampling)}
        # The ST index exists only where the assignment can route a
        # query to it: an all-linear method charges no indexing seconds.
        index: MASTIndex | None = None
        if _routes_to_st(self.config):
            # The prior index always goes along, so every gap whose
            # detections did not change keeps its estimate and predicted
            # rows — and so that, if it had built its tiles, the new
            # index is built with tiles.
            index = MASTIndex.build(
                self._sampling, self.config, ledger=self.ledger, previous=self._index
            )
            providers["st"] = index
        self._index = index
        # The live session reads the estimates the index just made
        # instead of analysing a gap again when it splits one.
        if self._session is not None:
            self._session.installed = index.analysed if index is not None else NOTHING_INSTALLED
        # A fresh cache: no series resolved on the old index outlives it.
        self._state = SeriesState(CountSeriesCache(), 0, self._sampling.n_frames, providers)

    @property
    def providers(self) -> dict[str, CountProvider]:
        """Provider kind -> count provider for the current index.

        ``"linear"`` always; ``"st"`` when the assignment routes to it.
        """
        require(self._state is not None, "fit() has not been called")
        assert self._state is not None
        return dict(self._state.providers)

    @property
    def route(self) -> Callable[[Query], str]:
        """:func:`router` of the current :attr:`config`.

        Rebuilt when the config is replaced (:meth:`calibrate_predictors`
        does), so every answer path routes the way the pipeline now would.
        """
        config, route = self._route
        if config is not self.config:
            route = router(self.config)
            self._route = (self.config, route)
        return route

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self, query) -> RetrievalResult | AggregateResult:
        """Answer one query (object or query-language text).

        The predictor is chosen per the paper's §7.1 assignment
        (configurable via :class:`MASTConfig`); the answer comes from
        :meth:`~repro.query.engine.SeriesState.answer` over this index
        epoch's cache, so a repeated single-filter query returns the
        memoized, read-only answer, as :class:`~repro.serving.QueryService`
        does.
        """
        state = self._state
        require(state is not None, "fit() must be called before query()")
        assert state is not None
        return state.answer(plan_batch([query], self.route, warm=False), self.ledger)[0]

    def query_many(self, queries) -> list[RetrievalResult | AggregateResult]:
        """Answer a list of queries in order."""
        return [self.query(q) for q in queries]

    def query_with_interval(
        self, query, *, lipschitz: float | None = None, safety: float = 1.5
    ):
        """Answer an aggregate query with its Thm 6.1 error band (§6.2).

        Supported for the Avg / Med / Count operators.  Returns
        ``(AggregateResult, ConfidenceInterval)``.  ``lipschitz`` is the
        empirical Lipschitz constant of the query's count signal; when
        omitted it is estimated from the sampled frames and widened by
        ``safety``.
        """
        from repro.evalx.intervals import aggregate_interval

        if isinstance(query, str):
            query = parse_query(query)
        if not isinstance(query, AggregateQuery):
            raise TypeError("query_with_interval only supports aggregate queries")
        result = self.query(query)
        interval = aggregate_interval(
            self.sampling_result, query, result.value,
            lipschitz=lipschitz, safety=safety,
        )
        return result, interval

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate_predictors(self, object_filters=None, *, max_holdouts: int = 200):
        """Calibrate the predictor assignment from this run's samples.

        Runs leave-one-out validation on the sampled frames
        (:func:`repro.core.autopredict.calibrate_predictors`), installs
        the recommended assignment into this pipeline's config, and
        returns the calibration record.  No deep-model budget is spent.
        """
        from repro.core.autopredict import calibrate_predictors

        require(self._sampling is not None, "fit() must be called first")
        if object_filters is None:
            from repro.query.workload import generate_workload

            object_filters = generate_workload(rng=self.config.seed).object_filters()
        calibration = calibrate_predictors(
            self.sampling_result,
            list(object_filters),
            config=self.config,
            max_holdouts=max_holdouts,
        )
        self.config = calibration.apply_to(self.config)
        if self._index is None and _routes_to_st(self.config):
            self._rebuild_index()
        return calibration

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(self, query) -> str:
        """Describe how a query would be answered (without running it).

        Reports the parsed form, the predictor assignment (§7.1), the
        estimated per-query cost from the provider's simulated constants,
        and whether this index epoch's cache already holds each
        referenced count series.
        """
        state = self._state
        require(state is not None, "fit() must be called before explain()")
        assert state is not None
        if isinstance(query, str):
            query = parse_query(query)
        kind = predictor_kind(self.config, query)
        provider = state.providers[base_kind(kind)]
        predictor = {
            "st": "st (motion-predicted index)",
            "linear_floor": "linear (floored interpolation)",
            "linear": "linear (interpolation)",
        }[kind]
        estimated = provider.simulated_query_cost_per_frame * provider.n_frames

        if isinstance(query, CompoundRetrievalQuery):
            object_filters = [c.object_filter for c in query.leaf_conditions()]
        else:
            object_filters = [query.object_filter]
        lines = [
            f"query     : {query.describe()}",
            f"kind      : {type(query).__name__}",
            f"predictor : {predictor}",
            f"frames    : {provider.n_frames}",
            f"est. cost : {estimated:.4f} s (simulated)",
        ]
        for object_filter in object_filters:
            cached = (base_kind(kind), object_filter) in state.cache
            lines.append(
                f"filter    : {object_filter.describe()} "
                f"[count series {'cached' if cached else 'not cached'}]"
            )
        if self._index is None:
            lines.append("index     : not built (no query routes to \"st\")")
            return "\n".join(lines)
        lines.append(
            f"index     : {len(self._index.sampled_ids)} sampled frames, "
            f"{self._index.n_indexed_objects} indexed objects"
        )
        spatial = self._index.spatial_index
        if spatial is not None:
            lines.append(
                f"spatial   : {spatial.n_leaves} leaf tiles over "
                f"{spatial.n_rows} rows (version {spatial.version})"
            )
        else:
            lines.append("spatial   : not built (no region query yet)")
        return "\n".join(lines)

    @property
    def sampling_result(self) -> SamplingResult:
        require(self._sampling is not None, "fit() has not been called")
        assert self._sampling is not None
        return self._sampling

    @property
    def sequence(self) -> FrameSequence:
        require(self._sequence is not None, "fit() has not been called")
        assert self._sequence is not None
        return self._sequence

    @property
    def model(self) -> DetectionModel:
        require(self._model is not None, "fit() has not been called")
        assert self._model is not None
        return self._model

    @property
    def index(self) -> MASTIndex:
        require(self._sampling is not None, "fit() has not been called")
        require(
            self._index is not None,
            "no ST index: this config routes every query to the linear predictor",
        )
        assert self._index is not None
        return self._index

    def cost_summary(self) -> dict[str, float]:
        """Stage -> seconds (simulated + measured) so far."""
        return self.ledger.summary()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """No-op (the pipeline owns nothing to release); idempotent."""

    def __enter__(self) -> MASTPipeline:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
