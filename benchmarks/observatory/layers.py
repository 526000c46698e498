"""Which callables each layer is traced at, and the per-layer metrics.

Targets are dotted strings resolved when the tracer installs, so a layer
a later PR deletes (ROADMAP items 1, 3 and 4 plan to) turns its metrics
into ``null`` with a reason rather than failing the run.

Three sources feed the per-layer metrics of ``BENCHMARK.json``:

* span aggregates of the traced pass (:data:`SPAN_METRICS`);
* counters the wrappers collect at the same boundaries (counts derived
  from return values, e.g. sampler steps or checkpoint bytes);
* public stats surfaces the workloads read themselves
  (``cache_stats()``, ``spatial_stats()``, ``cost_summary()`` …) and
  hand over by metric name.
"""

from __future__ import annotations

from collections.abc import Callable

from .trace import Target, TraceSummary

__all__ = ["SPAN_METRICS", "TARGETS", "layer_metrics"]


def _checkpoint_bytes(result: object, args: tuple, kwargs: dict) -> int:
    store = args[0]
    key = args[1] if len(args) > 1 else kwargs["key"]
    return int(store.path(key).stat().st_size)


TARGETS: tuple[Target, ...] = (
    # --- sampling-side geometry -------------------------------------
    Target("geometry.matching", "repro.geometry.matching:hungarian"),
    Target("geometry.matching", "repro.geometry.matching:match_with_threshold"),
    Target("core.stpc", "repro.core.stpc:match_by_label"),
    Target("core.stpc", "repro.core.stpc:analyze_pair"),
    Target("core.stpc", "repro.core.stpc:MotionEstimate.predict_flat"),
    Target("core.stpc", "repro.core.stpc:MotionEstimate.predict"),
    Target("core.reward", "repro.core.reward:st_reward"),
    Target("core.reward", "repro.core.reward:count_deviation_reward"),
    # --- sampler / inference ----------------------------------------
    Target("core.sampler", "repro.core.sampler:HierarchicalMultiAgentSampler.sample"),
    Target("core.sampler", "repro.core.sampler:HierarchicalMultiAgentSampler.session"),
    Target("core.sampler", "repro.core.sampler:AdaptiveSamplingSession.__init__"),
    Target(
        "core.sampler", "repro.core.sampler:AdaptiveSamplingSession.step",
        counter="core.sampler.steps", count=lambda result, a, k: len(result),
    ),
    Target("core.sampler", "repro.core.sampler:AdaptiveSamplingSession.result"),
    Target("inference.engine", "repro.inference.engine:InferenceEngine.detect_wave"),
    Target("inference.engine", "repro.inference.engine:InferenceEngine.detect_one"),
    Target(
        "inference.store", "repro.inference.store:DetectionStore.lookup",
        counter="inference.store.hits",
        count=lambda result, a, k: 0 if result is None else 1,
    ),
    Target("inference.store", "repro.inference.store:DetectionStore.put"),
    Target("models", "repro.models.base:DetectionModel.detect", subclasses=True),
    Target("models", "repro.models.base:DetectionModel.detect_many", subclasses=True),
    # --- index / spatial ---------------------------------------------
    Target("core.pipeline", "repro.core.pipeline:MASTPipeline.fit"),
    Target("core.pipeline", "repro.core.pipeline:MASTPipeline.fit_from_sampling"),
    Target("core.pipeline", "repro.core.pipeline:MASTPipeline.extend"),
    Target("core.pipeline", "repro.core.pipeline:MASTPipeline.query"),
    Target(
        "core.index.build", "repro.core.index:MASTIndex.build",
        counter="core.index.rows",
        count=lambda result, a, k: result.n_indexed_objects,
    ),
    Target("core.index.count_series", "repro.core.index:MASTIndex.count_series"),
    Target("core.index.count_series", "repro.core.index:MASTIndex.count_series_many"),
    Target("core.index.count_series", "repro.core.index:MASTIndex.count_series_tail"),
    Target("core.index.count_series", "repro.core.index:LinearCountProvider.count_series"),
    Target(
        "core.index.count_series", "repro.core.index:LinearCountProvider.count_series_many"
    ),
    Target(
        "core.index.count_series", "repro.core.index:LinearCountProvider.count_series_tail"
    ),
    Target(
        "spatial.build", "repro.spatial.index:SpatialTileIndex.__init__",
        counter="spatial.n_leaves", count=lambda result, a, k: a[0].n_leaves,
    ),
    Target("spatial.update", "repro.spatial.index:SpatialTileIndex.updated"),
    Target("spatial.walk", "repro.spatial.index:SpatialTileIndex.count_series"),
    # --- query --------------------------------------------------------
    Target("query.parser", "repro.query.parser:parse_query"),
    Target("query.parser", "repro.query.parser:parse_scoped_query"),
    Target("query.engine", "repro.query.engine:evaluate_query"),
    Target("query.engine", "repro.query.engine:condition_mask"),
    Target("query.engine", "repro.query.engine:QueryEngine.execute"),
    Target("core.autopredict", "repro.core.pipeline:predictor_kind"),
    Target("core.autopredict", "repro.core.autopredict:calibrate_predictors"),
    # --- serving ------------------------------------------------------
    Target("serving.cache", "repro.serving.cache:CountSeriesCache.lookup"),
    Target("serving.cache", "repro.serving.cache:CountSeriesCache.put"),
    Target("serving.cache", "repro.serving.cache:CountSeriesCache.invalidate_tail"),
    Target("serving.cache", "repro.serving.cache:CountSeriesCache.bump"),
    Target("serving.service", "repro.serving.batching:plan_batch"),
    Target("serving.service", "repro.serving.service:QueryService.execute"),
    Target("serving.service", "repro.serving.service:QueryService.execute_many"),
    Target("serving.service", "repro.serving.service:QueryService.execute_batch"),
    Target("serving.service", "repro.serving.service:QueryService.extend"),
    Target("serving.service", "repro.serving.service:QueryService.adopt"),
    Target("corpus.service", "repro.corpus.service:CorpusQueryService.execute"),
    Target("corpus.service", "repro.corpus.service:CorpusQueryService.execute_many"),
    Target("corpus.service", "repro.corpus.service:CorpusQueryService.execute_batch"),
    Target("corpus.service", "repro.corpus.service:CorpusQueryService.extend"),
    Target("corpus.service", "repro.corpus.service:CorpusQueryService.replan"),
    Target("corpus.service", "repro.corpus.results:merge_aggregates"),
    Target("corpus.service", "repro.corpus.results:merge_retrievals"),
    # --- corpus fit ----------------------------------------------------
    Target("corpus.pipeline", "repro.corpus.pipeline:CorpusPipeline.fit"),
    Target("corpus.pipeline", "repro.corpus.pipeline:CorpusPipeline.plan"),
    Target("corpus.pipeline", "repro.corpus.pipeline:CorpusPipeline.replan"),
    Target("corpus.pipeline", "repro.corpus.pipeline:CorpusPipeline.query"),
    Target(
        "corpus.allocator", "repro.corpus.allocator:BudgetAllocator.run",
        subclasses=True, counter="corpus.allocator.rounds",
        count=lambda result, a, k: result.rounds,
    ),
    # --- streaming -----------------------------------------------------
    Target("streaming.service", "repro.streaming.service:StreamingCorpusService.pump"),
    Target("streaming.service", "repro.streaming.service:StreamingCorpusService.quiesce"),
    Target("streaming.service", "repro.streaming.service:StreamingCorpusService.execute"),
    Target(
        "streaming.service",
        "repro.streaming.service:StreamingCorpusService.execute_batch",
    ),
    Target(
        "streaming.source", "repro.streaming.source:ScheduledFrameSource.next_event",
        counter="streaming.source.events",
        count=lambda result, a, k: 0 if result is None else 1,
    ),
    # --- flow / evalx / baselines --------------------------------------
    Target("flow.runner", "repro.flow.runner:FlowRunner.run"),
    Target(
        "flow.checkpoint.save", "repro.flow.checkpoint:CheckpointStore.save",
        counter="flow.checkpoint.bytes", count=_checkpoint_bytes,
    ),
    Target("flow.checkpoint.load", "repro.flow.checkpoint:CheckpointStore.load"),
    Target("flow.fingerprint", "repro.flow.fingerprint:stable_digest"),
    Target("evalx.oracle", "repro.evalx.runner:oracle_truth"),
    Target("evalx.report", "repro.evalx.runner:evaluate_method"),
    Target("evalx.report", "repro.evalx.runner:MethodExecutor.execute"),
    Target("baselines", "repro.baselines.seiden:SeidenPCSampler.sample"),
    Target("baselines", "repro.baselines.simple:UniformSampler.sample"),
    Target("baselines", "repro.baselines.simple:RandomSampler.sample"),
    Target("baselines", "repro.baselines.oracle:OracleCountProvider.__init__"),
    Target("baselines", "repro.baselines.oracle:OracleCountProvider.count_series"),
)


def _busy(layer: str) -> Callable[[TraceSummary], float]:
    return lambda summary: summary.layer(layer).busy_s


def _self(layer: str) -> Callable[[TraceSummary], float]:
    return lambda summary: summary.layer(layer).self_s


def _calls(layer: str) -> Callable[[TraceSummary], float]:
    return lambda summary: float(summary.layer(layer).calls)


def _label_busy(label: str) -> Callable[[TraceSummary], float]:
    return lambda summary: summary.name(label).busy_s


def _mean_call_ms(layer: str) -> Callable[[TraceSummary], float]:
    def compute(summary: TraceSummary) -> float:
        stats = summary.layer(layer)
        return 1e3 * stats.busy_s / stats.calls if stats.calls else 0.0

    return compute


def _counter(name: str) -> Callable[[TraceSummary], float]:
    return lambda summary: float(summary.counters.get(name, 0))


def _store_hit_rate(summary: TraceSummary) -> float:
    lookups = summary.name("DetectionStore.lookup").calls
    return summary.counters.get("inference.store.hits", 0) / lookups if lookups else 0.0


#: metric -> (layer that must be wrapped for the number to mean anything,
#: how to compute it from the traced pass).  A layer with no wrapped
#: callable yields ``null``.  Zero is a measurement: the layer exists
#: and this workload did not run it.
SPAN_METRICS: dict[str, tuple[str, Callable[[TraceSummary], float]]] = {
    "geometry.matching.busy_s": ("geometry.matching", _busy("geometry.matching")),
    "geometry.matching.calls": ("geometry.matching", _calls("geometry.matching")),
    "geometry.matching.mean_call_ms": (
        "geometry.matching", _mean_call_ms("geometry.matching"),
    ),
    "core.stpc.busy_s": ("core.stpc", _busy("core.stpc")),
    "core.reward.busy_s": ("core.reward", _busy("core.reward")),
    "core.sampler.self_s": ("core.sampler", _self("core.sampler")),
    "core.sampler.steps": ("core.sampler", _counter("core.sampler.steps")),
    "core.pipeline.self_s": ("core.pipeline", _self("core.pipeline")),
    "inference.engine.busy_s": ("inference.engine", _busy("inference.engine")),
    "inference.engine.waves": (
        "inference.engine",
        lambda summary: float(summary.name("InferenceEngine.detect_wave").calls),
    ),
    "models.detect_s": ("models", _busy("models")),
    "inference.store.hit_rate": ("inference.store", _store_hit_rate),
    "inference.store.lookups": (
        "inference.store",
        lambda summary: float(summary.name("DetectionStore.lookup").calls),
    ),
    "core.index.build_s": ("core.index.build", _busy("core.index.build")),
    "core.index.rows": ("core.index.build", _counter("core.index.rows")),
    "spatial.build_s": ("spatial.build", _busy("spatial.build")),
    "spatial.update_s": ("spatial.update", _busy("spatial.update")),
    "spatial.n_leaves": ("spatial.build", _counter("spatial.n_leaves")),
    "query.parser.busy_s": ("query.parser", _busy("query.parser")),
    "query.parser.calls": ("query.parser", _calls("query.parser")),
    "core.index.count_series_s": (
        "core.index.count_series", _busy("core.index.count_series"),
    ),
    "spatial.walk_s": ("spatial.walk", _busy("spatial.walk")),
    "query.engine.self_s": ("query.engine", _self("query.engine")),
    "core.autopredict.busy_s": ("core.autopredict", _busy("core.autopredict")),
    "serving.cache.busy_s": ("serving.cache", _busy("serving.cache")),
    "serving.service.self_s": ("serving.service", _self("serving.service")),
    "corpus.service.self_s": ("corpus.service", _self("corpus.service")),
    "corpus.pipeline.self_s": ("corpus.pipeline", _self("corpus.pipeline")),
    "corpus.allocator.busy_s": ("corpus.allocator", _busy("corpus.allocator")),
    "corpus.allocator.rounds": ("corpus.allocator", _counter("corpus.allocator.rounds")),
    "streaming.service.flush_s": (
        "corpus.service", _label_busy("CorpusQueryService.extend"),
    ),
    "streaming.service.replan_s": (
        "corpus.service", _label_busy("CorpusQueryService.replan"),
    ),
    "streaming.service.quiesce_s": (
        "streaming.service", _label_busy("StreamingCorpusService.quiesce"),
    ),
    "streaming.source.events": ("streaming.source", _counter("streaming.source.events")),
    "flow.checkpoint.save_s": ("flow.checkpoint.save", _busy("flow.checkpoint.save")),
    "flow.checkpoint.load_s": ("flow.checkpoint.load", _busy("flow.checkpoint.load")),
    "flow.checkpoint.bytes": ("flow.checkpoint.save", _counter("flow.checkpoint.bytes")),
    "flow.fingerprint.busy_s": ("flow.fingerprint", _busy("flow.fingerprint")),
    "evalx.oracle_s": ("evalx.oracle", _busy("evalx.oracle")),
    "evalx.report_s": ("evalx.report", _self("evalx.report")),
    "baselines.busy_s": ("baselines", _busy("baselines")),
    "trace.untraced_share": ("bench", lambda summary: summary.untraced_share()),
    "trace.spans": ("bench", lambda summary: float(summary.spans)),
}


def layer_metrics(
    names: tuple[str, ...],
    summary: TraceSummary,
    surfaces: dict[str, float | None],
    reasons: dict[str, str],
) -> dict[str, float | None]:
    """Every per-layer metric of ``names``, ``None`` where unmeasurable.

    ``surfaces`` holds what the workload read from stats surfaces (a
    ``None`` there is a surface that no longer exists; ``reasons`` says
    why).  A surface metric the workload did not report reads 0: the
    layer was not exercised.
    """
    values: dict[str, float | None] = {}
    for name in names:
        if name in SPAN_METRICS:
            layer, compute = SPAN_METRICS[name]
            if layer not in summary.wrapped_layers:
                values[name] = None
                reasons.setdefault(
                    name, f"no callable of layer {layer!r} could be wrapped"
                )
            else:
                values[name] = compute(summary)
        else:
            values[name] = surfaces.get(name, 0.0)
    return values
