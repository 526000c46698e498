"""The four workloads.

Each workload splits into ``prepare`` (set-up: simulate the corpus,
generate the seeded inputs — timed as ``setup_s``) and ``measure`` (the
timed phases plus the correctness checks around them).  A traced run
prepares once and measures twice — first with a tracer that wraps
nothing, then with the installed one — so both passes run identical code
and their phase walls give the tracing overhead.

Every service is built through its default public construction path: no
backend, worker or cache knob is passed.  All load comes from this
process, closed loop, with fixed operation counts.
"""

from __future__ import annotations

import shutil
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import api, inputs
from .loadgen import WindowResult, client_count, run_window
from .probe import process_probe
from .results import Recorder, answers_equal
from .scoring import CorpusReference, corpus_reference, score_answers
from .stats import percentile
from .trace import Tracer

__all__ = ["Plan", "WORKLOADS", "Workload"]

DEEP_MODEL = "deep_model"  # the ledger stage the paper's currency is billed to


@dataclass(frozen=True)
class Plan:
    """How much of a workload one pass runs."""

    #: multiplies wave counts and repetitions (``--seconds / run_seconds``)
    scale: float = 1.0
    #: sizes / 4 and one repetition: a < 60 s plumbing check, never recorded
    smoke: bool = False
    #: one repetition of every timed phase (the traced run's two passes)
    single: bool = False
    #: run the process-tier probe after the serving windows, its workers
    #: allowed on these CPUs (the rest of the run is pinned to one)
    probe_cpus: frozenset[int] | None = None

    def reps(self, nominal: int) -> int:
        if self.smoke or self.single:
            return 1
        return max(1, round(nominal * self.scale))

    def waves(self, nominal: int) -> int:
        factor = self.scale * (0.25 if self.smoke else 1.0)
        return max(4, round(nominal * factor))

    def frames(self, nominal: int, floor: int = 16) -> int:
        return max(floor, nominal // 4) if self.smoke else nominal


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""

    def prepare(self, plan: Plan, seed: int, rec: Recorder, workdir: Path) -> object:
        raise NotImplementedError

    def measure(self, state: object, plan: Plan, rec: Recorder, tracer: Tracer) -> None:
        raise NotImplementedError


def _timed_setup(rec: Recorder, reps: int, build: Callable[[], object]) -> object:
    """Run ``build`` ``reps`` times; each wall is a ``setup_s`` sample."""
    built = None
    for _ in range(reps):
        start = time.perf_counter()
        built = build()
        rec.sample("setup_s", rec.seconds(start, time.perf_counter()))
    return built


def _record_quality(
    rec: Recorder, detector_s: float, scores: tuple[float, float] | None = None
) -> None:
    """Keep the paper-currency numbers; every repetition must agree exactly.

    ``scores`` is ``(agg_error, retrieval_f1)``; a repetition that was
    not scored again still has to bill the same detector seconds.
    """
    if "detector_s" not in rec.counters:
        assert scores is not None
        rec.counters.update(
            detector_s=detector_s, agg_error=scores[0], retrieval_f1=scores[1]
        )
        return
    known = rec.counters
    rec.check(
        detector_s == known["detector_s"]
        and scores in (None, (known["agg_error"], known["retrieval_f1"])),
        "detector_s / agg_error / retrieval_f1 differ between repetitions",
    )


def _sample_quality(rec: Recorder) -> None:
    """Report the (exactly repeating) paper-currency numbers as metrics."""
    for key in ("detector_s", "agg_error", "retrieval_f1"):
        rec.sample(key, rec.counters[key])


def _cache_delta(rec: Recorder, before: object, after: object) -> None:
    """Add one timed window's count-series cache activity."""
    for field_name in ("hits", "misses", "partial_hits", "evictions", "invalidations"):
        delta = getattr(after, field_name) - getattr(before, field_name)
        key = f"cache.{field_name}"
        rec.counters[key] = rec.counters.get(key, 0) + delta


def _finish_cache(rec: Recorder) -> None:
    counters = rec.counters
    lookups = sum(
        counters.get(f"cache.{k}", 0) for k in ("hits", "misses", "partial_hits")
    )
    rec.surface(
        "serving.cache.hit_rate",
        counters.get("cache.hits", 0) / lookups if lookups else 0.0,
    )
    rec.surface("serving.cache.evictions", counters.get("cache.evictions", 0))
    rec.surface("serving.cache.invalidations", counters.get("cache.invalidations", 0))


def _ledger_surfaces(rec: Recorder, summary: dict[str, float]) -> None:
    for stage, metric in (
        ("policy", "ledger.policy_s"),
        ("indexing", "ledger.indexing_s"),
        ("query", "ledger.query_s"),
    ):
        rec.surface(metric, summary.get(stage, 0.0))


_SPATIAL_COUNTERS = (
    "tiles_pruned", "tiles_contained", "tiles_boundary", "rows_scanned", "rows_total",
)


def _spatial_snapshot(corpus: api.CorpusPipeline) -> dict[str, float] | None:
    """Summed tile-index counters over the shards (None: no such surface)."""
    total = dict.fromkeys(_SPATIAL_COUNTERS, 0.0)
    for name in corpus.names:
        stats = corpus.shard(name).index.spatial_stats()
        if stats is None:
            continue
        for key in total:
            total[key] += stats[key]
    return total


def _spatial_surfaces(
    rec: Recorder, before: dict[str, float], after: dict[str, float]
) -> None:
    delta = {key: after[key] - before[key] for key in _SPATIAL_COUNTERS}
    tiles = delta["tiles_pruned"] + delta["tiles_contained"] + delta["tiles_boundary"]
    rec.surface(
        "spatial.tile_prune_rate", delta["tiles_pruned"] / tiles if tiles else 0.0
    )
    rec.surface(
        "spatial.row_scan_fraction",
        delta["rows_scanned"] / delta["rows_total"] if delta["rows_total"] else 0.0,
    )
    rec.counters["spatial.tiles_pruned"] = delta["tiles_pruned"]
    rec.counters["spatial.rows_scanned"] = delta["rows_scanned"]


# ----------------------------------------------------------------------
# drive_hot / city_miss: fit x n, then closed-loop serving windows
# ----------------------------------------------------------------------
@dataclass
class _ServingState:
    catalog: api.SequenceCatalog
    #: per window, per client, the waves to send
    windows: list[list[list[list[str]]]]
    #: per window, per client, untimed warm-up waves sent just before it
    warmups: list[list[list[list[str]]]]
    check_texts: list[str]
    _reference: CorpusReference | None = None

    def reference(self) -> CorpusReference:
        if self._reference is None:
            self._reference = corpus_reference(self.catalog)
        return self._reference


class _ServingWorkload(Workload):
    """Shared shape of ``drive_hot`` and ``city_miss``."""

    fits = 3
    windows = 3
    waves = 0  # per client per window
    wave_size = 0
    warm_waves = 0
    #: warm-up before the first window (the service has served nothing yet)
    first_warm_waves = 0
    setup_reps = 1
    #: requests the run must pool so >= 10 samples lie beyond p99
    min_requests = 1000

    def build_catalog(self, plan: Plan) -> api.SequenceCatalog:
        raise NotImplementedError

    def make_waves(
        self, names: tuple[str, ...], waves: int, rng: np.random.Generator, seen: set[str]
    ) -> list[list[str]]:
        raise NotImplementedError

    def check_texts(
        self, names: tuple[str, ...], rng: np.random.Generator, seen: set[str]
    ) -> list[str]:
        raise NotImplementedError

    def window_pass(self, names: tuple[str, ...]) -> list[str]:
        """Texts of the untimed single pass before each window (may be empty)."""
        return []

    # -- set-up ---------------------------------------------------------
    def prepare(self, plan: Plan, seed: int, rec: Recorder, workdir: Path) -> _ServingState:
        clients = client_count()
        n_windows = plan.reps(self.windows)
        waves = plan.waves(self.waves)

        def build() -> _ServingState:
            catalog = self.build_catalog(plan)
            names = catalog.names()
            seen: set[str] = set()
            windows, warmups = [], []
            for window in range(n_windows):
                # Per-window generators derived from --seed: the pick
                # sequence of window k is the same in every run of a seed.
                rng = np.random.default_rng([seed, window])
                warm_waves = plan.waves(
                    self.first_warm_waves if window == 0 else self.warm_waves
                )
                warmups.append(
                    [self.make_waves(names, warm_waves, rng, seen) for _ in range(clients)]
                )
                windows.append(
                    [self.make_waves(names, waves, rng, seen) for _ in range(clients)]
                )
            check = self.check_texts(names, np.random.default_rng([seed, 10_007]), seen)
            return _ServingState(catalog, windows, warmups, check)

        reps = 1 if plan.smoke else self.setup_reps
        state = _timed_setup(rec, reps, build)
        assert isinstance(state, _ServingState)
        return state

    # -- timed phases ---------------------------------------------------
    def measure(
        self, state: _ServingState, plan: Plan, rec: Recorder, tracer: Tracer
    ) -> None:
        catalog = state.catalog
        names = catalog.names()
        config, model = inputs.config(), inputs.model()
        reference = state.reference()
        total_frames = catalog.total_frames()
        n_fits = plan.reps(self.fits)
        n_windows = len(state.windows)
        serving: api.CorpusPipeline | None = None
        service: api.CorpusQueryService | None = None
        spatial_before: dict[str, float] | None = None
        sent = fanout = 0
        try:
            # Fits and windows alternate so each metric's samples spread
            # over the run instead of bunching where the box was fast.
            for round_index in range(max(n_fits, n_windows)):
                fit_s = None
                if round_index < n_fits:
                    corpus = api.CorpusPipeline(
                        catalog, config, policy="ucb",
                        detection_store=api.DetectionStore(),
                    )
                    with tracer.phase("fit"):
                        start = time.perf_counter()
                        corpus.fit(model)
                        fit_s = rec.seconds(start, time.perf_counter())
                    rec.op()
                    rec.sample("fit_wall_s", fit_s)
                    rec.sample("ingest_frames_per_s", total_frames / fit_s)
                    detector_s = corpus.cost_summary()[DEEP_MODEL]
                    if serving is None:
                        _record_quality(
                            rec, detector_s, score_answers(corpus.query, reference)
                        )
                        serving = corpus
                        service = api.CorpusQueryService(corpus)
                        self._check_identity(service, serving, state.check_texts, rec)
                        spatial_before = _spatial_snapshot(serving)
                    else:
                        _record_quality(rec, detector_s)
                        corpus.close()
                if round_index < n_windows:
                    assert service is not None and serving is not None
                    warm = state.warmups[round_index]
                    if warm and warm[0]:
                        run_window(service.execute_batch, warm, tracer, None)
                    once = self.window_pass(names)
                    if once:
                        service.execute_batch(once)
                    before = service.cache_stats()
                    result = run_window(
                        service.execute_batch, state.windows[round_index], tracer, "serve"
                    )
                    _cache_delta(rec, before, service.cache_stats())
                    window_s = self._record_window(
                        result, state.windows[round_index], serving, rec
                    )
                    # Stand-ins (README): a round built cold then served is
                    # this workload's sweep, the serving alone its resume.
                    rec.sample("resume_wall_s", window_s)
                    if fit_s is not None:
                        rec.sample("sweep_wall_s", fit_s + window_s)
                    for client_waves in state.windows[round_index]:
                        for wave in client_waves:
                            sent += len(wave)
                            fanout += sum(" IN SEQUENCE " not in text for text in wave)
            assert service is not None and serving is not None
            _finish_cache(rec)
            if spatial_before is not None:
                _spatial_surfaces(rec, spatial_before, _spatial_snapshot(serving))
            _ledger_surfaces(rec, service.cost_summary())
            rec.surface("corpus.service.fanout_share", fanout / sent if sent else 0.0)
            if not (plan.smoke or plan.single or plan.scale < 1.0):
                rec.check(
                    rec.n_requests >= self.min_requests,
                    f"only {rec.n_requests} requests pooled; p99 needs "
                    f">= {self.min_requests}",
                )
            if plan.probe_cpus:
                process_probe(
                    serving, state.windows[0], state.check_texts[:8], rec,
                    plan.probe_cpus,
                )
        finally:
            if service is not None:
                service.close()
            if serving is not None:
                serving.close()
        _sample_quality(rec)

    def _check_identity(
        self,
        service: api.CorpusQueryService,
        corpus: api.CorpusPipeline,
        texts: list[str],
        rec: Recorder,
    ) -> None:
        """Served answers must be bit-identical to serial ``corpus.query``."""
        served = service.execute_batch(texts)
        for text, got in zip(texts, served):
            rec.check(answers_equal(got, corpus.query(text)), f"served != serial: {text}")

    def _record_window(
        self,
        result: WindowResult,
        waves_by_client: list[list[list[str]]],
        corpus: api.CorpusPipeline,
        rec: Recorder,
    ) -> float:
        """Record one timed window; returns its reference-speed seconds."""
        for _ in result.latencies:
            rec.op()
        for error in result.errors:
            rec.op(False, f"request raised: {error}")
        window_s = rec.seconds(result.start, result.end)
        rec.sample("queries_per_s", result.queries / window_s)
        rec.requests(result.latencies, result.start, result.end)
        # The first wave of each client, re-asked serially after the window.
        for client_waves, answers in zip(waves_by_client, result.first_answers):
            if answers is None:
                continue
            for text, got in zip(client_waves[0], answers):
                rec.check(
                    answers_equal(got, corpus.query(text)),
                    f"in-window answer != serial: {text}",
                )
        return window_s


class DriveHot(_ServingWorkload):
    """Paper-length drive corpus, Zipf pool: the all-hit request path."""

    name = "drive_hot"
    frames = (4541, 4661, 2741)
    fits = 5
    windows = 6
    waves = 250
    wave_size = 16
    first_warm_waves = 30
    warm_waves = 30
    setup_reps = 2
    pool_size = 24

    def build_catalog(self, plan: Plan) -> api.SequenceCatalog:
        frames = tuple(plan.frames(n, floor=64) for n in self.frames)
        return inputs.drive_catalog(frames)  # type: ignore[arg-type]

    def make_waves(self, names, waves, rng, seen):
        pool = inputs.mixed_pool(names, self.pool_size)
        return inputs.zipf_waves(pool, waves=waves, wave_size=self.wave_size, rng=rng)

    def check_texts(self, names, rng, seen):
        return inputs.mixed_pool(names, self.pool_size)

    def window_pass(self, names):
        return inputs.mixed_pool(names, self.pool_size)


class CityMiss(_ServingWorkload):
    """Two city sequences, every text distinct: the all-miss request path."""

    name = "city_miss"
    frames = 32
    fits = 9
    windows = 9
    waves = 400
    wave_size = 4
    first_warm_waves = 40
    warm_waves = 40
    setup_reps = 3

    def build_catalog(self, plan: Plan) -> api.SequenceCatalog:
        return inputs.city_catalog(plan.frames(self.frames))

    def make_waves(self, names, waves, rng, seen):
        texts = inputs.city_miss_texts(names, waves * self.wave_size, rng, seen)
        return [
            texts[start : start + self.wave_size]
            for start in range(0, len(texts), self.wave_size)
        ]

    def check_texts(self, names, rng, seen):
        return inputs.city_miss_texts(names, 64, rng, seen)


# ----------------------------------------------------------------------
# stream_mixed: writes beside reads
# ----------------------------------------------------------------------
@dataclass
class _StreamState:
    sequences: list
    pool: list[str]
    rotation: int
    _reference: CorpusReference | None = None
    catalog: api.SequenceCatalog | None = field(default=None)

    def final_catalog(self) -> api.SequenceCatalog:
        if self.catalog is None:
            self.catalog = api.SequenceCatalog()
            for sequence in self.sequences:
                self.catalog.register_sequence(sequence, dataset="stream")
        return self.catalog

    def reference(self) -> CorpusReference:
        if self._reference is None:
            self._reference = corpus_reference(self.final_catalog())
        return self._reference


class StreamMixed(Workload):
    """Frames drip-fed into the streaming service while it is queried."""

    name = "stream_mixed"
    frames = (400, 400, 260)
    reps = 3
    setup_reps = 3
    initial_frames = 12
    max_lag_frames = 3
    replan_every = 24
    pump_events = 2
    wave_size = 4
    block_s = 0.5
    schedules = {
        "static-drive": (20.0, 1),
        "volatile-drive": (30.0, 1),
        "sparse-urban": (8.0, 2),
    }

    def prepare(self, plan: Plan, seed: int, rec: Recorder, workdir: Path) -> _StreamState:
        frames = tuple(plan.frames(n, floor=48) for n in self.frames)

        def build() -> _StreamState:
            sequences = inputs.drive_sequences(frames)  # type: ignore[arg-type]
            pool = inputs.mixed_pool(tuple(s.name for s in sequences))
            # --seed picks where the rotating read pool starts.  Arrival
            # jitter is deliberately not seeded: it reorders flushes
            # against re-plans, which changes what the detector is
            # billed, and detector_s is gated as an exact number.
            rotation = int(np.random.default_rng([seed, 0]).integers(len(pool)))
            return _StreamState(sequences, pool, rotation)

        state = _timed_setup(rec, 1 if plan.smoke else self.setup_reps, build)
        assert isinstance(state, _StreamState)
        return state

    def _source(self, state: _StreamState) -> api.ScheduledFrameSource:
        return api.ScheduledFrameSource(
            state.sequences,
            initial_frames=self.initial_frames,
            schedule={
                name: api.ArrivalSchedule(rate=rate, batch_frames=batch)
                for name, (rate, batch) in self.schedules.items()
            },
        )

    def measure(
        self, state: _StreamState, plan: Plan, rec: Recorder, tracer: Tracer
    ) -> None:
        config, model = inputs.config(), inputs.model()
        reference = state.reference()
        streamed = sum(len(s) for s in state.sequences) - self.initial_frames * len(
            state.sequences
        )
        staleness: list[int] = []
        for _ in range(plan.reps(self.reps)):
            source = self._source(state)
            service = api.StreamingCorpusService(
                source, model, config, policy="ucb",
                max_lag_frames=self.max_lag_frames, replan_every=self.replan_every,
            )
            try:
                self._drive(service, state, streamed, staleness, rec, tracer)
                cache = service.cache_stats()
                ledger = service.cost_ledger()
                store = service.store.stats()
                rec.check(
                    ledger.invocations(DEEP_MODEL) == store.misses,
                    f"ledger billed {ledger.invocations(DEEP_MODEL)} invocations "
                    f"but the store missed {store.misses} times",
                )
                drained = [a.result for a in service.execute_batch(state.pool)]
                scores = score_answers(
                    lambda query: service.execute(query).result, reference
                )
                _record_quality(rec, ledger.summary()[DEEP_MODEL], scores)
                rec.counters.update(
                    {
                        "stream.invocations": ledger.invocations(DEEP_MODEL),
                        "stream.replan_epochs": service.epochs,
                        "stream.events": service.events_processed,
                        "cache.hits": cache.hits,
                        "cache.misses": cache.misses,
                        "cache.partial_hits": cache.partial_hits,
                        "cache.evictions": cache.evictions,
                        "cache.invalidations": cache.invalidations,
                    }
                )
                rec.surface("streaming.service.replan_epochs", service.epochs)
                _ledger_surfaces(rec, ledger.summary())
            finally:
                service.close()
            self._batch_reference(state, drained, reference, rec)
        _finish_cache(rec)
        rec.surface(
            "streaming.service.staleness_p99_frames",
            percentile(staleness, 99.0) if staleness else 0.0,
        )
        rec.surface(
            "corpus.service.fanout_share",
            sum(" IN SEQUENCE " not in text for text in state.pool) / len(state.pool),
        )
        _sample_quality(rec)

    def _drive(
        self,
        service: api.StreamingCorpusService,
        state: _StreamState,
        streamed: int,
        staleness: list[int],
        rec: Recorder,
        tracer: Tracer,
    ) -> None:
        """One driver thread alternates ``pump`` with one read request.

        Pump and read time accumulate per block of ``block_s`` wall
        seconds, and each block is scaled by the machine speed over it.
        """
        pool, cursor = state.pool, state.rotation
        ingest_s = query_s = 0.0
        block_ingest = block_query = 0.0
        block_latencies: list[float] = []
        latencies_ms: list[float] = []
        answered = 0
        block_start = time.perf_counter()

        def fold(now: float) -> None:
            nonlocal ingest_s, query_s, block_ingest, block_query, block_start
            speed = rec.speed(block_start, now)
            ingest_s += block_ingest * speed
            query_s += block_query * speed
            latencies_ms.extend(1e3 * speed * value for value in block_latencies)
            block_ingest = block_query = 0.0
            block_latencies.clear()
            block_start = now

        while True:
            with tracer.phase("ingest"):
                start = time.perf_counter()
                pumped = service.pump(max_events=self.pump_events)
                block_ingest += time.perf_counter() - start
            if pumped == 0:
                break
            wave = [pool[(cursor + k) % len(pool)] for k in range(self.wave_size)]
            cursor += self.wave_size
            with tracer.phase("read"):
                start = time.perf_counter()
                try:
                    answers = service.execute_batch(wave)
                except Exception as error:  # a failed request is a counted outcome
                    rec.op(False, f"request raised: {error!r}")
                    continue
                end = time.perf_counter()
            block_query += end - start
            block_latencies.append(end - start)
            answered += len(answers)
            worst = max(answer.max_staleness for answer in answers)
            staleness.append(worst)
            rec.op(
                worst <= self.max_lag_frames,
                f"correctness: live answer served at staleness {worst}",
            )
            if end - block_start >= self.block_s:
                fold(end)
        with tracer.phase("ingest"):
            start = time.perf_counter()
            report = service.quiesce()
            end = time.perf_counter()
        block_ingest += end - start
        fold(end)
        rec.op()
        rec.check(
            all(lag == 0 for lag in report["staleness"].values()),  # type: ignore[union-attr]
            "staleness after quiesce is not zero",
        )
        rec.sample("ingest_frames_per_s", streamed / ingest_s)
        rec.sample("queries_per_s", answered / query_s)
        # Stand-ins (README): ingest is how a stream fits its corpus, the
        # whole drive its sweep, the reads from warm state its resume.
        rec.sample("fit_wall_s", ingest_s)
        rec.sample("sweep_wall_s", ingest_s + query_s)
        rec.sample("resume_wall_s", query_s)
        rec.request_ms.append(latencies_ms)

    def _batch_reference(
        self,
        state: _StreamState,
        drained: list[object],
        reference: CorpusReference,
        rec: Recorder,
    ) -> None:
        """Post-drain answers and scores must equal a batch fit's on the final corpus."""
        corpus = api.CorpusPipeline(
            state.final_catalog(), inputs.config(), policy="ucb",
            detection_store=api.DetectionStore(),
        )
        try:
            corpus.fit(inputs.model())
            rec.op()
            with api.CorpusQueryService(corpus) as batch:
                expected = batch.execute_batch(state.pool)
            for text, got, want in zip(state.pool, drained, expected):
                rec.check(answers_equal(got, want), f"post-drain != batch fit: {text}")
            rec.check(
                score_answers(corpus.query, reference)
                == (rec.counters["agg_error"], rec.counters["retrieval_f1"]),
                "drained stream scores differ from the batch fit's",
            )
        finally:
            corpus.close()


# ----------------------------------------------------------------------
# sweep_budget: the experimenter's path
# ----------------------------------------------------------------------
@dataclass
class _SweepState:
    spec: api.ExperimentFlowSpec
    workdir: Path


class SweepBudget(Workload):
    """A paper-length 3-method x 5-budget flow, cold then resumed."""

    name = "sweep_budget"
    n_frames = 4541
    methods = ("seiden_pc", "seiden_pcst", "mast")
    budgets = (0.05, 0.10, 0.15, 0.20, 0.25)
    scored = ("mast", "10pct")
    reps = 1
    resumes = 5
    setup_reps = 3

    def prepare(self, plan: Plan, seed: int, rec: Recorder, workdir: Path) -> _SweepState:
        n_frames = plan.frames(self.n_frames, floor=256)

        def build() -> _SweepState:
            spec = api.ExperimentFlowSpec(
                dataset="semantickitti", sequence_index=0, n_frames=n_frames,
                methods=self.methods, budgets=self.budgets,
                seed=inputs.CONFIG_SEED, model_seed=inputs.MODEL_SEED,
            )
            api.experiment_flow(spec).order()  # the DAG must build and sort
            return _SweepState(spec, workdir)

        state = _timed_setup(rec, self.setup_reps, build)
        assert isinstance(state, _SweepState)
        return state

    def measure(
        self, state: _SweepState, plan: Plan, rec: Recorder, tracer: Tracer
    ) -> None:
        spec = state.spec
        method, label = self.scored
        executed = replayed = 0
        for rep in range(plan.reps(self.reps)):
            checkpoints = state.workdir / f"sweep-{rep}"
            shutil.rmtree(checkpoints, ignore_errors=True)
            try:
                with tracer.phase("sweep"):
                    start = time.perf_counter()
                    cold = api.FlowRunner(
                        api.experiment_flow(spec), checkpoint_dir=checkpoints
                    ).run()
                    end = time.perf_counter()
                    speed = rec.speed(start, end)
                    calls_ms = [1e3 * rec.seconds(start, end)]
                    rec.sample("sweep_wall_s", calls_ms[0] / 1e3)
                rec.op()
                rec.check(not cold.cached, "a cold run replayed checkpoints")
                executed += len(cold.outputs)
                resumed = None
                for _ in range(plan.reps(self.resumes)):
                    with tracer.phase("resume"):
                        start = time.perf_counter()
                        resumed = api.FlowRunner(
                            api.experiment_flow(spec), checkpoint_dir=checkpoints
                        ).run()
                        calls_ms.append(1e3 * rec.seconds(start, time.perf_counter()))
                        rec.sample("resume_wall_s", calls_ms[-1] / 1e3)
                    rec.op()
                    executed += len(resumed.outputs) - len(resumed.cached)
                    replayed += len(resumed.cached)
                assert resumed is not None
                flow = api.experiment_flow(spec)
                uncached = {n for n in flow.order() if not flow.spec(n).cache}
                rec.check(
                    set(resumed.outputs) - resumed.cached == uncached,
                    "the resume executed more than the cache=False steps",
                )
                for budget in self.budgets:
                    step = f"report:{_budget_label(budget)}"
                    rec.check(
                        api.experiment_digest(resumed[step])
                        == api.experiment_digest(cold[step]),
                        f"resumed {step} digest differs from the cold run's",
                    )
                rec.counters["flow.checkpoint_bytes"] = sum(
                    path.stat().st_size
                    for path in checkpoints.rglob("*") if path.is_file()
                )
            finally:
                shutil.rmtree(checkpoints, ignore_errors=True)
            # Stand-in (README): one request = one ``FlowRunner.run`` call,
            # so the median call is a resume and the slowest the cold run.
            rec.request_ms.append(calls_ms)
            self._record_report(cold, speed, method, label, spec, rec)
        rec.counters["flow.steps_executed"] = executed
        rec.counters["flow.steps_replayed"] = replayed
        rec.surface("flow.runner.steps_executed", executed)
        rec.surface("flow.runner.steps_replayed", replayed)
        _sample_quality(rec)

    def _record_report(
        self,
        cold: object,
        speed: float,
        method: str,
        label: str,
        spec: api.ExperimentFlowSpec,
        rec: Recorder,
    ) -> None:
        """Paper-currency numbers plus this workload's stand-in metrics.

        ``speed`` is the machine speed over the cold run: the runner's
        per-step walls carry no timestamps to scale them one by one.
        """
        walls: dict[str, float] = {
            step: wall * speed
            for step, wall in cold.ledger.measured.items()  # type: ignore[attr-defined]
        }
        detector_s = policy_s = indexing_s = query_s = 0.0
        scored_queries = 0
        method_walls = 0.0
        for budget in self.budgets:
            report = cold[f"report:{_budget_label(budget)}"]  # type: ignore[index]
            for name, method_report in report.methods.items():
                summary = method_report.ledger.summary()
                detector_s += summary.get(DEEP_MODEL, 0.0)
                policy_s += summary.get("policy", 0.0)
                indexing_s += summary.get("indexing", 0.0)
                query_s += summary.get("query", 0.0)
                scored_queries += len(method_report.retrieval) + len(
                    method_report.aggregates
                )
                method_walls += walls[f"step:method:{name}:{_budget_label(budget)}"]
        scored = cold[f"report:{label}"][method]  # type: ignore[index]
        errors = [1.0 - evaluation.metric for evaluation in scored.aggregates]
        _record_quality(
            rec, detector_s, (sum(errors) / len(errors), scored.mean_retrieval_f1)
        )
        for stage, value in (
            ("ledger.policy_s", policy_s),
            ("ledger.indexing_s", indexing_s),
            ("ledger.query_s", query_s),
        ):
            rec.surface(stage, value)
        # Stand-ins (README): a method step (sample + index + score) is
        # this workload's fit.
        steps = len(self.budgets) * len(self.methods)
        rec.sample("fit_wall_s", method_walls / steps)
        rec.sample("ingest_frames_per_s", steps * spec.n_frames / method_walls)
        rec.sample("queries_per_s", scored_queries / method_walls)


def _budget_label(budget: float) -> str:
    return f"{int(round(budget * 100))}pct"


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (DriveHot(), CityMiss(), StreamMixed(), SweepBudget())
}
