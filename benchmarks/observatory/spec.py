"""Metric and workload catalogue.

``BENCHMARK.json`` at the repository root is the source of the names,
units, directions and bounds; this module loads it and adds what that
file's fixed shape has no room for: what each end-to-end metric means on
each workload, and which end-to-end metric each per-layer metric is
expected to move (the interaction table a later optimisation PR cites).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "BENCHMARK_PATH",
    "DEFAULT_OUT",
    "FAILED_SHARE",
    "INTERACTIONS",
    "NAME_PATTERN",
    "NATIVE_WORKLOADS",
    "REPO_ROOT",
    "Interaction",
    "Metric",
    "Benchmark",
    "load_benchmark",
]

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_PATH = REPO_ROOT / "BENCHMARK.json"
#: Untracked (``.gitignore``) and inside the checkout: the benchmark
#: reads and writes nowhere else, temporary files included.
DEFAULT_OUT = REPO_ROOT / ".observatory"
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Metric:
    """One named metric: unit, direction and (end-to-end only) bound."""

    name: str
    unit: str
    better: str
    bound: float | None = None

    def worse_by(self, base: float, other: float) -> float:
        """Relative change from ``base`` to ``other`` in the bad direction."""
        if base == 0:
            return 0.0 if other == base else float("inf")
        change = (other - base) / abs(base)
        return change if self.better == "lower" else -change


#: Reported by ``run`` and judged by ``compare`` but kept out of
#: ``BENCHMARK.json``: the driver contract forbids a metric that reads 0,
#: and this one must read 0.  The driver sees the same fact as the
#: ``failed`` / ``attempted`` keys of every result line.
FAILED_SHARE = Metric("failed_share", "ratio", "lower", 0.0)


@dataclass(frozen=True)
class Benchmark:
    """The parsed ``BENCHMARK.json``."""

    command: tuple[str, ...]
    paths: tuple[str, ...]
    run_seconds: int
    workloads: dict[str, str]
    end_to_end: dict[str, Metric]
    per_layer: dict[str, Metric]

    def reported(self) -> dict[str, Metric]:
        """End-to-end metrics ``run`` prints: the driver's plus failed_share."""
        return {**self.end_to_end, FAILED_SHARE.name: FAILED_SHARE}


def load_benchmark(path: Path = BENCHMARK_PATH) -> Benchmark:
    """Parse ``BENCHMARK.json`` into lookup tables."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    return Benchmark(
        command=tuple(raw["command"]),
        paths=tuple(raw["paths"]),
        run_seconds=int(raw["run_seconds"]),
        workloads={w["name"]: w["why"] for w in raw["workloads"]},
        end_to_end={
            m["name"]: Metric(m["name"], m["unit"], m["better"], float(m["bound"]))
            for m in raw["end_to_end"]
        },
        per_layer={
            m["name"]: Metric(m["name"], m["unit"], m["better"])
            for m in raw["per_layer"]
        },
    )


#: Workloads on which a metric is the issue's own definition.  The driver
#: contract wants every metric from every workload, so elsewhere the
#: metric is a documented stand-in: a native measurement of that workload
#: re-expressed (README, "Stand-ins"); gate on the native pairs.
NATIVE_WORKLOADS: dict[str, tuple[str, ...]] = {
    "setup_s": ("drive_hot", "city_miss", "stream_mixed", "sweep_budget"),
    "fit_wall_s": ("drive_hot", "city_miss"),
    "sweep_wall_s": ("sweep_budget",),
    "resume_wall_s": ("sweep_budget",),
    "ingest_frames_per_s": ("stream_mixed",),
    "queries_per_s": ("drive_hot", "city_miss", "stream_mixed"),
    "request_p50_ms": ("drive_hot", "city_miss", "stream_mixed"),
    "request_p99_ms": ("drive_hot", "city_miss", "stream_mixed"),
    "detector_s": ("drive_hot", "city_miss", "stream_mixed", "sweep_budget"),
    "agg_error": ("drive_hot", "city_miss", "stream_mixed", "sweep_budget"),
    "retrieval_f1": ("drive_hot", "city_miss", "stream_mixed", "sweep_budget"),
    "peak_rss_mb": ("drive_hot", "city_miss", "stream_mixed", "sweep_budget"),
    "failed_share": ("drive_hot", "city_miss", "stream_mixed", "sweep_budget"),
}


@dataclass(frozen=True)
class Interaction:
    """Which end-to-end metrics a group of layer metrics should move."""

    layers: tuple[str, ...]
    moves: tuple[str, ...]
    on: tuple[str, ...]
    not_on: tuple[str, ...] = ()


INTERACTIONS: tuple[Interaction, ...] = (
    Interaction(
        ("geometry.matching.busy_s", "geometry.matching.calls",
         "geometry.matching.mean_call_ms", "core.stpc.busy_s", "core.reward.busy_s"),
        ("fit_wall_s",), ("city_miss", "drive_hot"),
    ),
    Interaction(
        ("core.sampler.self_s", "core.sampler.steps", "core.pipeline.self_s",
         "inference.engine.busy_s", "inference.engine.waves", "models.detect_s"),
        ("fit_wall_s", "sweep_wall_s"), ("drive_hot", "sweep_budget"), ("city_miss",),
    ),
    Interaction(
        ("inference.store.hit_rate", "inference.store.lookups"),
        ("sweep_wall_s", "detector_s"), ("sweep_budget", "stream_mixed"), ("drive_hot",),
    ),
    Interaction(
        ("core.index.build_s", "core.index.rows", "spatial.build_s",
         "spatial.update_s", "spatial.n_leaves"),
        ("fit_wall_s", "ingest_frames_per_s"), ("city_miss", "stream_mixed"),
    ),
    Interaction(
        ("query.parser.busy_s", "query.parser.calls"),
        ("queries_per_s", "request_p50_ms"), ("city_miss",),
    ),
    Interaction(
        ("core.index.count_series_s", "spatial.walk_s", "spatial.tile_prune_rate",
         "spatial.row_scan_fraction", "query.engine.self_s", "core.autopredict.busy_s"),
        ("queries_per_s", "request_p99_ms"), ("city_miss",), ("drive_hot",),
    ),
    Interaction(
        ("serving.cache.hit_rate", "serving.cache.evictions",
         "serving.cache.invalidations", "serving.cache.busy_s"),
        ("queries_per_s",), ("drive_hot", "city_miss", "stream_mixed"),
    ),
    Interaction(
        ("serving.service.self_s", "corpus.service.self_s", "corpus.service.fanout_share"),
        ("queries_per_s", "request_p50_ms"), ("drive_hot",), ("city_miss",),
    ),
    Interaction(
        ("corpus.pipeline.self_s", "corpus.allocator.busy_s", "corpus.allocator.rounds"),
        ("fit_wall_s", "ingest_frames_per_s"), ("drive_hot", "stream_mixed"),
        ("sweep_budget",),
    ),
    Interaction(
        ("streaming.service.flush_s", "streaming.service.replan_s",
         "streaming.service.replan_epochs", "streaming.service.quiesce_s",
         "streaming.service.staleness_p99_frames", "streaming.source.events"),
        ("ingest_frames_per_s", "detector_s", "request_p99_ms"), ("stream_mixed",),
        ("drive_hot", "city_miss", "sweep_budget"),
    ),
    Interaction(
        ("flow.runner.steps_executed", "flow.runner.steps_replayed",
         "flow.checkpoint.save_s", "flow.checkpoint.load_s", "flow.checkpoint.bytes",
         "flow.fingerprint.busy_s"),
        ("resume_wall_s", "sweep_wall_s"), ("sweep_budget",),
        ("drive_hot", "city_miss", "stream_mixed"),
    ),
    Interaction(
        ("evalx.oracle_s", "evalx.report_s", "baselines.busy_s"),
        ("sweep_wall_s",), ("sweep_budget",),
        ("drive_hot", "city_miss", "stream_mixed"),
    ),
    # Cross-checks and evidence: reported, never expected to move a gate.
    Interaction(("ledger.policy_s", "ledger.indexing_s", "ledger.query_s"), (),
                ("drive_hot", "city_miss", "stream_mixed", "sweep_budget")),
    Interaction(
        ("serving.mp.start_s", "serving.mp.warmup_invocations", "serving.mp.qps_w1",
         "serving.mp.qps_w2", "serving.mp.p99_ms_w2", "serving.dispatcher.coalesced",
         "serving.dispatcher.batches", "serving.dispatcher.shed"),
        (), ("drive_hot", "city_miss"),
    ),
    Interaction(("trace.overhead_share", "trace.untraced_share", "trace.spans"), (),
                ("drive_hot", "city_miss", "stream_mixed", "sweep_budget")),
)
