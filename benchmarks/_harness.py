"""Shared infrastructure for the benchmark suite.

Every bench reproduces one table or figure of the paper: it computes the
same rows/series the paper reports, prints them, and writes them to
``benchmarks/results/<experiment>.txt``.  The pytest-benchmark part of
each bench times a representative operation of that experiment (query
evaluation, policy stepping, index construction, ...).

Scale: sequences default to ``REPRO_BENCH_SCALE`` (default 0.1) of the
paper's frame counts so the whole suite runs in a couple of minutes;
set ``REPRO_BENCH_SCALE=1`` to reproduce at full scale.  Experiments are
cached in-process, so benches that share a (sequence, model, config)
combination — e.g. Tables 3, 4 and 5 — compute it once.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.baselines import PAPER_METHODS, MethodSpec
from repro.core import MASTConfig
from repro.data import FrameSequence
from repro.evalx import ExperimentReport, run_experiment
from repro.models import make_model
from repro.query import QueryWorkload, generate_workload
from repro.simulation import (
    ONCE_LENGTHS,
    SEMANTICKITTI_LENGTHS,
    SYNLIDAR_LENGTH,
    build_sequence,
    dataset_spec,
)

#: Fraction of the paper's sequence lengths used by default.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))
#: Master seed for workloads / policies.
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))
#: Detector seed (fixed so every bench sees the same oracle).
MODEL_SEED = 5

RESULTS_DIR = Path(__file__).parent / "results"

PAPER_LENGTHS = {
    "semantickitti": SEMANTICKITTI_LENGTHS,
    "once": ONCE_LENGTHS,
    "synlidar": (SYNLIDAR_LENGTH,),
}

_SEQUENCE_CACHE: dict[tuple, FrameSequence] = {}
_EXPERIMENT_CACHE: dict[tuple, ExperimentReport] = {}
_WORKLOAD_CACHE: dict[int, QueryWorkload] = {}


def scaled_length(dataset: str, sequence_index: int, scale: float | None = None) -> int:
    """The paper length of one sequence scaled down.

    A floor of 1,000 frames keeps per-sequence method comparisons stable
    (a 10 % budget then has >= 100 samples) even at small scales.
    """
    scale = SCALE if scale is None else scale
    return max(1000, int(round(PAPER_LENGTHS[dataset][sequence_index] * scale)))


def get_sequence(
    dataset: str, sequence_index: int = 0, *, n_frames: int | None = None
) -> FrameSequence:
    """Build (and cache) one scaled benchmark sequence."""
    if n_frames is None:
        n_frames = scaled_length(dataset, sequence_index)
    key = (dataset, sequence_index, n_frames)
    if key not in _SEQUENCE_CACHE:
        _SEQUENCE_CACHE[key] = build_sequence(
            dataset_spec(dataset), sequence_index, n_frames=n_frames,
            with_points=False,
        )
    return _SEQUENCE_CACHE[key]


def get_workload() -> QueryWorkload:
    """The paper's RQ2 workload (100 retrieval + 30 aggregate queries)."""
    if SEED not in _WORKLOAD_CACHE:
        _WORKLOAD_CACHE[SEED] = generate_workload(rng=SEED)
    return _WORKLOAD_CACHE[SEED]


def get_experiment(
    dataset: str,
    sequence_index: int = 0,
    *,
    model_name: str = "pv_rcnn",
    methods: tuple[MethodSpec, ...] = PAPER_METHODS,
    n_frames: int | None = None,
    seed: int | None = None,
    **config_overrides,
) -> ExperimentReport:
    """Run (and cache) one full method-comparison experiment."""
    seed = SEED if seed is None else seed
    key = (
        dataset,
        sequence_index,
        n_frames if n_frames is not None else scaled_length(dataset, sequence_index),
        model_name,
        tuple(spec.name for spec in methods),
        seed,
        tuple(sorted(config_overrides.items())),
    )
    if key not in _EXPERIMENT_CACHE:
        sequence = get_sequence(dataset, sequence_index, n_frames=n_frames)
        model = make_model(model_name, seed=MODEL_SEED)
        config = MASTConfig(seed=seed, **config_overrides)
        _EXPERIMENT_CACHE[key] = run_experiment(
            sequence, model, get_workload(), methods=methods, config=config
        )
    return _EXPERIMENT_CACHE[key]


#: Seeds used by benches that average the sampling policy's randomness.
POLICY_SEEDS = (SEED, SEED + 1, SEED + 2)


def emit(name: str, text: str) -> None:
    """Print a result table and persist it to ``benchmarks/results``."""
    print()
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def sequence_label(dataset: str, sequence_index: int) -> str:
    """Row label matching the paper's tables (paper-scale frame count)."""
    return f"{PAPER_LENGTHS[dataset][sequence_index]:,}"
