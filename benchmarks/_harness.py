"""Shared infrastructure for the benchmark suite.

Every bench reproduces one table or figure of the paper: it computes the
same rows/series the paper reports, prints them, and writes them to
``benchmarks/results/<experiment>.txt``.  The pytest-benchmark part of
each bench times a representative operation of that experiment (query
evaluation, policy stepping, index construction, ...).

Scale: sequences default to ``REPRO_BENCH_SCALE`` (default 0.1) of the
paper's frame counts so the whole suite runs in a couple of minutes;
set ``REPRO_BENCH_SCALE=1`` to reproduce at full scale.

Every experiment runs as an :func:`~repro.evalx.experiment_flow`
against one checkpoint directory per session (temporary, removed at
exit), so an Oracle step runs once per (sequence, model, workload)
whatever the policy seed or config overrides.  Reports are also cached
in-process by their flow spec, so benches that share an experiment —
e.g. Tables 3, 4 and 5 — compute it once.
"""

from __future__ import annotations

import atexit
import functools
import os
import shutil
import tempfile
from pathlib import Path

from repro.baselines import PAPER_METHODS, MethodSpec
from repro.core import MASTConfig
from repro.data import FrameSequence
from repro.evalx import ExperimentFlowSpec, ExperimentReport, experiment_flow
from repro.evalx.flows import budget_label
from repro.flow import FlowRunner
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
_EXPERIMENT_CACHE: dict[ExperimentFlowSpec, ExperimentReport] = {}
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


@functools.cache
def _checkpoint_dir() -> Path:
    """The session's flow checkpoint directory (removed at exit)."""
    path = Path(tempfile.mkdtemp(prefix="repro-bench-flows-"))
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


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
    """Run (and cache) one full method-comparison experiment.

    ``seed`` seeds the sampling policy; the workload is always
    :func:`get_workload`'s.  ``config_overrides`` are ``MASTConfig``
    fields, ``budget_fraction`` included.
    """
    budget = config_overrides.pop("budget_fraction", MASTConfig.budget_fraction)
    spec = ExperimentFlowSpec(
        dataset=dataset,
        sequence_index=sequence_index,
        n_frames=scaled_length(dataset, sequence_index) if n_frames is None else n_frames,
        model=model_name,
        model_seed=MODEL_SEED,
        seed=SEED if seed is None else seed,
        methods=tuple(method.name for method in methods),
        budgets=(budget,),
        workload_seed=SEED,
        overrides=tuple(sorted(config_overrides.items())),
    )
    if spec not in _EXPERIMENT_CACHE:
        result = FlowRunner(experiment_flow(spec), checkpoint_dir=_checkpoint_dir()).run()
        _EXPERIMENT_CACHE[spec] = result[f"report:{budget_label(budget)}"]
    return _EXPERIMENT_CACHE[spec]


#: Seeds used by benches that average the sampling policy's randomness.
POLICY_SEEDS = (SEED, SEED + 1, SEED + 2)


def simulated_seconds(ledger, stage: str) -> float:
    """The simulated (run-stable) seconds a ledger charged to ``stage``."""
    return ledger.deterministic_state()["simulated"].get(stage, 0.0)


def emit(name: str, text: str) -> None:
    """Print a result table and persist it to ``benchmarks/results``.

    Tracked tables hold only run-stable columns (simulated seconds,
    sample counts, accuracy), so a rerun rewrites them byte-identically;
    measured wall-clock is only printed.
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def sequence_label(dataset: str, sequence_index: int) -> str:
    """Row label matching the paper's tables (paper-scale frame count)."""
    return f"{PAPER_LENGTHS[dataset][sequence_index]:,}"
