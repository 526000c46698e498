"""The one place the observatory touches ``repro``.

Every other module of the benchmark imports the system under test from
here, so a later PR that renames or deletes a public name breaks exactly
one file.  Importing this module puts ``<repo>/src`` on ``sys.path``
(the benchmark runs from a bare checkout with no ``PYTHONPATH``) and
imports the public surface the workloads drive; nothing is constructed.

The tracing tables in :mod:`layers` name their targets as dotted strings
and resolve them lazily, so a deleted layer there degrades to ``null``
instead of failing this import.
"""

from __future__ import annotations

import sys

from .spec import REPO_ROOT

SOURCE_DIR = REPO_ROOT / "src"

if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
    raise ImportError(
        f"the observatory benchmarks the repro package at {SOURCE_DIR}, "
        "which this directory does not hold"
    )
if str(SOURCE_DIR) not in sys.path:
    sys.path.insert(0, str(SOURCE_DIR))

from repro.core.config import MASTConfig  # noqa: E402
from repro.corpus import (  # noqa: E402
    CorpusPipeline,
    CorpusQueryService,
    SequenceCatalog,
    SequenceSpec,
)
from repro.evalx import (  # noqa: E402
    ExperimentFlowSpec,
    corpus_oracle_truth,
    experiment_digest,
    experiment_flow,
)
from repro.evalx.metrics import aggregate_accuracy, f1_score  # noqa: E402
from repro.flow import FlowRunner  # noqa: E402
from repro.inference import DetectionStore, InferenceEngine  # noqa: E402
from repro.models import pv_rcnn  # noqa: E402
from repro.query.workload import generate_workload  # noqa: E402
from repro.streaming import (  # noqa: E402
    ArrivalSchedule,
    ScheduledFrameSource,
    StreamingCorpusService,
)

__all__ = [
    "ArrivalSchedule",
    "CorpusPipeline",
    "CorpusQueryService",
    "DetectionStore",
    "ExperimentFlowSpec",
    "FlowRunner",
    "InferenceEngine",
    "MASTConfig",
    "ScheduledFrameSource",
    "SequenceCatalog",
    "SequenceSpec",
    "StreamingCorpusService",
    "aggregate_accuracy",
    "corpus_oracle_truth",
    "experiment_digest",
    "experiment_flow",
    "f1_score",
    "generate_workload",
    "pv_rcnn",
]
