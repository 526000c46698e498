"""repro — a reproduction of MAST (SIGMOD 2025).

Efficient approximate analytical query processing on point-cloud data:
budgeted multi-agent frame sampling, spatio-temporal motion prediction,
an index over real + predicted detections, and a retrieval/aggregate
query engine — plus the driving-world simulator, detector models,
baselines, and evaluation harness needed to reproduce the paper's
experiments end to end.

Quickstart::

    from repro import MASTPipeline, MASTConfig
    from repro.models import pv_rcnn
    from repro.simulation import semantickitti_like

    sequence = semantickitti_like(0, length_scale=0.1)
    pipeline = MASTPipeline(MASTConfig(budget_fraction=0.10))
    pipeline.fit(sequence, pv_rcnn())
    frames = pipeline.query("SELECT FRAMES WHERE COUNT(Car DIST <= 10) >= 3")
    average = pipeline.query("SELECT AVG OF COUNT(Car DIST <= 10)")

Top-level names are resolved lazily (PEP 562): importing :mod:`repro`
(or stdlib-only corners such as :mod:`repro.analysis`) does not pull in
numpy, so the ``repro lint`` CI gate stays dependency-free and fast.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

__version__ = "1.0.0"

#: Public name -> providing submodule, imported on first attribute access.
_EXPORTS = {
    "AggregateQuery": "repro.query",
    "CorpusPipeline": "repro.corpus",
    "CorpusQueryService": "repro.corpus",
    "DetectionStore": "repro.inference",
    "FrameSequence": "repro.data",
    "InferenceEngine": "repro.inference",
    "MASTConfig": "repro.core",
    "MASTIndex": "repro.core",
    "MASTPipeline": "repro.core",
    "ObjectArray": "repro.data",
    "PointCloudFrame": "repro.data",
    "QueryEngine": "repro.query",
    "QueryService": "repro.serving",
    "RetrievalQuery": "repro.query",
    "SamplingResult": "repro.core",
    "ScopedQuery": "repro.query",
    "SequenceCatalog": "repro.corpus",
    "SequenceSpec": "repro.corpus",
    "parse_query": "repro.query",
    "parse_scoped_query": "repro.query",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str) -> Any:
    if name in _EXPORTS:
        value = getattr(import_module(_EXPORTS[name]), name)
        globals()[name] = value
        return value
    # ``import repro; repro.core`` — resolve submodules on demand too.
    try:
        return import_module(f"repro.{name}")
    except ModuleNotFoundError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(globals()))
