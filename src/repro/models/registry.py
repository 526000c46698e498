"""Name-based model construction.

The benchmark harness selects oracle models by name (Fig. 10 sweeps
``pv_rcnn`` / ``point_rcnn`` / ``second``); user code can register custom
models under new names.
"""

from __future__ import annotations

from typing import Callable

from repro.models.base import DetectionModel
from repro.models.clustering import ClusteringDetector
from repro.models.detectors import point_rcnn, pv_rcnn, second
from repro.models.oracle import GroundTruthDetector

__all__ = ["DEFAULT_MODEL_SEED", "make_model", "register_model", "available_models"]

#: The detector seed of the experiment flows and of every CLI command
#: but ``repro fit``, matching ``benchmarks/_harness.MODEL_SEED``.
DEFAULT_MODEL_SEED = 5

ModelFactory = Callable[..., DetectionModel]

_REGISTRY: dict[str, ModelFactory] = {
    "pv_rcnn": pv_rcnn,
    "point_rcnn": point_rcnn,
    "second": second,
    "ground_truth": lambda seed=0: GroundTruthDetector(),
    "grid_clustering": lambda seed=0: ClusteringDetector(),
}


def register_model(name: str, factory: ModelFactory, *, overwrite: bool = False) -> None:
    """Register a model factory under ``name``.

    The factory must accept a ``seed`` keyword argument.
    """
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"model {name!r} is already registered")
    _REGISTRY[name] = factory


def make_model(name: str, *, seed: int = 0) -> DetectionModel:
    """Instantiate a registered model by name."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown model {name!r}; options: {sorted(_REGISTRY)}")
    return _REGISTRY[name](seed=seed)


def available_models() -> list[str]:
    """Registered model names, sorted."""
    return sorted(_REGISTRY)
