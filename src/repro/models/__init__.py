"""Detection models: the deep-model black box of the paper's pipeline."""

from repro.models.base import Detection, DetectionModel, FrameDetections
from repro.models.clustering import ClusteringDetector
from repro.models.detectors import (
    PROFILE_POINT_RCNN,
    PROFILE_PV_RCNN,
    PROFILE_SECOND,
    SimulatedDetector,
    point_rcnn,
    pv_rcnn,
    second,
)
from repro.models.noise import NoiseProfile, apply_noise
from repro.models.oracle import GroundTruthDetector
from repro.models.registry import (
    DEFAULT_MODEL_SEED,
    available_models,
    make_model,
    register_model,
)

__all__ = [
    "ClusteringDetector",
    "DEFAULT_MODEL_SEED",
    "Detection",
    "DetectionModel",
    "FrameDetections",
    "GroundTruthDetector",
    "NoiseProfile",
    "PROFILE_POINT_RCNN",
    "PROFILE_PV_RCNN",
    "PROFILE_SECOND",
    "SimulatedDetector",
    "apply_noise",
    "available_models",
    "make_model",
    "point_rcnn",
    "pv_rcnn",
    "register_model",
    "second",
]
