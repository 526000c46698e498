"""MAST core: ST-PC analysis, hierarchical sampling, indexing, pipeline."""

from repro.core.autopredict import PredictorCalibration, calibrate_predictors
from repro.core.bandit import UCBAgent, ucb_scores
from repro.core.config import MASTConfig
from repro.core.index import LinearCountProvider, MASTIndex
from repro.core.pipeline import MASTPipeline
from repro.core.reward import count_deviation_reward, st_reward
from repro.core.sampler import (
    AdaptiveSamplingSession,
    BaseSampler,
    HierarchicalMultiAgentSampler,
    SamplingResult,
    uniform_ids,
)
from repro.core.segment_tree import SegmentNode, SegmentTree
from repro.core.stpc import MotionEstimate, analyze_pair, match_by_label

__all__ = [
    "AdaptiveSamplingSession",
    "BaseSampler",
    "HierarchicalMultiAgentSampler",
    "LinearCountProvider",
    "MASTConfig",
    "MASTIndex",
    "MASTPipeline",
    "MotionEstimate",
    "PredictorCalibration",
    "calibrate_predictors",
    "SamplingResult",
    "SegmentNode",
    "SegmentTree",
    "UCBAgent",
    "analyze_pair",
    "count_deviation_reward",
    "match_by_label",
    "st_reward",
    "ucb_scores",
    "uniform_ids",
]
