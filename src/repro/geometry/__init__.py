"""Geometric substrate: oriented 3-D boxes, transforms, distances, matching."""

from repro.geometry.box import BoundingBox3D
from repro.geometry.distance import (
    bev_center_distance,
    center_distance,
    iou_bev,
    pairwise_center_distances,
)
from repro.geometry.matching import hungarian, match_pairs, match_with_threshold
from repro.geometry.transforms import Pose2D, rotation_matrix_2d, wrap_angle

__all__ = [
    "BoundingBox3D",
    "Pose2D",
    "bev_center_distance",
    "center_distance",
    "hungarian",
    "iou_bev",
    "match_pairs",
    "match_with_threshold",
    "pairwise_center_distances",
    "rotation_matrix_2d",
    "wrap_angle",
]
