"""The simulated data, pinned by value.

Every figure the repository reports is computed from two simulations:
``TrafficWorld`` (the ground truth of a sequence) and ``apply_noise``
(a simulated detector's output).  A change that makes either one faster
must leave every float and every RNG draw where it was, so these tests
pin both by literal ``stable_digest`` values rather than by a frozen
copy of an earlier implementation.

The cases cover the three world shapes (10-FPS drive, 2-FPS drive,
300 m city), two world overrides (near-static and volatile traffic),
the three detector profiles, and a false-positive-heavy profile under
which the false-positive branch, the two-part concatenation and the
score cut all run on most frames.  Ground truth whose labels are not
``<U16`` pins the dtype a detection inherits from it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.data.annotations import ObjectArray
from repro.flow import stable_digest
from repro.models import (
    PROFILE_PV_RCNN,
    SimulatedDetector,
    apply_noise,
    point_rcnn,
    pv_rcnn,
    second,
)
from repro.simulation import build_sequence, dataset_spec, with_world_overrides
from tests.streaming.harness import STATIC_WORLD, VOLATILE_WORLD

N_FRAMES = 200

#: name -> (dataset, world overrides).
WORLDS = {
    "semantickitti": ("semantickitti", ()),
    "once": ("once", ()),
    "city": ("city", ()),
    "static": ("semantickitti", STATIC_WORLD),
    "volatile": ("semantickitti", VOLATILE_WORLD),
}

#: A detector that hallucinates ~4 boxes a frame, a sixth of them under
#: its score threshold.
FP_HEAVY = replace(PROFILE_PV_RCNN, false_positive_rate=4.0, false_positive_score=0.40)

GROUND_TRUTH = {
    "semantickitti": "7be92331b9dea5810a213be2e860c81e",
    "once": "dc54470e34e8188d0bae18bb771d7d10",
    "city": "314f0a7652b8e39dfaf1bd1ce37bd2ef",
    "static": "94c1996b92dc39277b07cffa858bbccb",
    "volatile": "448714ecb2ad5fe5ca68f713e3b57328",
}

DETECTIONS = {
    ("semantickitti", "pv_rcnn"): "8b431f1feea48e77986db1909f19ae2a",
    ("semantickitti", "point_rcnn"): "a6f909ac6cc470c7660e19db99cf6a9b",
    ("semantickitti", "second"): "507f1a648c2867f47807350796eb17b6",
    ("semantickitti", "fp_heavy"): "8bbb411fbe6c4caa1549c060f021e520",
    ("once", "pv_rcnn"): "42ee970d732922b755b58f74d321d8a9",
    ("once", "point_rcnn"): "ad8ff59b2635d0e3ddf25fb7006653ac",
    ("once", "second"): "85069c035b96e526c9bc9228d13576ec",
    ("once", "fp_heavy"): "741e5af2e0b22a7e67a2ef97c8296ee4",
    ("city", "pv_rcnn"): "4ad1413ead86f0e14264b00306f1b7ea",
    ("city", "point_rcnn"): "c17257b68b223cdc64228419605f0b78",
    ("city", "second"): "46fe85002deff45b52e3743623f41221",
    ("city", "fp_heavy"): "329ce4172937a7bef3f818399dbb8cfe",
    ("static", "pv_rcnn"): "1ff0a9d733cd3bfa7c9bd4dddc32e921",
    ("static", "fp_heavy"): "acf8c6a3291173efd49e95db0481fb39",
    ("volatile", "pv_rcnn"): "86e2d0e10f8de1d733b0549503b4cc83",
    ("volatile", "fp_heavy"): "e2635344a36517f1bcff0ee5b0b9e412",
}

#: Detections of ground truth relabelled to ``<U10`` (semantickitti).
NARROW_LABELS = {
    "pv_rcnn": "01baac85fee257e7fef0875c2f5a0828",
    "fp_heavy": "cbe93efc07145aeb6a68a55082d52e54",
}

#: ``apply_noise`` on an empty frame, seeds 0..49, under ``FP_HEAVY``.
EMPTY_FRAMES = "da81d93d8daeb247a30d47f65bfa9627"


def _sequence(name: str):
    dataset, overrides = WORLDS[name]
    spec = with_world_overrides(dataset_spec(dataset), **dict(overrides))
    return build_sequence(spec, 0, n_frames=N_FRAMES, with_points=False)


@pytest.fixture(scope="module")
def sequences():
    return {name: _sequence(name) for name in WORLDS}


def _detector(name: str, sensor_range: float) -> SimulatedDetector:
    if name == "fp_heavy":
        profile = FP_HEAVY.scaled_to_range(sensor_range)
        return SimulatedDetector("fp_heavy", profile, cost_per_frame=0.1, seed=5)
    factory = {"pv_rcnn": pv_rcnn, "point_rcnn": point_rcnn, "second": second}[name]
    return factory(seed=5, sensor_range=sensor_range)


def _sensor_range(world: str) -> float:
    return dataset_spec(WORLDS[world][0]).world.sensor_range


def ground_truth_digest(sequence) -> str:
    return stable_digest(
        [(frame.ego_pose, frame.ground_truth) for frame in sequence]
    )


def detections_digest(sequence, detector) -> str:
    return stable_digest([detector.detect(frame).objects for frame in sequence])


def _relabelled(objects: ObjectArray) -> ObjectArray:
    return replace(objects, labels=objects.labels.astype("<U10"))


def narrow_label_digest(sequence, detector) -> str:
    return stable_digest(
        [
            apply_noise(_relabelled(frame.ground_truth), detector.profile, rng)
            for frame, rng in (
                (frame, np.random.default_rng(frame.frame_id)) for frame in sequence
            )
        ]
    )


def empty_frame_digest() -> str:
    return stable_digest(
        [
            apply_noise(ObjectArray.empty(), FP_HEAVY, np.random.default_rng(seed))
            for seed in range(50)
        ]
    )


@pytest.mark.parametrize("world", sorted(GROUND_TRUTH))
def test_ground_truth_is_pinned(sequences, world):
    assert ground_truth_digest(sequences[world]) == GROUND_TRUTH[world]


@pytest.mark.parametrize("world, model", sorted(DETECTIONS))
def test_detections_are_pinned(sequences, world, model):
    detector = _detector(model, _sensor_range(world))
    assert detections_digest(sequences[world], detector) == DETECTIONS[(world, model)]


@pytest.mark.parametrize("model", sorted(NARROW_LABELS))
def test_a_detection_keeps_its_ground_truth_label_dtype(sequences, model):
    detector = _detector(model, _sensor_range("semantickitti"))
    sequence = sequences["semantickitti"]
    assert narrow_label_digest(sequence, detector) == NARROW_LABELS[model]


def test_an_empty_frame_detects_only_false_positives():
    assert empty_frame_digest() == EMPTY_FRAMES


def test_the_heavy_profile_runs_every_branch(sequences):
    """The pins above bite only if FP_HEAVY runs each branch of apply_noise.

    The score cut draws nothing, and a frame's false positives are drawn
    after its true boxes, so turning either off leaves the other draws
    of a frame in place.
    """
    sequence = sequences["semantickitti"]

    def sizes(profile):
        detector = SimulatedDetector("fp_heavy", profile, cost_per_frame=0.1, seed=5)
        return np.array([len(detector.detect(frame).objects) for frame in sequence])

    uncut = sizes(replace(FP_HEAVY, score_threshold=0.0))
    true_only = sizes(replace(FP_HEAVY, score_threshold=0.0, false_positive_rate=0.0))
    both_parts = (true_only > 0) & (uncut > true_only)
    assert both_parts.sum() > N_FRAMES // 2
    assert (sizes(FP_HEAVY) < uncut).sum() > N_FRAMES // 4
