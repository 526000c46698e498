"""One drive fit with every per-sample kernel call checked against its spec.

A 300 / 300 / 200-frame version of the benchmark's three-sequence drive
corpus (a static drive, a volatile one, a sparse urban one) is fitted
with ST-PC prediction and the UCB choice wrapped: every prediction the
fit makes and every child it chooses is compared with the pre-change
body in ``tests/kernel_specs.py`` — column dtypes and bytes, chosen child
and RNG state.
"""

from __future__ import annotations

from collections import Counter

from repro.core import MASTConfig, SegmentTree
from repro.core.stpc import MotionEstimate
from repro.corpus import CorpusPipeline, SequenceCatalog, SequenceSpec
from repro.inference import DetectionStore
from repro.models import pv_rcnn
from tests.kernel_specs import (
    check_select_child,
    object_columns,
    predict_flat_spec,
    predict_spec,
    same_columns,
)

VOLATILE_WORLD = (
    ("base_spawn_rate", 1.6),
    ("mean_lifetime", 10.0),
    ("burst_rate", 0.15),
    ("ego_speed_mean", 12.0),
)


def drive_catalog() -> SequenceCatalog:
    catalog = SequenceCatalog()
    for spec in (
        SequenceSpec("semantickitti", 0, n_frames=300, name="static-drive"),
        SequenceSpec(
            "semantickitti", 1, n_frames=300, name="volatile-drive",
            world_overrides=VOLATILE_WORLD,
        ),
        SequenceSpec("once", 0, n_frames=200, name="sparse-urban"),
    ):
        catalog.register(spec)
    return catalog


def test_every_kernel_call_of_a_drive_fit_equals_its_spec(monkeypatch):
    calls: Counter[str] = Counter()
    predict = MotionEstimate.predict
    predict_flat = MotionEstimate.predict_flat
    select_child = SegmentTree._select_child

    def checked_predict(estimate, t):
        objects = predict(estimate, t)
        assert same_columns(object_columns(objects), object_columns(predict_spec(estimate, t)))
        calls["predict"] += 1
        return objects

    def checked_predict_flat(estimate, timestamps):
        columns = predict_flat(estimate, timestamps)
        assert same_columns(columns, predict_flat_spec(estimate, timestamps))
        calls["predict_flat"] += 1
        return columns

    def checked_select_child(tree, node):
        calls["select_child"] += 1
        return check_select_child(tree, node, select_child)

    monkeypatch.setattr(MotionEstimate, "predict", checked_predict)
    monkeypatch.setattr(MotionEstimate, "predict_flat", checked_predict_flat)
    monkeypatch.setattr(SegmentTree, "_select_child", checked_select_child)

    corpus = CorpusPipeline(
        drive_catalog(),
        MASTConfig(budget_fraction=0.10, seed=1),
        policy="ucb",
        detection_store=DetectionStore(),
    )
    corpus.fit(pv_rcnn(seed=5))

    assert min(calls["predict"], calls["predict_flat"], calls["select_child"]) > 0
