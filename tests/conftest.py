"""Shared fixtures: small deterministic sequences and models.

Session-scoped because sequence generation and detection are pure
functions of their seeds — reusing them across tests is safe and keeps
the suite fast.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import MASTConfig
from repro.models import GroundTruthDetector, pv_rcnn
from repro.simulation import once_like, semantickitti_like


@pytest.fixture(scope="session")
def kitti_sequence():
    """A 400-frame KITTI-shaped sequence without point providers."""
    return semantickitti_like(0, n_frames=400, with_points=False)


@pytest.fixture(scope="session")
def kitti_sequence_points():
    """A short KITTI-shaped sequence with lazy LiDAR points."""
    return semantickitti_like(0, n_frames=40)


@pytest.fixture(scope="session")
def once_sequence():
    """A 200-frame ONCE-shaped (2 FPS) sequence."""
    return once_like(0, n_frames=200, with_points=False)


@pytest.fixture(scope="session")
def detector():
    """The default simulated PV-RCNN oracle."""
    return pv_rcnn(seed=7)


@pytest.fixture(scope="session")
def exact_detector():
    """A perfect detector for tests where noise would obscure behaviour."""
    return GroundTruthDetector()


@pytest.fixture()
def config():
    """Default MAST config with a fixed seed."""
    return MASTConfig(seed=11)


@pytest.fixture()
def yields(monkeypatch):
    """Arguments of every ``time.sleep`` a test makes (the serving
    layer's per-request scheduling point is ``time.sleep(0)``)."""
    calls: list[float] = []
    monkeypatch.setattr("time.sleep", calls.append)
    return calls


@pytest.fixture()
def counted_rows(monkeypatch):
    """``(rows, n_frames)`` of every count-kernel call a test makes — what
    a count provider costs (``ObjectRows.count_series``)."""
    from repro.query.predicates import ObjectRows

    calls: list[tuple] = []
    real = ObjectRows.count_series

    def counting(self, filters, n_frames, **kwargs):
        calls.append((self, n_frames))
        return real(self, filters, n_frames, **kwargs)

    monkeypatch.setattr(ObjectRows, "count_series", counting)
    return calls


@pytest.fixture()
def always_computing():
    """``with always_computing():`` — the reference the motion memo is
    checked against: inside the block every ``MotionMemo.get`` computes."""
    from repro.inference import MotionMemo

    @contextmanager
    def reference():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                MotionMemo,
                "get",
                lambda self, kind, objects, scalars, compute: compute(),
            )
            yield

    return reference


@pytest.fixture()
def flat_scan():
    """``with flat_scan():`` — the reference tiled answers are checked
    against: inside the block no filter routes to a tile index, so every
    ``MASTIndex`` count series is one scan of its flat columns."""

    @contextmanager
    def reference():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.core.index._region_shaped", lambda object_filter: False)
            yield

    return reference


@pytest.fixture(scope="session", autouse=True)
def lock_witness():
    """Runtime lock-order witness, armed by ``REPRO_WITNESS=1``.

    Instruments every ``threading.Lock``/``RLock`` created during the
    session and, at teardown, cross-checks the observed acquisition
    order against the static graph of ``repro.analysis``: any edge the
    analyzer failed to predict fails the run.  The evidence is dumped
    to ``REPRO_WITNESS_OUT`` (default ``witness.json``) so CI can gate
    on ``repro lint --witness-report``.
    """
    if os.environ.get("REPRO_WITNESS") != "1":
        yield None
        return
    from repro.analysis.witness import WitnessSession

    root = Path(__file__).resolve().parent.parent
    session = WitnessSession(root=root, paths=("src",))
    with session:
        yield session
    out = os.environ.get("REPRO_WITNESS_OUT", "witness.json")
    session.dump(out)
    result = session.check()
    if result.unexplained:
        edges = "; ".join(
            f"{src} -> {dst} (x{count})" for src, dst, count in result.unexplained
        )
        raise RuntimeError(
            f"lock witness observed acquisition-order edges the static "
            f"analyzer did not predict: {edges}"
        )
