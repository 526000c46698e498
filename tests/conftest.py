"""Shared fixtures: small deterministic sequences and models.

Session-scoped because sequence generation and detection are pure
functions of their seeds — reusing them across tests is safe and keeps
the suite fast.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import MASTConfig
from repro.models import GroundTruthDetector, pv_rcnn
from repro.simulation import once_like, semantickitti_like


class WallBoundExceeded(BaseException):
    """A test ran past its ``wall_bound``.  Not an ``Exception``, so
    Hypothesis does not treat it as a falsifying example and re-run the
    hang while shrinking it."""


@pytest.fixture(autouse=True)
def _wall_bound(request):
    """``@pytest.mark.wall_bound(seconds)``: fail the test once it has run
    that long (SIGALRM), so a loop that never ends fails instead of
    hanging the suite."""
    marker = request.node.get_closest_marker("wall_bound")
    if marker is None:
        yield
        return
    seconds = marker.args[0]

    def expire(signum, frame):
        raise WallBoundExceeded(f"{request.node.nodeid} ran past its {seconds} s wall bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
    """Arguments of every ``os.sched_yield`` a test makes, one ``()`` a
    call (the serving layer's per-request scheduling point is
    ``os.sched_yield()``)."""
    calls: list[tuple] = []
    monkeypatch.setattr("os.sched_yield", lambda *args: calls.append(args))
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
def pair_analyses(monkeypatch):
    """The ``(t_start, t_end)`` of every one-pair ST-PC analysis
    (``stpc.analyze_pair``): a reward's, or a calibration's; an index
    build analyses through the batch kernel and is not counted."""
    from repro.core import stpc

    calls: list[tuple[float, float]] = []
    real = stpc.analyze_pair

    def counting(objects_start, objects_end, t_start, t_end, **kwargs):
        calls.append((t_start, t_end))
        return real(objects_start, objects_end, t_start, t_end, **kwargs)

    monkeypatch.setattr(stpc, "analyze_pair", counting)
    return calls


@pytest.fixture()
def without_handover():
    """``with without_handover():`` — the reference the estimate hand-over
    is checked against: inside the block no sampling session is handed an
    index's estimates, so every ST reward analyses its own pair."""
    from repro.core.sampler import NOTHING_INSTALLED, AdaptiveSamplingSession

    @contextmanager
    def reference():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                AdaptiveSamplingSession,
                "installed",
                property(lambda self: NOTHING_INSTALLED, lambda self, value: None),
                raising=False,
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
