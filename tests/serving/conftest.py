"""Fixtures for the serving-layer tests.

A session-scoped fitted pipeline over the KITTI-like sequence; stress
tests build their own short pipelines because ``extend`` mutates
pipeline state.
"""

from __future__ import annotations

import pytest

from repro.core import MASTConfig, MASTPipeline


@pytest.fixture(scope="session")
def kitti_pipeline(kitti_sequence, detector):
    return MASTPipeline(MASTConfig(seed=13)).fit(kitti_sequence, detector)
