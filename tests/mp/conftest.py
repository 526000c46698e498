"""Shared fixtures for the process-serving tests.

Spawning a worker costs a fresh interpreter plus a numpy import, so the
fitted corpus and its process-backed service are **package-scoped**.
Sharing them is safe because the tier is read-only: it serves the corpus
it was started with, and coalescing counters only ever move forward
(every assertion is a delta).
"""

from __future__ import annotations

import pytest

from repro.core.config import MASTConfig
from repro.corpus import (
    CorpusPipeline,
    CorpusQueryService,
    SequenceCatalog,
    SequenceSpec,
)
from repro.models import pv_rcnn


@pytest.fixture(scope="package")
def mp_config() -> MASTConfig:
    return MASTConfig(budget_fraction=0.15, seed=7)


@pytest.fixture(scope="package")
def mp_model():
    return pv_rcnn(seed=5)


@pytest.fixture(scope="package")
def mp_corpus(mp_config, mp_model):
    """A small fitted two-sequence corpus (kitti-shaped + once-shaped)."""
    catalog = SequenceCatalog()
    catalog.register(SequenceSpec("semantickitti", 0, n_frames=60))
    catalog.register(SequenceSpec("once", 0, n_frames=48))
    with CorpusPipeline(catalog, mp_config, policy="uniform") as corpus:
        yield corpus.fit(mp_model)


@pytest.fixture(scope="package")
def mp_service(mp_corpus):
    """A process-backed service: two workers, one shard each."""
    with CorpusQueryService(
        mp_corpus, backend="process", workers=2
    ) as service:
        yield service
