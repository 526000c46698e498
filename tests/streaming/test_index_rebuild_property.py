"""Property: a rebuilt index is the index a scratch build lays out.

Hypothesis generates chains of ``extend`` (random sequence, random chunk
size) and re-plan epochs (online, or the drain's exact re-plan) over a
two-sequence corpus.  After every step, each shard's index — rebuilt
from its predecessor, reusing whatever rows it still holds — must have

* the four flat columns of :meth:`MASTIndex.build` with no previous
  index, bit for bit and dtype for dtype, in frame order (both the
  rebuilt and the scratch index), and an estimate for the same gaps, in
  sample order;
* tail counts equal to the full series sliced there, for every start
  frame: a sampled frame, one inside a gap, one inside the open tail
  past the last sample.

Follows the ``tests/property`` conventions: seeded strategies, bounded
``max_examples``, ``deadline=None`` for model-running examples.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MASTIndex
from repro.core.config import MASTConfig
from repro.corpus import CorpusPipeline, CorpusQueryService, SequenceCatalog
from repro.models import pv_rcnn
from repro.query import ObjectFilter, RegionPredicate, SpatialPredicate
from repro.simulation import once_like, semantickitti_like

CONFIG = MASTConfig(budget_fraction=0.15, seed=7)
MODEL = pv_rcnn(seed=5)
#: Module-level so examples share the built frames.
SEQUENCES = [
    semantickitti_like(0, n_frames=80, with_points=False),
    once_like(0, n_frames=80, with_points=False),
]
FILTERS = [
    ObjectFilter(label="Car"),
    ObjectFilter(label=None, confidence=0.5),
    ObjectFilter(label="Pedestrian", spatial=SpatialPredicate("<=", 25.0)),
    ObjectFilter(label=None, spatial=RegionPredicate(-20.0, -20.0, 20.0, 20.0)),
]

steps_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), st.integers(0, 1), st.integers(1, 10)),
        st.tuples(st.just("replan"), st.booleans()),
    ),
    min_size=1,
    max_size=5,
)


def _segment_of(index: MASTIndex, frame: int) -> str:
    ids = index.sampled_ids
    if frame in ids:
        return "sampled"
    if frame > ids[-1]:
        return "tail"
    return "gap" if frame > ids[0] else "before"


def _check(index: MASTIndex, config: MASTConfig, sampling, seen: set[str]) -> None:
    scratch = MASTIndex.build(sampling, config)
    for built in (index, scratch):
        assert np.all(np.diff(built._rows.frame_index) >= 0), "rows out of frame order"
    for column, got, want in zip(scratch._rows._fields, index._rows, scratch._rows):
        assert got.dtype == want.dtype, column
        assert np.array_equal(got, want), column
    assert list(index._estimates) == list(scratch._estimates)
    full = index.count_series_many(FILTERS)
    for start in range(index.n_frames + 1):
        tail = index.count_series_many(FILTERS, start=start)
        for object_filter in FILTERS:
            assert np.array_equal(tail[object_filter], full[object_filter][start:]), (
                start,
                object_filter.describe(),
            )
        if start < index.n_frames:
            seen.add(_segment_of(index, start))


@given(initial=st.integers(6, 16), steps=steps_strategy)
@settings(max_examples=20, deadline=None)
def test_rebuilt_index_equals_a_scratch_build(initial, steps):
    catalog = SequenceCatalog()
    for sequence in SEQUENCES:
        catalog.register_sequence(
            sequence.head(initial, name=sequence.name), dataset="stream"
        )
    # Two one-frame extends at the end: at most one lands on a grid
    # point, so the chain always reaches a state with an open tail.
    steps = [*steps, ("extend", 0, 1), ("extend", 0, 1)]
    seen: set[str] = set()
    with CorpusPipeline(catalog, CONFIG, policy="ucb") as corpus:
        corpus.fit(MODEL)
        with CorpusQueryService(corpus) as service:
            for step in steps:
                if step[0] == "extend":
                    _, which, size = step
                    name = SEQUENCES[which].name
                    have = corpus.catalog.n_frames(name)
                    frames = list(SEQUENCES[which][have : have + size])
                    if not frames:
                        continue
                    service.extend(name, frames)
                else:
                    service.replan(MODEL, exact=step[1])
                for name in corpus.names:
                    shard = corpus.shard(name)
                    _check(shard.index, shard.config, shard.sampling_result, seen)
    assert {"sampled", "gap", "tail"} <= seen
