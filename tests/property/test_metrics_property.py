"""Property tests: F1 over id arrays equals F1 over the same id sets."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import SEIDEN_PC, OracleCountProvider
from repro.core import MASTConfig
from repro.evalx import MethodExecutor, f1_score, precision_recall_f1
from repro.models import pv_rcnn
from repro.query import QueryEngine, generate_workload
from repro.simulation import semantickitti_like

# A narrow range with negatives, so draws overlap and repeat ids.
id_lists = st.lists(st.integers(min_value=-40, max_value=40), max_size=60)


@given(id_lists, id_lists, st.sampled_from([np.int64, np.int32]))
@example([], [], np.int64)
@example([], [3, 1, 3], np.int64)
@example([-2, 5, 5], [], np.int32)
@settings(max_examples=300, deadline=None)
def test_arrays_score_like_sets(predicted, truth, dtype):
    from_arrays = precision_recall_f1(
        np.array(predicted, dtype=dtype), np.array(truth, dtype=dtype)
    )
    assert from_arrays == precision_recall_f1(set(predicted), set(truth))


def test_both_empty_is_perfect():
    empty = np.array([], dtype=np.int64)
    assert precision_recall_f1(empty, empty) == (1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def retrieval_pairs():
    sequence = semantickitti_like(0, n_frames=300, with_points=False)
    model = pv_rcnn(seed=5)
    oracle = QueryEngine(OracleCountProvider(sequence, model))
    executor = MethodExecutor(SEIDEN_PC, sequence, model, MASTConfig(seed=1))
    return [
        (executor.execute(query), oracle.execute(query))
        for query in generate_workload(rng=0).retrieval
    ]


def test_retrieval_results_score_alike(retrieval_pairs):
    assert retrieval_pairs
    for predicted, truth in retrieval_pairs:
        assert f1_score(predicted.frame_ids, truth.frame_ids) == f1_score(
            predicted.id_set(), truth.id_set()
        )
