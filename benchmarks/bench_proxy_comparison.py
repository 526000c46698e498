"""Extension experiment — sampling vs proxy models at equal budget.

The paper's introduction rejects the proxy-model route: "proxy models
are often specialized ... creating a lightweight model that performs
well across diverse queries is challenging".  This bench measures the
trade-off directly at **equal deep-model budget**:

* MAST: oracle on 10 % of frames (0.010 s/frame average);
* calibrated proxy: tiny proxy on 100 % (0.005 s/frame) + oracle on 5 %
  (0.005 s/frame average) = 0.010 s/frame.

Expected shape: the proxy does respectably on aggregate-style smooth
signals (calibration fixes its bias) but loses on retrieval F1 — its
per-frame errors are noise the linear correction cannot remove, while
MAST's errors are confined to unsampled gaps.

The timed operation is the proxy's calibrated count-series evaluation.
"""

import numpy as np
import pytest

from benchmarks._harness import (
    MODEL_SEED,
    POLICY_SEEDS,
    SEED,
    emit,
    get_sequence,
    get_workload,
)
from repro.baselines import MAST, OracleCountProvider, ProxyCountProvider, tiny_proxy
from repro.core import MASTConfig
from repro.evalx import (
    MethodExecutor,
    aggregate_accuracy,
    f1_score,
    format_table,
)
from repro.models import make_model
from repro.query import QueryEngine


def _evaluate():
    sequence = get_sequence("semantickitti", 0)
    model = make_model("pv_rcnn", seed=MODEL_SEED)
    workload = get_workload()

    oracle_engine = QueryEngine(OracleCountProvider(sequence, model))
    retrieval = [
        (q, oracle_engine.execute(q))
        for q in workload.retrieval
    ]
    retrieval = [(q, r) for q, r in retrieval if r.cardinality > 0]
    aggregates = [(q, oracle_engine.execute(q)) for q in workload.aggregates]

    # Proxy at equal budget: proxy 100 % + oracle 5 %.
    proxy_provider = ProxyCountProvider(
        sequence, model, proxy_model=tiny_proxy(seed=MODEL_SEED),
        oracle_fraction=0.05,
    )
    proxy_engine = QueryEngine(proxy_provider)
    proxy_f1 = float(
        np.mean(
            [f1_score(proxy_engine.execute(q).id_set(), r.id_set())
             for q, r in retrieval]
        )
    )
    proxy_agg = float(
        np.mean(
            [aggregate_accuracy(proxy_engine.execute(q).value, r.value)
             for q, r in aggregates]
        )
    )
    proxy_model_seconds = proxy_provider.ledger.total("deep_model")

    # MAST at 10 % (3 policy seeds).
    mast_f1s, mast_aggs, mast_seconds = [], [], []
    for seed in POLICY_SEEDS:
        executor = MethodExecutor(
            MAST, sequence, model, MASTConfig(seed=seed, budget_fraction=0.10)
        )
        mast_f1s.append(
            float(np.mean([
                f1_score(executor.execute(q).id_set(), r.id_set())
                for q, r in retrieval
            ]))
        )
        mast_aggs.append(
            float(np.mean([
                aggregate_accuracy(executor.execute(q).value, r.value)
                for q, r in aggregates
            ]))
        )
        mast_seconds.append(executor.ledger.total("deep_model"))

    rows = [
        ["mast (10% oracle)", round(float(np.mean(mast_seconds)), 1),
         round(float(np.mean(mast_f1s)), 3),
         round(100 * float(np.mean(mast_aggs)), 1)],
        ["calibrated proxy (100% proxy + 5% oracle)",
         round(proxy_model_seconds, 1), round(proxy_f1, 3),
         round(100 * proxy_agg, 1)],
    ]
    return rows, proxy_provider


@pytest.fixture(scope="module")
def results():
    return _evaluate()


def test_proxy_vs_sampling(results, benchmark):
    rows, proxy_provider = results
    emit(
        "proxy_comparison",
        format_table(
            ["method", "model sec", "retrieval F1", "aggregate acc %"],
            rows,
            title="Extension: sampling (MAST) vs calibrated proxy at "
            "equal deep-model budget",
        ),
    )

    mast_row, proxy_row = rows
    # Equal budget within 10 %.
    assert proxy_row[1] == pytest.approx(mast_row[1], rel=0.12)
    # The paper's claim: sampling beats the proxy route on retrieval.
    assert mast_row[2] > proxy_row[2]
    # Both stay usable on aggregates (calibration rescues proxy bias).
    assert proxy_row[3] > 50.0

    from repro.query import ObjectFilter, SpatialPredicate

    object_filter = ObjectFilter(
        label="Car", spatial=SpatialPredicate("<=", 12.5)
    )

    benchmark(lambda: proxy_provider.count_series(object_filter))
