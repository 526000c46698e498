"""Fig. 7 — retrieval F1 as a function of query selectivity.

Reproduces: per-query F1 sorted by oracle selectivity on SemanticKITTI
sequence 0.  Paper shape: MAST dominates at small selectivities (its
mobility analysis finds sparse satisfied frames); all methods converge
above ~80 % selectivity, where F1 exceeds 0.95.

The timed operation is one low-selectivity retrieval query end to end.
"""

import numpy as np
import pytest

from benchmarks._harness import POLICY_SEEDS, emit, get_experiment
from repro.evalx import format_table

METHODS = ("seiden_pc", "seiden_pcst", "mast")
BUCKETS = [(0.0, 0.02), (0.02, 0.10), (0.10, 0.65), (0.65, 1.01)]


def _series():
    """Per-query (selectivity, F1), F1 averaged over policy seeds."""
    reports = [
        get_experiment("semantickitti", 0, seed=seed) for seed in POLICY_SEEDS
    ]
    per_method = {}
    for method in METHODS:
        n_queries = len(reports[0][method].retrieval)
        points = []
        for query_index in range(n_queries):
            evaluations = [r[method].retrieval[query_index] for r in reports]
            points.append(
                (
                    evaluations[0].selectivity,
                    float(np.mean([e.metric for e in evaluations])),
                )
            )
        per_method[method] = sorted(points)
    return per_method


@pytest.fixture(scope="module")
def series():
    return _series()


def test_fig7_selectivity(series, benchmark):
    # Full series (the figure's points) for MAST vs baselines.
    lines = ["Fig 7: retrieval F1 by selectivity (SemanticKITTI seq 0)"]
    lines.append(f"{'selectivity':>12}  " + "  ".join(f"{m:>11}" for m in METHODS))
    mast_points = series["mast"]
    for i, (selectivity, _) in enumerate(mast_points):
        row = [f"{100 * selectivity:11.2f}%"]
        for method in METHODS:
            row.append(f"{series[method][i][1]:11.3f}")
        lines.append("  ".join(row))
    emit("fig7_selectivity_series", "\n".join(lines))

    # Bucket summary (the readable version of the figure).
    rows = []
    for low, high in BUCKETS:
        row = [f"{100 * low:g}-{100 * high:g}%"]
        for method in METHODS:
            values = [f1 for s, f1 in series[method] if low <= s < high]
            row.append(round(float(np.mean(values)), 3) if values else "-")
        rows.append(row)
    emit(
        "fig7_selectivity_buckets",
        format_table(
            ["selectivity", *METHODS],
            rows,
            title="Fig 7 (bucketed): mean F1 per selectivity band",
        ),
    )

    # Shape checks: MAST >= Seiden-PC in the low band; convergence on top.
    def band_mean(method, low, high):
        values = [f1 for s, f1 in series[method] if low <= s < high]
        return float(np.mean(values)) if values else float("nan")

    low_mast = band_mean("mast", 0.0, 0.10)
    low_seiden = band_mean("seiden_pc", 0.0, 0.10)
    if not np.isnan(low_mast) and not np.isnan(low_seiden):
        assert low_mast >= low_seiden - 0.02
    high_values = [band_mean(m, 0.65, 1.01) for m in METHODS]
    assert all(v > 0.9 for v in high_values if not np.isnan(v))

    # Timed: a sparse retrieval query against MAST's executor.
    report = get_experiment("semantickitti", 0)
    from repro.core import MASTIndex
    from repro.query import QueryEngine, parse_query

    engine = QueryEngine(MASTIndex.build(report["mast"].sampling))
    query = parse_query("SELECT FRAMES WHERE COUNT(Car DIST <= 15) >= 9")
    benchmark(lambda: engine.execute(query))
