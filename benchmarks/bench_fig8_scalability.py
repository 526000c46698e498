"""Fig. 8 — scalability on SynLiDAR subsets (10 % .. 100 % of the data).

Reproduces: (a) processing time and (b) retrieval F1 of MAST as the
dataset grows.  Paper shape: time grows linearly with the dataset (the
framework "maintains its efficiency across different scales") while F1
stays stable — handling batched arrival of new data.  The tracked table
holds the simulated deep-model seconds, the sample count and F1; the
total with measured compute is only printed.

The timed operation is index construction on the largest subset.
"""

import pytest

from benchmarks._harness import emit, get_experiment, scaled_length
from repro.evalx import format_table
from repro.utils.timing import STAGE_MODEL

FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0)


def _rows():
    """Run-stable rows, and the measured total seconds per subset."""
    full = scaled_length("synlidar", 0)
    rows, measured_rows = [], []
    for fraction in FRACTIONS:
        n_frames = max(300, int(full * fraction))
        report = get_experiment("synlidar", 0, n_frames=n_frames)
        mast = report["mast"]
        subset = f"{int(fraction * 100)}%"
        rows.append(
            [
                subset,
                n_frames,
                round(mast.ledger.total(STAGE_MODEL), 1),
                len(mast.sampling.sampled_ids),
                round(mast.mean_retrieval_f1, 3),
            ]
        )
        measured_rows.append([subset, n_frames, round(mast.ledger.grand_total, 1)])
    return rows, measured_rows


@pytest.fixture(scope="module")
def table_rows():
    return _rows()


def test_fig8_scalability(table_rows, benchmark):
    table_rows, measured_rows = table_rows
    emit(
        "fig8_scalability",
        format_table(
            ["subset", "frames", "model sec", "samples", "MAST F1"],
            table_rows,
            title="Fig 8: SynLiDAR scalability (time grows ~linearly, "
            "F1 stays stable)",
        ),
    )
    print()
    print(
        format_table(
            ["subset", "frames", "total sec"],
            measured_rows,
            title="Fig 8: simulated + measured wall-clock seconds",
        )
    )

    # Linear-time shape: cost per frame roughly constant across scales.
    per_frame = [row[2] / row[1] for row in measured_rows]
    assert max(per_frame) / min(per_frame) < 1.8

    # Accuracy stability: F1 within a modest band across scales.
    f1_values = [row[4] for row in table_rows]
    assert max(f1_values) - min(f1_values) < 0.15
    assert min(f1_values) > 0.7

    # Timed: index construction at the largest subset.
    report = get_experiment("synlidar", 0, n_frames=scaled_length("synlidar", 0))
    from repro.core import MASTIndex

    benchmark.pedantic(
        lambda: MASTIndex.build(report["mast"].sampling), rounds=3, iterations=1
    )
