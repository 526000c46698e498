"""Fig. 6 — query-procedure time for the 130-query workload.

Reproduces: total query time per method on the SemanticKITTI sequences,
plus the §6.1 per-query constants (linear ~0.03 s, ST ~0.07 s at
|D| ~ 4,500, Oracle slowest) and the ~0.5 s indexing cost shared by the
sampling methods.  The tracked table holds the simulated per-query and
indexing cost; the measured compute on top of it is only printed.

The timed operation is a single ST count-series evaluation (the inner
loop of query processing).
"""

import pytest

from benchmarks._harness import emit, get_experiment, sequence_label, simulated_seconds
from repro.core.index import (
    SIMULATED_QUERY_COST_LINEAR,
    SIMULATED_QUERY_COST_ST,
)
from repro.baselines.oracle import SIMULATED_QUERY_COST_ORACLE
from repro.evalx import format_table
from repro.query import ObjectFilter, SpatialPredicate
from repro.utils.timing import STAGE_INDEX, STAGE_QUERY

METHODS = ("seiden_pc", "seiden_pcst", "mast")


def _rows():
    """Simulated query / index seconds, and the measured totals."""
    rows, measured_rows = [], []
    for index in range(5):
        report = get_experiment("semantickitti", index)
        ledgers = [report.oracle_ledger, *(report[m].ledger for m in METHODS)]
        mast = report["mast"].ledger
        label = sequence_label("semantickitti", index)
        rows.append(
            [
                label,
                *(round(simulated_seconds(ledger, STAGE_QUERY), 2) for ledger in ledgers),
                round(simulated_seconds(mast, STAGE_INDEX), 2),
            ]
        )
        measured_rows.append(
            [
                label,
                *(round(ledger.total(STAGE_QUERY), 2) for ledger in ledgers),
                round(mast.total(STAGE_INDEX), 2),
            ]
        )
    return rows, measured_rows


@pytest.fixture(scope="module")
def table_rows():
    return _rows()


def test_fig6_query_time(table_rows, benchmark):
    table_rows, measured_rows = table_rows
    headers = ["seq", "Oracle", "Seiden-PC", "Seiden-PCST", "MAST", "MAST index"]
    emit(
        "fig6_query_time",
        format_table(
            headers,
            table_rows,
            title="Fig 6: query-procedure seconds for the 130-query workload "
            "(+ indexing cost), simulated",
        ),
    )
    print()
    print(
        format_table(
            headers,
            measured_rows,
            title="Fig 6: the same, simulated + measured wall clock",
        )
    )

    # Per-query constants (paper §6.1, at |D| = 4,541 full scale).
    paper_scale_frames = 4541
    constants = format_table(
        ["predictor", "sec/query at |D|=4,541"],
        [
            ["linear", round(SIMULATED_QUERY_COST_LINEAR * paper_scale_frames, 3)],
            ["ST", round(SIMULATED_QUERY_COST_ST * paper_scale_frames, 3)],
            ["oracle scan", round(SIMULATED_QUERY_COST_ORACLE * paper_scale_frames, 3)],
        ],
        title="Per-query cost constants (paper: linear 0.03 s, ST 0.07 s)",
    )
    emit("fig6_per_query_constants", constants)

    for row in table_rows:
        oracle_s, seiden_s, seiden_st_s, mast_s = row[1], row[2], row[3], row[4]
        assert seiden_s < seiden_st_s <= oracle_s, "linear < ST < oracle"
        assert mast_s < oracle_s
        # ST and linear stay within one order of magnitude (§6.1).
        assert seiden_st_s / seiden_s < 10

    # Timed: one ST count-series evaluation over the flat index.
    report = get_experiment("semantickitti", 0)
    from repro.core import MASTIndex

    index = MASTIndex.build(report["mast"].sampling)
    object_filter = ObjectFilter(label="Car", spatial=SpatialPredicate("<=", 12.5))

    benchmark(index.count_series, object_filter)
