"""Table 3 — retrieval-query F1 across datasets and sequences.

Reproduces: Seiden-PC vs Seiden-PCST vs MAST, averaged F1 over the
retrieval workload, on 5 SemanticKITTI sequences, 5 ONCE sequences, and
the SynLiDAR sequence.  Paper shape: MAST wins everywhere on
SemanticKITTI/SynLiDAR (10 FPS) and on most ONCE sequences (2 FPS, where
the spatio-temporal correlation is weak and gains shrink).

The timed operation is answering the full 100-query retrieval workload
from MAST's prebuilt index.
"""

import pytest

from benchmarks._harness import emit, get_experiment, get_workload, sequence_label
from repro.core import MASTIndex
from repro.evalx import format_table
from repro.query import QueryEngine

GRID = [("semantickitti", i) for i in range(5)] + [
    ("once", i) for i in range(5)
] + [("synlidar", 0)]

METHODS = ("seiden_pc", "seiden_pcst", "mast")


def _rows():
    rows = []
    for dataset, index in GRID:
        report = get_experiment(dataset, index)
        rows.append(
            [
                dataset,
                sequence_label(dataset, index),
                *(round(report[m].mean_retrieval_f1, 3) for m in METHODS),
            ]
        )
    return rows


@pytest.fixture(scope="module")
def table_rows():
    return _rows()


def test_table3_retrieval_f1(table_rows, benchmark):
    emit(
        "table3_retrieval",
        format_table(
            ["dataset", "seq", "Seiden-PC", "Seiden-PCST", "MAST"],
            table_rows,
            title="Table 3: retrieval F1 (higher is better)",
        ),
    )

    # Shape checks: MAST beats Seiden-PC on average, and ST prediction
    # helps Seiden (the paper's two headline retrieval findings).
    mean = lambda col: sum(row[col] for row in table_rows) / len(table_rows)
    assert mean(4) > mean(2), "MAST should beat Seiden-PC on average F1"
    assert mean(3) >= mean(2) - 0.01, "ST prediction should not hurt Seiden"

    # Timed op: answer the retrieval workload from MAST's index.
    report = get_experiment("semantickitti", 0)
    index = MASTIndex.build(report["mast"].sampling)
    engine = QueryEngine(index)
    queries = list(get_workload().retrieval)

    benchmark(lambda: [engine.execute(q) for q in queries])
