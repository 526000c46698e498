"""Fig. 5 — sampling-procedure time (deep-model processing) per method.

Reproduces: total sampling-stage time (deep-model seconds + policy
seconds) for Oracle vs Seiden-PC vs Seiden-PCST vs MAST on the five
SemanticKITTI sequences at the default 10 % budget.  Paper shape: the
Oracle costs ~10x the sampling methods (time saving proportional to the
budget); MAST/Seiden-PCST pay a little more than Seiden-PC for ST
analysis.

Deep-model seconds are *simulated* (0.1 s/frame for PV-RCNN, the paper's
measured constant) and are the tracked table; policy seconds are
measured wall clock and only printed.  The timed operation is one
hierarchical sampling run (policy compute only, model charges are ledger
entries).
"""

import pytest

from benchmarks._harness import (
    MODEL_SEED,
    SEED,
    emit,
    get_experiment,
    get_sequence,
    sequence_label,
)
from repro.core import HierarchicalMultiAgentSampler, MASTConfig
from repro.evalx import format_table
from repro.models import make_model
from repro.utils.timing import STAGE_MODEL, STAGE_POLICY

METHODS = ("seiden_pc", "seiden_pcst", "mast")


def _rows():
    """Simulated deep-model seconds, and the measured policy seconds."""
    rows, policy_rows = [], []
    for index in range(5):
        report = get_experiment("semantickitti", index)
        label = sequence_label("semantickitti", index)
        rows.append(
            [
                label,
                round(report.oracle_ledger.total(STAGE_MODEL), 1),
                *(round(report[m].ledger.total(STAGE_MODEL), 1) for m in METHODS),
            ]
        )
        policy_rows.append(
            [label, *(round(report[m].ledger.total(STAGE_POLICY), 2) for m in METHODS)]
        )
    return rows, policy_rows


@pytest.fixture(scope="module")
def table_rows():
    return _rows()


def test_fig5_sampling_time(table_rows, benchmark):
    table_rows, policy_rows = table_rows
    emit(
        "fig5_sampling_time",
        format_table(
            ["seq", "Oracle", "Seiden-PC", "Seiden-PCST", "MAST"],
            table_rows,
            title="Fig 5: sampling-procedure deep-model seconds "
            "(simulated), budget 10%",
        ),
    )
    print()
    print(
        format_table(
            ["seq", "Seiden-PC", "Seiden-PCST", "MAST"],
            policy_rows,
            title="Fig 5: sampling-policy seconds (measured wall clock)",
        )
    )

    for row in table_rows:
        oracle_seconds = row[1]
        for method_seconds in row[2:]:
            ratio = method_seconds / oracle_seconds
            # Time saving proportional to the 10 % budget (paper: ~90 %).
            assert 0.07 < ratio < 0.2, f"budget ratio off: {ratio}"

    # Timed: a full hierarchical sampling run (policy compute).
    sequence = get_sequence("semantickitti", 0)
    model = make_model("pv_rcnn", seed=MODEL_SEED)
    sampler = HierarchicalMultiAgentSampler(MASTConfig(seed=SEED))
    benchmark.pedantic(
        lambda: sampler.sample(sequence, model), rounds=3, iterations=1
    )
