"""Fig. 9 — retrieval F1 and Avg accuracy vs sampling budget (5 %-25 %).

Reproduces: the budget sweep on SemanticKITTI sequence 0.  Paper shape:
every method improves with budget; MAST's lead is largest at small
budgets (5 %) and narrows above ~20 %, where "a simpler sampling and
prediction can also achieve a good performance"; Avg accuracy is
satisfactory even at low budgets.

The sweep runs on the :mod:`repro.flow` DAG runner (the same graph
``repro flow run fig9`` executes): one checkpointed oracle step shared
across all five budgets, one ``method:<name>:<budget>`` step per cell.
``tests/flow/test_experiment_flows.py`` pins a sweep's reports against
standalone ``oracle_truth`` / ``evaluate_method`` calls.

The timed operation is a sampling run at the smallest budget (where the
adaptive policy does the most work per sample).
"""

import pytest

from benchmarks._harness import (
    MODEL_SEED,
    SEED,
    emit,
    get_sequence,
    scaled_length,
)
from repro.core import HierarchicalMultiAgentSampler, MASTConfig
from repro.evalx import ExperimentFlowSpec, experiment_flow, format_table
from repro.flow import FlowRunner
from repro.models import make_model

BUDGETS = (0.05, 0.10, 0.15, 0.20, 0.25)
METHODS = ("seiden_pc", "seiden_pcst", "mast")


@pytest.fixture(scope="module")
def flow_result(tmp_path_factory):
    """Run the whole budget sweep as one DAG."""
    spec = ExperimentFlowSpec(
        dataset="semantickitti",
        sequence_index=0,
        n_frames=scaled_length("semantickitti", 0),
        model="pv_rcnn",
        model_seed=MODEL_SEED,
        seed=SEED,
        methods=METHODS,
        budgets=BUDGETS,
    )
    runner = FlowRunner(
        experiment_flow(spec),
        checkpoint_dir=tmp_path_factory.mktemp("fig9-flow"),
    )
    return runner.run()


def test_fig9_budget_sweep(flow_result, benchmark):
    summary = flow_result["summary"]
    rows_f1, rows_avg = summary["rows_f1"], summary["rows_avg"]
    emit(
        "fig9_budget_f1",
        format_table(
            ["budget", *METHODS],
            rows_f1,
            title="Fig 9a: retrieval F1 vs sampling budget",
        ),
    )
    emit(
        "fig9_budget_avg",
        format_table(
            ["budget", *METHODS],
            rows_avg,
            title="Fig 9b: Avg aggregate accuracy % vs sampling budget",
        ),
    )

    # F1 improves with budget for every method (allow small noise).
    for column in (1, 2, 3):
        first, last = rows_f1[0][column], rows_f1[-1][column]
        assert last > first - 0.01, f"F1 should rise with budget (col {column})"
    # MAST leads at the smallest budget.
    assert rows_f1[0][3] >= rows_f1[0][1], "MAST should lead Seiden-PC at 5%"
    # Avg accuracy already high at the lowest budget (sparse tolerance).
    assert rows_avg[0][3] > 75.0

    # Timed: adaptive sampling at 5 % budget.
    sequence = get_sequence("semantickitti", 0)
    model = make_model("pv_rcnn", seed=MODEL_SEED)
    sampler = HierarchicalMultiAgentSampler(
        MASTConfig(seed=SEED, budget_fraction=0.05)
    )
    benchmark.pedantic(
        lambda: sampler.sample(sequence, model), rounds=3, iterations=1
    )
