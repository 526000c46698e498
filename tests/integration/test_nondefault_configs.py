"""Bit-exact pins for the non-default configs the paper scripts sweep.

The default config is pinned many times over; these are the values
``benchmarks/bench_ablation_parameters.py`` (beta, confidence cut,
matching gate, ``c_var``) and ``benchmarks/bench_fig11_design.py``
(branching factor) sweep away from it.  Each pin is the
``experiment_digest`` of a small MAST-only run: every answer, metric,
sampled frame and simulated cost.  A change that moves one of them moves
a paper table too, so it regenerates that table and updates the pin in
the same change.  Each run goes through ``experiment_flow`` and
``FlowRunner``, the way the paper scripts run it.

``FLAT_BANDIT_PINS`` cover what the MAST-only pins cannot: the flat
bandit (the segment tree at depth cap 1, on the ``"seiden"`` stream) of
Seiden-PC / Seiden-PCST / MAST-noH at two budgets.
"""

import pytest

from repro.evalx import ExperimentFlowSpec, experiment_digest, experiment_flow
from repro.evalx.flows import budget_label
from repro.flow import FlowRunner

PINS = {
    "beta=0.5": ({"beta": 0.5}, "da0171f48bc1c68bde701e987b8beda5"),
    "confidence=0.7": (
        {"confidence_threshold": 0.7},
        "c219a166cb8e4f05e4024597e632b6e1",
    ),
    "gate=15m": ({"match_max_distance": 15.0}, "6b9a3d52759fecf8cf28b641c2e54e89"),
    "c_var=0.25": ({"c_var": 0.25}, "32399c3be9c65e0b2ebbe483514331f5"),
    "branching=4": ({"branching": 4}, "828faf104f9b763914193b2e2f985887"),
}


def run_report(tmp_path, methods, budget=0.10, overrides=()):
    """One 600-frame ``semantickitti`` report: workload seed 0, policy seed 1."""
    spec = ExperimentFlowSpec(
        n_frames=600,
        model_seed=5,
        seed=1,
        methods=methods,
        budgets=(budget,),
        workload_seed=0,
        overrides=tuple(overrides),
    )
    result = FlowRunner(experiment_flow(spec), checkpoint_dir=tmp_path).run()
    return result[f"report:{budget_label(budget)}"]


@pytest.mark.parametrize("overrides, digest", PINS.values(), ids=PINS.keys())
def test_experiment_digest_is_pinned(tmp_path, overrides, digest):
    report = run_report(tmp_path, ("mast",), overrides=overrides.items())
    assert experiment_digest(report) == digest


FLAT_BANDIT_PINS = {
    0.05: "916d20446f41be9a342e60f5f4bdf54a",
    0.15: "eade8008905bbe067a47fb3203172f93",
}


@pytest.mark.parametrize(
    "budget_fraction, digest",
    FLAT_BANDIT_PINS.items(),
    ids=[f"budget={b}" for b in FLAT_BANDIT_PINS],
)
def test_flat_bandit_digest_is_pinned(tmp_path, budget_fraction, digest):
    report = run_report(
        tmp_path, ("seiden_pc", "seiden_pcst", "mast_noh", "mast"), budget_fraction
    )
    assert experiment_digest(report) == digest
