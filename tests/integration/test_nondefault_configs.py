"""Bit-exact pins for the non-default configs the paper scripts sweep.

The default config is pinned many times over; these are the values
``benchmarks/bench_ablation_parameters.py`` (beta, confidence cut,
matching gate, ``c_var``) and ``benchmarks/bench_fig11_design.py``
(branching factor) sweep away from it.  Each pin is the
``experiment_digest`` of a small MAST-only run: every answer, metric,
sampled frame and simulated cost.  A change that moves one of them moves
a paper table too, so it regenerates that table and updates the pin in
the same change.

``FLAT_BANDIT_PINS`` cover what the MAST-only pins cannot: the flat
``UCBAgent`` of Seiden-PC / Seiden-PCST / MAST-noH at two budgets.
"""

import pytest

from repro.baselines import MAST, MAST_NOH, SEIDEN_PC, SEIDEN_PCST
from repro.core import MASTConfig
from repro.evalx import experiment_digest, run_experiment
from repro.models import pv_rcnn
from repro.query import generate_workload
from repro.simulation import semantickitti_like

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


@pytest.fixture(scope="module")
def sequence():
    return semantickitti_like(0, n_frames=600, with_points=False)


@pytest.mark.parametrize("overrides, digest", PINS.values(), ids=PINS.keys())
def test_experiment_digest_is_pinned(sequence, overrides, digest):
    report = run_experiment(
        sequence,
        pv_rcnn(seed=5),
        generate_workload(rng=0),
        methods=(MAST,),
        config=MASTConfig(seed=1, **overrides),
    )
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
def test_flat_bandit_digest_is_pinned(sequence, budget_fraction, digest):
    report = run_experiment(
        sequence,
        pv_rcnn(seed=5),
        generate_workload(rng=0),
        methods=(SEIDEN_PC, SEIDEN_PCST, MAST_NOH, MAST),
        config=MASTConfig(seed=1, budget_fraction=budget_fraction),
    )
    assert experiment_digest(report) == digest
