"""Parameter ablations beyond the paper's RQ7.

DESIGN.md calls out the design parameters the paper fixes without
sweeping; this bench quantifies their effect on MAST's retrieval F1:

* ``c_var`` — the Eq.-1 weight between the matched-distance term and the
  cardinality-mismatch term of the reward;
* ``beta`` — the budget share of the uniform pass (Alg. 2);
* ``confidence_threshold`` — the appearance cut of ST prediction
  (Example 5.2's 0.5 default);
* ``match_max_distance`` — optional gating of Alg. 1's Hungarian
  matching (None = the paper's ungated matching).

The timed operation is one Eq.-1 reward evaluation.
"""

import numpy as np
import pytest

from benchmarks._harness import POLICY_SEEDS, emit, get_experiment
from repro.baselines.variants import MAST
from repro.evalx import format_table


def _mast_f1(**config_overrides) -> float:
    values = [
        get_experiment(
            "semantickitti", 0, methods=(MAST,), seed=seed, **config_overrides
        )["mast"].mean_retrieval_f1
        for seed in POLICY_SEEDS
    ]
    return float(np.mean(values))


def _sweep(name, values, **fixed):
    rows = []
    for value in values:
        rows.append([value if value is not None else "None",
                     round(_mast_f1(**{name: value}, **fixed), 3)])
    return rows


@pytest.fixture(scope="module")
def tables():
    return {
        "c_var": _sweep("c_var", (0.0, 0.25, 0.5, 0.75, 1.0)),
        "beta": _sweep("beta", (0.2, 0.3, 0.5, 0.7)),
        "confidence_threshold": _sweep(
            "confidence_threshold", (0.3, 0.5, 0.7)
        ),
        "match_max_distance": _sweep(
            "match_max_distance", (None, 5.0, 15.0, 30.0)
        ),
    }


def test_parameter_ablations(tables, benchmark):
    for parameter, rows in tables.items():
        emit(
            f"ablation_{parameter}",
            format_table(
                [parameter, "MAST F1"],
                rows,
                title=f"Ablation: MAST retrieval F1 vs {parameter} "
                "(3-seed mean, SemanticKITTI seq 0)",
            ),
        )

    # Robustness shape: no swept setting collapses the method.
    for parameter, rows in tables.items():
        f1_values = [row[1] for row in rows]
        assert min(f1_values) > 0.75, f"{parameter} sweep collapsed: {rows}"
        # The default configuration is near the best of each sweep.
        assert max(f1_values) - min(f1_values) < 0.12

    # Timed: one Eq.-1 reward computation on realistic scene sizes.
    from repro.core import st_reward
    from repro.data import ObjectArray

    rng = np.random.default_rng(0)

    def scene(n):
        return ObjectArray(
            labels=rng.choice(["Car", "Pedestrian"], n).astype("<U16"),
            centers=rng.uniform(-50, 50, (n, 3)),
            sizes=np.ones((n, 3)),
            yaws=np.zeros(n),
            scores=np.full(n, 0.9),
        )

    estimated, actual = scene(15), scene(17)
    benchmark(lambda: st_reward(estimated, actual, d_max=75.0, c_var=0.5))
