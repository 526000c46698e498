#!/usr/bin/env python
"""Fleet-scale collision-risk mining (the paper's Example 1.1).

An automotive company collects drives from several vehicles into a
sequence catalog and wants to find *high-risk scenes* — frames where
three or more cars crowd within a radius of the ego vehicle — without
paying for deep-model inference on every frame.

This example:

* ingests three drives (two urban 10-FPS, one sparse 2-FPS) into a
  :class:`~repro.corpus.SequenceCatalog`;
* fits one MAST pipeline per drive under a shared 10 % budget;
* mines risk scenes at several radii and severity thresholds;
* validates the findings of the *first* drive against Oracle processing,
  showing what the 90 % saved GPU time costs in recall.

Run:  python examples/collision_risk_retrieval.py
"""

from repro import MASTConfig, MASTPipeline, SequenceCatalog
from repro.baselines import OracleCountProvider
from repro.evalx import format_table, precision_recall_f1
from repro.models import pv_rcnn
from repro.query import QueryEngine
from repro.simulation import once_like, semantickitti_like

RISK_QUERIES = [
    ("tailgating", "SELECT FRAMES WHERE COUNT(Car DIST <= 5) >= 1"),
    ("crowded-10m", "SELECT FRAMES WHERE COUNT(Car DIST <= 10) >= 3"),
    ("dense-traffic", "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 5"),
]


def main() -> None:
    print("registering drives in the sequence catalog ...")
    catalog = SequenceCatalog()
    catalog.register_sequence(semantickitti_like(0, n_frames=1200, with_points=False))
    catalog.register_sequence(semantickitti_like(1, n_frames=1000, with_points=False))
    catalog.register_sequence(once_like(0, n_frames=600, with_points=False))
    print(f"  {catalog}")

    model = pv_rcnn(seed=0)
    config = MASTConfig(budget_fraction=0.10, seed=0)

    pipelines: dict[str, MASTPipeline] = {}
    for name in catalog.names():
        pipelines[name] = MASTPipeline(config).fit(catalog.sequence(name), model)

    rows = []
    for name, pipeline in pipelines.items():
        for risk_name, query in RISK_QUERIES:
            result = pipeline.query(query)
            rows.append(
                [
                    name,
                    risk_name,
                    result.cardinality,
                    f"{100 * result.selectivity:.2f}%",
                ]
            )
    print()
    print(
        format_table(
            ["drive", "risk pattern", "frames", "selectivity"],
            rows,
            title="Approximate risk-scene counts (10 % deep-model budget)",
        )
    )

    # Validate one drive against the Oracle.
    first = catalog.names()[0]
    print(f"\nvalidating drive {first!r} against Oracle processing ...")
    oracle_engine = QueryEngine(OracleCountProvider(catalog.sequence(first), model))
    rows = []
    for risk_name, query in RISK_QUERIES:
        approx = pipelines[first].query(query)
        exact = oracle_engine.execute(query)
        precision, recall, f1 = precision_recall_f1(
            approx.id_set(), exact.id_set()
        )
        rows.append(
            [risk_name, exact.cardinality, approx.cardinality,
             f"{precision:.3f}", f"{recall:.3f}", f"{f1:.3f}"]
        )
    print(
        format_table(
            ["risk pattern", "oracle", "approx", "precision", "recall", "F1"],
            rows,
        )
    )

    total_budget = sum(
        p.ledger.total("deep_model") for p in pipelines.values()
    )
    full_cost = 0.1 * catalog.total_frames()
    print(
        f"\nfleet deep-model time: {total_budget:.0f} s "
        f"(full processing would cost {full_cost:.0f} s)"
    )


if __name__ == "__main__":
    main()
